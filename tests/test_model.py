import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscbath import (
    FIGURE_IDS,
    InvalidParameters,
    OutOfRange,
    SystemParams,
    ValidationResult,
    check_covariance,
    coupling_bound,
    evolve_trajectory,
    figure_preset,
    full_report,
    initial_squeezed_vacuum,
    invariants,
    mode_frequencies,
    propagate,
    require_valid,
    steady_state,
    validate,
)
from oscbath import measures
from oscbath.dynamics import _normal_modes
from oscbath.model import _SQUEEZING_LIMIT
from helpers import FIG1A


def params(**overrides):
    base = dict(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6,
                temperature=0.2, r=1.0)
    base.update(overrides)
    return SystemParams(**base)


class TestValidate:
    def test_caption_set_is_ok(self):
        result = validate(FIG1A)
        assert result.ok
        assert result.violations == ()
        assert result.warnings == ()

    def test_coupling_above_bound_rejected(self):
        result = validate(params(nu=1.5))
        assert not result.ok
        assert any("omega1*omega2" in v for v in result.violations)

    def test_epsilon_at_one_rejected(self):
        result = validate(params(epsilon=1.0))
        assert not result.ok
        assert any("epsilon" in v for v in result.violations)

    @pytest.mark.parametrize(
        "field,value",
        [("omega", 0.0), ("omega", -1.0), ("epsilon", -0.1),
         ("lambda_", -0.5), ("temperature", -0.1), ("r", -1.0),
         ("omega", math.inf), ("lambda_", math.inf),
         ("temperature", math.inf), ("r", math.inf)],
    )
    def test_out_of_range_rejected(self, field, value):
        assert not validate(params(**{field: value})).ok

    def test_nan_rejected(self):
        assert not validate(params(omega=float("nan"))).ok
        assert not validate(params(nu=float("nan"))).ok

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_non_finite_nu_named_as_such(self, nu):
        result = validate(params(nu=nu))
        assert result.violations == (f"nu must be finite (got {nu})",)
        assert result.warnings == ()

    @pytest.mark.parametrize("omega,epsilon", [(1e200, 0.0), (1.5e154, 0.0), (1e154, 0.9)])
    def test_overflowing_frequencies_rejected(self, omega, epsilon):
        # the parameter box refuses them long before omega1**2 overflows
        result = validate(params(omega=omega, epsilon=epsilon, nu=0.0))
        assert result.violations == (
            f"omega must satisfy 2**-11 <= omega <= 2**11 (got {omega})",)
        with pytest.raises(InvalidParameters, match=re.escape("omega <= 2**11")):
            evolve_trajectory(params(omega=omega, epsilon=epsilon))

    def test_largest_finite_frequencies_pass(self):
        # the largest frequencies are the box's edge, the smallest its other edge
        for omega in (2.0 ** 11, 2.0 ** -11):
            assert validate(params(omega=omega, nu=0.0)).ok
        assert validate(params(omega=2.0 ** 11, epsilon=0.999, nu=0.0)).ok
        assert not validate(params(omega=1e154, nu=0.0)).ok

    def test_marginal_coupling_passes_without_warning(self):
        result = validate(params(nu=1.0))  # omega1*omega2 = 1 here
        assert result.ok
        assert result.warnings == ()

    def test_squeezing_limit_is_where_the_rounding_meets_the_tolerance(self):
        # 8 cosh^2(2r) u, the bound on ch^2 - sh^2 - 1, reaches 2e-8, the
        # room nu_- >= 1 - 1e-8 leaves
        u = 2.0 ** -53
        assert 8.0 * math.cosh(2.0 * _SQUEEZING_LIMIT) ** 2 * u == pytest.approx(
            2.0 * measures._PHYSICAL_TOL, rel=1e-12)
        assert _SQUEEZING_LIMIT == pytest.approx(4.5790, abs=1e-4)

    def test_squeezing_beyond_the_supported_range_warns_but_passes(self):
        # the supported range is a bound of the box: beyond it a set is
        # refused, with the bound named, and no warning is given
        result = validate(params(r=_SQUEEZING_LIMIT))
        assert result.ok and result.warnings == ()
        for r in (math.nextafter(_SQUEEZING_LIMIT, math.inf), 7.0, 300.0):
            result = validate(params(r=r))
            assert result.warnings == ()
            assert result.violations == (
                f"r must satisfy 0 <= r <= 4.5790, the supported squeezing range (got {r})",)

    def test_supported_squeezing_gives_a_physical_initial_state(self):
        for r in np.linspace(0.0, _SQUEEZING_LIMIT, 2001):
            assert full_report(initial_squeezed_vacuum(r)).physical, r
        # a little beyond it the rounding already shows
        assert not full_report(initial_squeezed_vacuum(4.721426689928442)).physical

    def test_no_preset_and_no_bench_input_warns(self):
        # every preset value lies inside the parameter box, with no warning;
        # every bench input draws omega from [0.5, 2], lambda <= 2, T <= 3
        # and r from [0, 2]
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for value in preset.values:
                varied = dataclasses.replace(preset.params, **{preset.sweep: float(value)})
                assert validate(varied) == ValidationResult(True, (), ())
        assert validate(params(omega=0.5, nu=0.2, lambda_=2.0, temperature=3.0, r=2.0)) == (
            ValidationResult(True, (), ()))

    def test_zero_dissipation_warns_but_passes(self):
        result = validate(params(lambda_=0.0))
        assert result.ok
        assert result.warnings == ("lambda = 0: no dissipation, no steady state",)

    def test_multiple_violations_reported_together(self):
        result = validate(params(omega=-1.0, r=-1.0))
        assert len(result.violations) >= 2

    def test_require_valid_raises_with_all_violations(self):
        with pytest.raises(InvalidParameters, match="omega"):
            require_valid(params(omega=-1.0))


# Parameter sets whose arithmetic overflows, and the call that meets it:
# with numpy-scalar fields each raised a bare RuntimeWarning under
# -W error::RuntimeWarning, where the Python-float set raises an
# OscbathError or solves. (fields, the ones made numpy scalars, call,
# the Python-float outcome)
_NUMPY_SCALAR_CASES = {
    "propagate_near_marginal_at_1e300": (
        dict(omega=0.0908290959170482, epsilon=0.011569918144151769,
             nu=0.008249372466771087, lambda_=0.0,
             temperature=0.08765693311134024, r=0.18),
        ("nu",), lambda p: propagate(initial_squeezed_vacuum(0.18), p, 1e300), OutOfRange),
    # beyond the parameter box: refused before any arithmetic
    "steady_at_large_omega_tiny_lambda": (
        dict(omega=3.5e153, lambda_=1e-200), ("omega", "lambda_"), steady_state,
        InvalidParameters),
    "validate_overflowing_frequencies": (
        dict(omega=1e300, lambda_=1e300, epsilon=0.5), ("omega", "lambda_"),
        require_valid, InvalidParameters),
    "steady_at_huge_lambda": (
        dict(lambda_=8.9e307), ("lambda_",), steady_state, InvalidParameters),
    # inside the box: the marginal coupling's steady state grows like
    # 1/lambda^2 and leaves the float range
    "steady_at_marginal_coupling_tiny_lambda": (
        dict(nu=1.0, lambda_=1e-160), ("nu", "lambda_"), steady_state, OutOfRange),
}


def _call_outcome(call, p):
    """The result's bytes, or the exception's type and message."""
    try:
        result = call(p)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc), str(exc)
    return "ok", None if result is None else np.asarray(result).tobytes()


class TestNumpyScalarParams:
    @pytest.mark.parametrize("case", sorted(_NUMPY_SCALAR_CASES))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_behaves_like_python_floats(self, case):
        fields, as_numpy, call, expected = _NUMPY_SCALAR_CASES[case]
        numpy_fields = {k: np.float64(v) if k in as_numpy else v for k, v in fields.items()}
        want = _call_outcome(call, params(**fields))
        assert want[0] is expected
        assert _call_outcome(call, params(**numpy_fields)) == want

    def test_fields_are_python_floats(self):
        p = SystemParams(np.float64(1.0), np.float32(0.5), np.int64(0), 1, np.float64(0.2),
                         np.float16(1.0))
        assert all(type(getattr(p, f.name)) is float for f in dataclasses.fields(p))
        assert p == SystemParams(1.0, 0.5, 0.0, 1.0, 0.2, 1.0)
        # copies of a preset made with replace are converted too
        for figure in FIGURE_IDS:
            copy = dataclasses.replace(figure_preset(figure).params, nu=np.float64(0.1))
            assert type(copy.nu) is float and copy.nu == 0.1


class TestCouplingBound:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bound_is_exactly_marginal_everywhere(self, sign):
        # one float value decides validity and where the lower normal mode
        # stops oscillating: W-^2 is exactly 0 there and positive inside
        bound = coupling_bound(params(omega=1.3, epsilon=0.4))
        w1, w2 = mode_frequencies(params(omega=1.3, epsilon=0.4))
        assert bound == w1 * w2
        at = params(omega=1.3, epsilon=0.4, nu=sign * bound)
        result = validate(at)
        assert result.ok and result.warnings == ()
        assert _normal_modes(at)[1] == 0.0
        inside = params(omega=1.3, epsilon=0.4,
                        nu=sign * math.nextafter(bound, 0.0))
        assert validate(inside).warnings == ()
        assert _normal_modes(inside)[1] > 0.0
        outside = params(omega=1.3, epsilon=0.4,
                         nu=sign * math.nextafter(bound, math.inf))
        assert not validate(outside).ok


class TestModeFrequencies:
    def test_symmetric_case(self):
        assert mode_frequencies(params(epsilon=0.0)) == (1.0, 1.0)

    def test_asymmetric_case(self):
        w1, w2 = mode_frequencies(params(epsilon=0.5))
        assert w1 == pytest.approx(1.224744871391589, abs=1e-12)
        assert w2 == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_frequency_scaling(self):
        assert mode_frequencies(params(omega=2.0)) == (2.0, 2.0)

    def test_sum_and_product_identities(self):
        for eps in np.linspace(0.0, 0.99, 23):
            for omega in (0.5, 1.0, 1.7):
                w1, w2 = mode_frequencies(params(omega=omega, epsilon=eps))
                assert w1 >= w2 > 0
                assert w1 ** 2 + w2 ** 2 == pytest.approx(2 * omega ** 2, abs=1e-12)
                assert (w1 * w2) ** 2 == pytest.approx(
                    omega ** 4 * (1 - eps ** 2), abs=1e-12
                )

    def test_invalid_input_raises(self):
        with pytest.raises(InvalidParameters):
            mode_frequencies(params(epsilon=1.5))


class TestInitialSqueezedVacuum:
    def test_vacuum_is_identity(self):
        assert np.array_equal(initial_squeezed_vacuum(0.0), np.eye(4))

    def test_entries_at_r_one(self):
        sigma = initial_squeezed_vacuum(1.0)
        ch = math.cosh(2.0)   # 3.7621956910836314
        sh = math.sinh(2.0)   # 3.626860407847019
        assert np.allclose(np.diag(sigma), ch, atol=1e-12)
        assert sigma[0, 2] == pytest.approx(sh, abs=1e-12)
        assert sigma[1, 3] == pytest.approx(-sh, abs=1e-12)
        assert sigma[0, 1] == 0.0 and sigma[0, 3] == 0.0

    def test_negative_squeezing_rejected(self):
        with pytest.raises(InvalidParameters):
            initial_squeezed_vacuum(-0.1)

    def test_squeezing_at_the_float_range_limit(self):
        # cosh(2r) is finite at r = 355 and overflows at r = 356
        assert np.isfinite(initial_squeezed_vacuum(355.0)).all()
        with pytest.raises(OutOfRange, match="squeezing r = 356.0"):
            initial_squeezed_vacuum(356.0)
        # 2r = inf, which cosh takes without an OverflowError
        for r in (1e308, math.inf):
            with pytest.raises(OutOfRange, match=re.escape(f"squeezing r = {r} puts cosh")):
                initial_squeezed_vacuum(r)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.5, 1.0, 1.5, 2.0])
    def test_pure_state_properties(self, r):
        sigma = initial_squeezed_vacuum(r)
        assert np.array_equal(sigma, sigma.T)
        assert abs(np.linalg.det(sigma) - 1.0) < 1e-10
        data = invariants(sigma)
        assert abs(data.nu_minus - 1.0) < 1e-10
        assert abs(data.nu_plus - 1.0) < 1e-10


class TestCheckCovariance:
    FINITE = "covariance matrix entries must be finite"
    SYMMETRIC = "covariance matrix must be symmetric within 1e-12"

    def test_returns_a_fresh_float_copy(self):
        sigma = initial_squeezed_vacuum(1.0)
        out = check_covariance(sigma)
        assert out is not sigma and np.array_equal(out, sigma)
        assert check_covariance(np.eye(4, dtype=int)).dtype == float

    def test_asymmetry_up_to_the_tolerance_is_accepted(self):
        sigma = np.eye(4)
        sigma[0, 2] = 1e-12
        check_covariance(sigma)
        sigma[0, 2] = 2e-12
        with pytest.raises(ValueError, match=self.SYMMETRIC):
            check_covariance(sigma)

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 4x4"):
            check_covariance(np.eye(3))

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_diagonal(self, entry):
        # inf - inf on the diagonal: NaN asymmetry, and no RuntimeWarning
        sigma = np.eye(4)
        sigma[1, 1] = entry
        with pytest.raises(ValueError, match=self.FINITE):
            check_covariance(sigma)

    @pytest.mark.parametrize("entry", [math.inf, math.nan])
    def test_non_finite_symmetric_pair(self, entry):
        sigma = np.eye(4)
        sigma[0, 3] = sigma[3, 0] = entry
        with pytest.raises(ValueError, match=self.FINITE):
            check_covariance(sigma)

    def test_nan_off_the_diagonal(self):
        sigma = np.eye(4)
        sigma[2, 1] = math.nan
        with pytest.raises(ValueError, match=self.FINITE):
            check_covariance(sigma)

    def test_non_finite_is_reported_before_asymmetric(self):
        sigma = np.eye(4)
        sigma[0, 1] = 0.5  # asymmetric by 0.5
        sigma[3, 3] = math.inf
        with pytest.raises(ValueError, match=self.FINITE):
            check_covariance(sigma)


def numpy_check_covariance(sigma):
    """The same decision made with whole-array numpy operations, as an
    oracle for the Python-float one: a non-finite entry makes its
    asymmetry inf or NaN, so one max-abs pass rejects it too."""
    arr = np.array(sigma, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4 (got shape {arr.shape})")
    with np.errstate(invalid="ignore", over="ignore"):
        asym = np.abs(arr - arr.T).max()
    if not asym <= 1e-12:
        if not np.isfinite(arr).all():
            raise ValueError("covariance matrix entries must be finite")
        raise ValueError(f"covariance matrix must be symmetric within 1e-12 "
                         f"(max asymmetry {asym:g})")
    return arr


def outcome(check, sigma):
    try:
        return "accepted", check(sigma).tobytes()
    except ValueError as exc:
        return "rejected", str(exc)


def with_entries(*entries):
    sigma = np.eye(4)
    for i, j, value in entries:
        sigma[i, j] = value
    return sigma


PARITY_CASES = {
    **{f"{value}_at_{i}{j}": with_entries((i, j, value))
       for value in (math.nan, math.inf, -math.inf) for i, j in ((0, 0), (2, 2), (1, 3), (3, 1))},
    **{f"{value}_pair_{i}{j}": with_entries((i, j, value), (j, i, value))
       for value in (math.nan, math.inf, -math.inf) for i, j in ((0, 1), (2, 3))},
    "nan_after_asymmetry": with_entries((0, 1, 0.5), (2, 3, math.nan)),
    "asymmetry_1e-12": with_entries((0, 2, 1e-12)),
    "asymmetry_above_1e-12": with_entries((0, 2, math.nextafter(1e-12, math.inf))),
    "asymmetry_below_1e-12": with_entries((3, 1, -math.nextafter(1e-12, 0.0))),
    "overflowing_asymmetry": with_entries((0, 3, 1.5e308), (3, 0, -1.5e308)),
    "shape_3x3": np.eye(3),
    "shape_4x4x1": np.eye(4)[..., None],
    "int_dtype": np.eye(4, dtype=int) * 3,
    "nested_lists": initial_squeezed_vacuum(0.7).tolist(),
    "nested_list_asymmetric": [[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "signed_zeros": with_entries((0, 1, -0.0), (1, 0, 0.0)),
}


class TestCheckCovarianceParity:
    """The Python-float check accepts and rejects what the numpy one does,
    with the same messages, and returns the same array."""

    @pytest.mark.parametrize("name", PARITY_CASES)
    def test_edge_cases(self, name):
        sigma = PARITY_CASES[name]
        assert outcome(check_covariance, sigma) == outcome(numpy_check_covariance, sigma)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats() | st.sampled_from([0.0, 1e-12, 2e-12, 1.0]),
                    min_size=16, max_size=16),
           st.floats(0.0, 1.0))
    def test_random_matrices(self, entries, symmetric_share):
        # a share of the pairs made symmetric, so both branches are reached
        sigma = np.array(entries).reshape(4, 4)
        pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        for i, j in pairs[:round(symmetric_share * len(pairs))]:
            sigma[j, i] = sigma[i, j]
        assert outcome(check_covariance, sigma) == outcome(numpy_check_covariance, sigma)
