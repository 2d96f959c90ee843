import math
import sys

import numpy as np
import pytest

from oscbath import (
    InvalidParameters,
    OscbathError,
    OutOfRange,
    SteadyStateUnavailable,
    SystemParams,
    build_diffusion,
    build_drift,
    coupling_bound,
    full_report,
    initial_squeezed_vacuum,
    invariants,
    mat_exp,
    mode_frequencies,
    ode_oracle,
    propagate,
    steady_state,
    thermal_coth,
    validate,
)
from oscbath.dynamics import _drift, _kron_sum, _lyapunov_terms, _mode_block
from oscbath.sweep import (
    FIGURE_IDS, TimeGrid, evolve_trajectory, figure_preset, sweep_parameter,
)
from helpers import (
    FIG1A, FIG2A, FIG4, chained_ode_oracle, kron_steady_state, mpmath_steady_state,
    random_physical_cov, random_valid_params, rk4_reference, scipy_steady_state, swap_modes,
)
from hypothesis import assume, given, settings, strategies as st

import dataclasses


def taylor_expm(a, terms=60):
    # brute-force series oracle, independent of the production path
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def rk4_sets():
    # two stable sets and the two marginal kinds, lambda = 0 and |nu| = w1 w2
    w1, w2 = mode_frequencies(FIG4)
    return {
        "fig1a": FIG1A,
        "stable": FIG4,
        "lambda0": dataclasses.replace(FIG1A, lambda_=0.0, r=2.0),
        "marginal_nu": dataclasses.replace(FIG4, nu=-w1 * w2),
    }


def decoupled_steady(params):
    # each uncoupled damped mode relaxes to diag(c/w, c*w), c = coth(w/2T)
    w1, w2 = mode_frequencies(params)
    c1 = thermal_coth(w1, params.temperature)
    c2 = thermal_coth(w2, params.temperature)
    return np.diag([c1 / w1, c1 * w1, c2 / w2, c2 * w2])


class TestThermalCoth:
    def test_zero_temperature(self):
        assert thermal_coth(1.0, 0.0) == 1.0

    def test_frozen_value(self):
        assert thermal_coth(1.0, 0.2) == pytest.approx(
            1.0135673098126083, rel=1e-14
        )

    def test_high_temperature_expansion(self):
        # coth(x) ~ 1/x + x/3 for small x; here x = 1/200
        assert thermal_coth(1.0, 100.0) == pytest.approx(
            200.0016666638889, rel=1e-12
        )

    def test_large_argument_no_overflow(self):
        assert thermal_coth(1.0, 1e-300) == 1.0
        assert thermal_coth(1000.0, 1e-3) == 1.0

    def test_always_at_least_one(self):
        for temp in (0.0, 0.01, 0.5, 3.0, 50.0):
            for w in (0.3, 1.0, 2.5):
                assert thermal_coth(w, temp) >= 1.0

    def test_beyond_float_range_raises_out_of_range(self):
        # about 2T/omega: 2e307 is finite, 2e308 is not; at omega/T = 0 the
        # value is infinite too
        assert thermal_coth(1.0, 1e307) == pytest.approx(2e307, rel=1e-12)
        for omega, temperature in ((1.0, 1e308), (5e-324, 10.0)):
            with pytest.raises(OutOfRange, match="coth.*beyond the float range"):
                thermal_coth(omega, temperature)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            thermal_coth(0.0, 1.0)
        with pytest.raises(ValueError):
            thermal_coth(1.0, -1.0)


class TestBuildDrift:
    def test_caption_values(self):
        expected = np.array(
            [
                [-0.6, 1.0, 0.0, 0.0],
                [-1.0, -0.6, -0.8, 0.0],
                [0.0, 0.0, -0.6, 1.0],
                [-0.8, 0.0, -1.0, -0.6],
            ]
        )
        assert np.array_equal(build_drift(FIG1A), expected)

    def test_free_oscillators(self):
        params = dataclasses.replace(FIG1A, nu=0.0, lambda_=0.0)
        expected = np.array(
            [
                [0.0, 1.0, 0.0, 0.0],
                [-1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )
        assert np.array_equal(build_drift(params), expected)

    def test_eigenvalue_real_parts(self):
        # damping shifts the purely oscillatory spectrum by exactly -lambda
        eigs = np.linalg.eigvals(build_drift(FIG1A))
        assert np.allclose(eigs.real, -0.6, atol=1e-9)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParameters):
            build_drift(dataclasses.replace(FIG1A, nu=5.0))


class TestBuildDiffusion:
    def test_zero_temperature(self):
        params = dataclasses.replace(FIG1A, temperature=0.0)
        assert np.array_equal(build_diffusion(params), 0.6 * np.ones(4))

    def test_thermal_value(self):
        d = build_diffusion(FIG1A)
        assert np.allclose(d, 0.608140385887565, rtol=1e-13)

    def test_asymmetric_zero_temperature(self):
        params = dataclasses.replace(FIG1A, epsilon=0.5, temperature=0.0)
        w1, w2 = math.sqrt(1.5), math.sqrt(0.5)
        expected = np.array([0.6 / w1, 0.6 * w1, 0.6 / w2, 0.6 * w2])
        assert np.allclose(build_diffusion(params), expected, rtol=1e-14)

    def test_zero_dissipation_gives_zero(self):
        params = dataclasses.replace(FIG1A, lambda_=0.0)
        assert np.array_equal(build_diffusion(params), np.zeros(4))


class TestMatExp:
    def test_time_zero_is_identity(self):
        assert np.array_equal(mat_exp(build_drift(FIG1A), 0.0), np.eye(4))

    def test_quarter_turn_rotation(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1.0, -1.0
        e = mat_exp(m, math.pi / 2)
        expected = np.eye(4)
        expected[0, 0] = expected[1, 1] = 0.0
        expected[0, 1], expected[1, 0] = 1.0, -1.0
        assert np.allclose(e, expected, atol=1e-14)

    def test_against_taylor_oracle(self):
        m = build_drift(FIG1A)
        assert np.abs(mat_exp(m, 1.0) - taylor_expm(m * 1.0)).max() < 1e-10

    def test_large_time_uses_scaling(self):
        # ||M t||_1 ~ 80 forces several squarings; check against the
        # semigroup property e^{Mt} = (e^{M t/16})^16 evaluated unscaled
        m = build_drift(FIG1A)
        small = mat_exp(m, 2.0)
        big = mat_exp(m, 32.0)
        acc = np.eye(4)
        for _ in range(16):
            acc = acc @ small
        assert np.abs(big - acc).max() < 1e-12

    def test_against_scipy_expm_on_every_preset_drift(self):
        expm = pytest.importorskip("scipy.linalg").expm
        times = np.linspace(0.0, 20.0, 41)
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for value in preset.values:
                m = build_drift(
                    dataclasses.replace(preset.params, **{preset.sweep: value}))
                for t in times:
                    ref = expm(m * t)
                    err = np.abs(mat_exp(m, t) - ref).max()
                    assert err <= 1e-11 * np.abs(ref).max()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)), 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        m = build_drift(FIG1A)
        with pytest.raises(ValueError, match="time must be finite"):
            mat_exp(m, t)


def scan_box_params(rng):
    # a parameter set and a time from the accepted box, a quarter of the
    # couplings within 10% of the stability bound (down to 1e-4)
    omega = rng.uniform(0.5, 2.0)
    epsilon = rng.uniform(0.0, 0.9)
    if rng.random() < 0.25:
        share = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0)
    else:
        share = rng.uniform(0.0, 0.95)
    bound = omega * omega * math.sqrt(1.0 - epsilon) * math.sqrt(1.0 + epsilon)
    params = SystemParams(
        omega=omega, epsilon=epsilon, nu=rng.choice([-1.0, 1.0]) * share * bound,
        lambda_=10.0 ** rng.uniform(-2.0, math.log10(2.0)),
        temperature=0.0, r=0.0,
    )
    return params, rng.uniform(0.0, 10.0)


def closed_form(e, sigma0, s_inf):
    # e (sigma0 - sigma_inf) e^T + sigma_inf for an oracle's e = e^{Mt}
    return e @ (sigma0 - s_inf) @ e.T + s_inf


def steady_or_zero(params):
    # the library's sigma_inf, or 0 at lambda = 0, where there is no
    # diffusion and sigma(t) is e^{Mt} sigma0 e^{M^T t}
    return steady_state(params) if params.lambda_ else np.zeros((4, 4))


def marginal_sets():
    # |nu| = w1 w2 exactly, so W- = 0, with and without damping
    sets = []
    for sign in (1.0, -1.0):
        for epsilon in (0.0, 0.5):
            for lam in (0.0, 0.6):
                params = dataclasses.replace(FIG4, epsilon=epsilon, lambda_=lam)
                sets.append(dataclasses.replace(params, nu=sign * coupling_bound(params)))
    return sets


def mpmath_closed_form(params, t, sigma0):
    # the closed form in 40 digits, around the library's sigma_inf
    mpmath = pytest.importorskip("mpmath")
    s_inf = steady_or_zero(params).tolist()
    with mpmath.workdps(40):
        e = mpmath.expm(mpmath.matrix(_drift(params).tolist()) * mpmath.mpf(t))
        delta = mpmath.matrix(sigma0.tolist()) - mpmath.matrix(s_inf)
        s = e * delta * e.T + mpmath.matrix(s_inf)
        return np.array(s.tolist(), dtype=float)


def preset_drift_params():
    # one parameter set per distinct drift matrix among the figure presets
    sets = {}
    for fid in FIGURE_IDS:
        preset = figure_preset(fid)
        for value in preset.values:
            params = dataclasses.replace(preset.params, **{preset.sweep: value})
            sets.setdefault(_drift(params).tobytes(), params)
    return list(sets.values())


class TestPropagator:
    """propagate, which builds sigma(t) in the normal modes with no e^{Mt},
    against e^{Mt} (sigma0 - sigma_inf) e^{M^T t} + sigma_inf with e^{Mt}
    from a 40-digit mpmath expm, scipy's expm and the Pade oracle mat_exp,
    on a mixed state with every entry nonzero."""

    SIGMA0 = random_physical_cov(np.random.default_rng(31))
    W1, W2 = mode_frequencies(FIG4)
    CASES = [(params, t) for params in preset_drift_params()
             for t in (0.02, 3.7, 10.0)] + [
        (dataclasses.replace(FIG1A, nu=0.0), 3.7),  # equal frequencies
        (dataclasses.replace(FIG4, nu=-0.6), 3.7),
        (dataclasses.replace(FIG4, nu=-0.6, lambda_=2.0), 50.0),
        (dataclasses.replace(FIG4, nu=(1.0 - 1e-4) * W1 * W2), 3.7),
        (dataclasses.replace(FIG4, nu=-(1.0 - 1e-4) * W1 * W2), 10.0),
    ]

    @pytest.mark.parametrize("params, t", CASES)
    def test_against_mpmath(self, params, t):
        ref = mpmath_closed_form(params, t, self.SIGMA0)
        err = np.abs(propagate(self.SIGMA0, params, t) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max()

    def test_against_scipy_expm(self):
        expm = pytest.importorskip("scipy.linalg").expm
        for params, t in self.CASES:
            ref = closed_form(expm(_drift(params) * t), self.SIGMA0, steady_state(params))
            err = np.abs(propagate(self.SIGMA0, params, t) - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (params, t)

    def test_against_mat_exp_on_scan_box(self):
        rng = np.random.default_rng(2026)
        for _ in range(500):
            params, t = scan_box_params(rng)
            ref = closed_form(mat_exp(_drift(params), t), self.SIGMA0, steady_state(params))
            err = np.abs(propagate(self.SIGMA0, params, t) - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (params, t)

    @pytest.mark.parametrize(
        "base", [FIG1A, FIG4, dataclasses.replace(FIG4, omega=1.7, epsilon=0.3)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_coupling_below_the_bound(self, base, sign):
        # W-^2 from (b - |nu|)/W+^2 (b + |nu|) stays positive whenever the
        # steady state exists; w1^2 + w2^2 - hypot would cancel to 0 here
        bound = coupling_bound(base)
        params = dataclasses.replace(base, nu=sign * math.nextafter(bound, 0.0))
        ref = closed_form(mat_exp(_drift(params), 3.7), self.SIGMA0, steady_state(params))
        err = np.abs(propagate(self.SIGMA0, params, 3.7) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("params", [
        dataclasses.replace(FIG1A, lambda_=0.0),
        dataclasses.replace(FIG4, lambda_=0.0, temperature=0.0),
        dataclasses.replace(FIG1A, lambda_=0.0, nu=0.0),
    ])
    @pytest.mark.parametrize("t", [0.02, 3.7, 10.0])
    def test_lambda0_against_mpmath(self, params, t):
        # no steady state: sigma(t) = E sigma0 E^T with the rotation's modes
        # and all-zero sigma_inf blocks
        ref = mpmath_closed_form(params, t, self.SIGMA0)
        err = np.abs(propagate(self.SIGMA0, params, t) - ref).max()
        assert err <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("params", marginal_sets())
    def test_marginal_coupling_against_oracles(self, params):
        # W- = 0: the lower mode moves freely, sin(W t)/W -> t
        times = np.linspace(0.0, 10.0, 6)
        stack = propagate(self.SIGMA0, params, times)
        rk4 = chained_ode_oracle(self.SIGMA0, params, times, 1e-3)
        assert np.abs(stack - rk4).max() <= 1e-7 * np.abs(rk4).max()
        for s, t in zip(stack, times.tolist()):
            ref = closed_form(mat_exp(_drift(params), t), self.SIGMA0, steady_or_zero(params))
            assert np.abs(s - ref).max() <= 1e-13 * np.abs(ref).max(), t

    @pytest.mark.parametrize(
        "params", [dataclasses.replace(FIG1A, lambda_=0.0)] + marginal_sets()[::2])
    def test_lambda0_time_array_matches_scalar_calls(self, params):
        times = np.linspace(0.0, 200.0, 801)
        sigma0 = initial_squeezed_vacuum(params.r)
        stack = propagate(sigma0, params, times)
        for t, s in zip(times.tolist(), stack):
            assert bits(s) == bits(propagate(sigma0, params, t))
        # nothing damps: the W+ phase overflows at 1.7e308, and at W- = 0
        # the growth in t^2 leaves the float range already at 1e300
        huge = 1e300 if abs(params.nu) == coupling_bound(params) else 1.7e308
        for t in (huge, np.array([0.0, huge])):
            with pytest.raises(OutOfRange, match="propagated covariance left the float range"):
                propagate(sigma0, params, t)

    @pytest.mark.parametrize(
        "params", [FIG1A, FIG4, dataclasses.replace(FIG1A, nu=0.0)])
    def test_time_zero_is_identity(self, params):
        # sigma(0) is sigma0 exactly, as its symmetric part
        sigma0 = self.SIGMA0.copy()
        assert np.array_equal(propagate(sigma0, params, 0.0), sigma0)
        assert np.array_equal(propagate(sigma0, params, np.zeros(3)),
                              np.broadcast_to(sigma0, (3, 4, 4)))
        sigma0[0, 1] += 5e-13
        assert np.array_equal(propagate(sigma0, params, 0.0), 0.5 * sigma0 + 0.5 * sigma0.T)

    @pytest.mark.parametrize(
        "params", [FIG1A, FIG4, dataclasses.replace(FIG4, nu=-0.6), *marginal_sets()[1::2]])
    def test_time_array_matches_scalar_calls(self, params):
        times = np.concatenate((np.linspace(0.0, 200.0, 801), [1e300, 1.7e308]))
        stack = propagate(self.SIGMA0, params, times)
        assert stack.shape == (803, 4, 4)
        for t, s in zip(times, stack):
            assert bits(s) == bits(propagate(self.SIGMA0, params, float(t)))
        assert propagate(self.SIGMA0, params, np.array([])).shape == (0, 4, 4)

    @pytest.mark.parametrize("t", [1e300, 1.7e308])
    def test_huge_time_gives_steady_state_exactly(self, t):
        # e^{-lambda t} underflows to 0; no RuntimeWarning (an error in
        # this suite) from the overflowing phase
        sigma0 = initial_squeezed_vacuum(FIG1A.r)
        s_inf = steady_state(FIG1A)
        assert np.array_equal(propagate(sigma0, FIG1A, t), s_inf)
        stack = propagate(sigma0, FIG1A, np.array([0.0, t]))
        assert np.array_equal(stack[1], s_inf)

    def test_underflowing_lower_mode_raises_out_of_range(self):
        # omega1*omega2 is the smallest subnormal, so W-^2 =
        # (b - |nu|)/W+^2 (b + |nu|) = b (b / W+^2) rounds to 0, while
        # lambda^2 keeps the steady state
        params = SystemParams(3e-162, 0.9, 0.0, 0.6, 0.0, 1.0)
        assert coupling_bound(params) == 5e-324
        steady_state(params)
        for t in (1.0, np.array([0.0, 1.0])):
            with pytest.raises(OutOfRange, match="W-\\^2 .* underflows to 0"):
                propagate(np.eye(4), params, t)

    def test_overflowing_phase_without_decay_raises_out_of_range(self):
        # lambda * t = 1 keeps e^{-lambda t} finite while W t overflows, on
        # the scalar and the column route alike
        params = SystemParams(1e10, 0.0, 0.0, 1e-300, 0.0, 0.0)
        for t in (1e300, np.array([0.0, 1e300])):
            with pytest.raises(OutOfRange, match=r"t up to 1e\+300\): the mode phase overflowed"):
                propagate(np.eye(4), params, t)

    @pytest.mark.parametrize("params", [
        FIG1A, FIG2A, dataclasses.replace(FIG1A, nu=-0.8),
        SystemParams(2.0, 0.0, 0.0, 1.0, 0.3, 1.0),
        SystemParams(1.7, 0.0, -2.2, 0.03, 1.3, 0.5),
    ])
    def test_identical_oscillators_stay_swap_symmetric(self, params):
        # at epsilon = 0 the rotation is exactly cc = ss = 1/2, cs = +-1/2,
        # so sigma_inf and sigma(t) of a swap-symmetric sigma0 are exactly
        # symmetric under (x1, p1) <-> (x2, p2); at nu = 0 too, where the
        # identity rotation would leave the cross block's two off-diagonal
        # entries one ulp apart at some times (t = 1.4 here)
        s_inf = steady_state(params)
        assert bits(swap_modes(s_inf)) == bits(s_inf)
        sigma0 = initial_squeezed_vacuum(params.r)
        times = np.linspace(0.0, 12.0, 61)
        stack = propagate(sigma0, params, times)
        for k, t in enumerate(times.tolist()):
            s = propagate(sigma0, params, t)
            assert bits(swap_modes(s)) == bits(s) == bits(stack[k])


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


@pytest.fixture
def solves(monkeypatch):
    """Counts steady-state solves as calls of ``_normal_modes``, one per
    solve (propagate's lambda = 0 route calls it too, without a solve)."""
    import oscbath.dynamics as dynamics
    count = [0]
    inner = dynamics._normal_modes

    def counting(params):
        count[0] += 1
        return inner(params)

    monkeypatch.setattr(dynamics, "_normal_modes", counting)
    return count


@st.composite
def scan_box_problems(draw):
    # scan's parameter box, with the edges drawn on purpose: epsilon = 0,
    # |nu| one float below the bound, and t = 0 or so large that
    # e^{-lambda t} underflows
    omega = draw(st.floats(0.5, 2.0))
    epsilon = draw(st.just(0.0) | st.floats(0.0, 0.9))
    bound = coupling_bound(SystemParams(omega, epsilon, 0.0, 1.0, 0.0, 0.0))
    share = draw(st.floats(0.0, 0.95) | st.floats(-4.0, -1.0).map(lambda e: 1.0 - 10.0 ** e))
    nu = draw(st.sampled_from([1.0, -1.0])) * draw(
        st.just(math.nextafter(bound, 0.0)) | st.just(share * bound))
    params = SystemParams(
        omega, epsilon, nu, draw(st.floats(-2.0, math.log10(2.0)).map(lambda e: 10.0 ** e)),
        draw(st.just(0.0) | st.floats(0.0, 3.0)), draw(st.floats(0.0, 2.0)))
    t = draw(st.sampled_from([0.0, 1e300, 1.7e308]) | st.floats(0.0, 10.0))
    return params, t


class TestPropagatorRoutes:
    """The scalar route (Python floats) and the column route ((N,) arrays)
    of propagate run one formula; every slice equals the scalar call bit
    for bit."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(scan_box_problems())
    def test_scalar_calls_equal_the_grid_slice(self, problem):
        params, t = problem
        times = np.array([0.0, 0.5 * t, t, 3.7])
        sigma0 = initial_squeezed_vacuum(params.r)
        sigmas = propagate(sigma0, params, times)
        for k, tk in enumerate(times.tolist()):
            assert bits(propagate(sigma0, params, tk)) == bits(sigmas[k])
        s_inf = steady_state(params)
        if t == 0.0:
            assert bits(sigmas[2]) == bits(sigma0)
        elif t >= 1e300:
            assert bits(sigmas[2]) == bits(s_inf)
        if params.epsilon == 0.0:  # identical oscillators, swap-symmetric sigma0
            assert bits(swap_modes(s_inf)) == bits(s_inf)
            assert bits(swap_modes(sigmas.T).T) == bits(sigmas)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        omega=st.floats(min_value=5e-324, max_value=1e154),
        epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        share=st.sampled_from([1.0, -1.0]) | st.floats(min_value=-1.0, max_value=1.0),
        lam=st.just(0.0) | st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        temperature=st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        t=st.sampled_from([1e-300, 1.0, 1e300]) | st.floats(min_value=0.0, max_value=1e308),
    )
    def test_accepted_box_gives_a_state_or_an_error(
            self, omega, epsilon, share, lam, temperature, t):
        # every accepted set, lambda = 0 and |nu| = w1 w2 included: finite
        # states, equal on both routes, or an OscbathError on both
        params = SystemParams(omega, epsilon, 0.0, lam, temperature, 0.5)
        assume(validate(params).ok)
        params = dataclasses.replace(params, nu=share * coupling_bound(params))
        sigma0 = initial_squeezed_vacuum(params.r)
        times = np.array([0.0, t, 3.7])
        scalar = []
        for tk in times.tolist():
            try:
                scalar.append(bits(propagate(sigma0, params, tk)))
            except OscbathError:
                scalar.append(None)
        try:
            stack = propagate(sigma0, params, times)
        except OscbathError:
            assert None in scalar
        else:
            assert np.isfinite(stack).all()
            assert scalar == [bits(s) for s in stack]
        try:
            evolve_trajectory(params, TimeGrid(0.0, t or 1.0, 3), "closed")
        except OscbathError:
            pass

    @pytest.mark.parametrize("t", [3, np.float64(3.0), np.array(3.0), np.float32(3.0)])
    def test_every_scalar_type_takes_the_float_route(self, t):
        sigma0 = initial_squeezed_vacuum(FIG4.r)
        s = propagate(sigma0, FIG4, t)
        assert s.shape == (4, 4) and bits(s) == bits(propagate(sigma0, FIG4, 3.0))


class TestSteadyState:
    @pytest.mark.parametrize("temperature", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("epsilon", [0.0, 0.5])
    def test_decoupled_matches_analytic(self, temperature, epsilon):
        params = dataclasses.replace(
            FIG1A, nu=0.0, epsilon=epsilon, temperature=temperature
        )
        s = steady_state(params)
        assert np.abs(s - decoupled_steady(params)).max() <= 1e-10

    def test_residual_bound(self):
        s = steady_state(FIG1A)
        m = build_drift(FIG1A)
        d = np.diag(build_diffusion(FIG1A))
        assert np.abs(m @ s + s @ m.T + 2.0 * d).max() <= 1e-10

    def test_symmetric(self):
        s = steady_state(FIG1A)
        assert np.abs(s - s.T).max() <= 1e-12

    def test_zero_dissipation_rejected(self):
        with pytest.raises(SteadyStateUnavailable):
            steady_state(dataclasses.replace(FIG1A, lambda_=0.0))

    @pytest.mark.parametrize("refused, error", [
        (dataclasses.replace(FIG1A, lambda_=0.0), SteadyStateUnavailable),
        (SystemParams(10.0, 0.0, 0.8, 0.6, 1e308, 1.0), OutOfRange),
    ])
    def test_refused_set_raises_again_and_keeps_the_last_solve(self, solves, refused, error):
        params = dataclasses.replace(FIG1A)
        expected = bits(steady_state(params))
        messages = []
        for _ in range(2):
            with pytest.raises(error) as info:
                steady_state(refused)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        count = solves[0]
        assert bits(steady_state(params)) == expected
        assert bits(propagate(np.eye(4), params, 1e300)) == expected
        assert solves[0] == count

    def test_near_singular_solve_refused_on_every_call(self, monkeypatch):
        # no accepted set is known to miss the residual bound, so a mode
        # block off by a relative 1e-6 stands in for one; a fresh object
        # keeps the last solve from answering
        def perturbed(*args):
            xx, xp, px, pp = _mode_block(*args)
            return xx * (1.0 + 1e-6), xp, px, pp

        monkeypatch.setattr("oscbath.dynamics._mode_block", perturbed)
        params = dataclasses.replace(FIG1A)
        for _ in range(2):
            with pytest.raises(SteadyStateUnavailable, match=(
                    r"^steady-state residual \S+ exceeds \S+ \(system near-singular\)$")):
                steady_state(params)

    def test_signed_zero_coupling_keeps_its_own_bits(self):
        # nu = 0.0 and -0.0 compare and hash equal, yet give zeros of
        # opposite sign, so a solve is reused only for the same object
        plus = SystemParams(1.0, 0.5, 0.0, 0.6, 0.2, 1.0)
        minus = dataclasses.replace(plus, nu=-0.0)
        assert plus == minus and hash(plus) == hash(minus)
        sigma0 = initial_squeezed_vacuum(plus.r)
        first = [bits(steady_state(p)) for p in (plus, minus)]
        assert first[0] != first[1]
        for _ in range(2):
            for params, expected in zip((plus, minus), first):
                assert bits(steady_state(params)) == expected
                assert bits(propagate(sigma0, params, 1e300)) == expected

    @pytest.mark.parametrize("params", marginal_sets()[1::2])
    def test_marginal_coupling_solved(self, params):
        # W- = 0: the lower mode is held by the damping alone
        s = steady_state(params)
        for oracle in (kron_steady_state, scipy_steady_state):
            assert np.abs(s - oracle(params)).max() <= 1e-11 * np.abs(s).max()

    @pytest.mark.parametrize("omega", [3.5e153, 9.5e153, 1.3e154])
    def test_largest_frequencies_solved(self, omega):
        # 8 (W+^2 + W-^2) overflows from omega = 3.4e153 and w1^2 + w2^2
        # from 9.5e153: the blocks are solved in units scaled by a power of
        # two near W+/2^500, so lambda/mu stays representable down to
        # lambda = 1e-300. nu = 0.8 is negligible, so sigma_inf is the local
        # thermal state diag(c/w, c w), up to O(nu / omega^2)
        for lam in (0.6, 1e-200, 1e-300):
            params = SystemParams(omega, 0.0, 0.8, lam, 0.2, 1.0)
            s = steady_state(params)
            exact = decoupled_steady(params)
            scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
            assert (np.abs(s - exact) <= 1e-15 * scale).all(), lam

    def test_residual_terms_match_the_matrix_products(self):
        # the one function behind the residual check: on S with the drift's
        # entries it is the upper triangle of M S + S M^T + 2 D, and on |S|
        # with their magnitudes that of |M| |S| + |S| |M|^T + 2 |D|, each
        # within a few ulp of the magnitude entry. S is symmetric with
        # entries of either sign from 1e-5 to 1e5, so the residual's terms
        # cancel
        rng = np.random.default_rng(4711)
        upper = np.triu_indices(4)
        layout = (0, 0, 1, 2, 2, 3, 0, 0, 1, 1), (0, 1, 1, 2, 3, 3, 2, 3, 2, 3)
        for _ in range(500):
            params = random_valid_params(rng)
            lam = params.lambda_ * 10.0 ** rng.uniform(-3, 3)
            params = dataclasses.replace(params, lambda_=lam)
            s = np.triu(rng.choice([-1.0, 1.0], (4, 4)) * 10.0 ** rng.uniform(-5, 5, (4, 4)))
            s = s + np.triu(s, 1).T
            m, d = build_drift(params), 2.0 * build_diffusion(params)
            w1_sq, w2_sq = (w * w for w in mode_frequencies(params))
            nu = params.nu
            residual = _lyapunov_terms(s[layout], -lam, -2.0 * lam, -w1_sq, -w2_sq, -nu, d)
            bound = _lyapunov_terms(np.abs(s[layout]), lam, 2.0 * lam, w1_sq, w2_sq, abs(nu), d)
            magnitude = (np.abs(m) @ np.abs(s) + np.abs(s) @ np.abs(m).T + np.diag(d))[upper]
            tol = 4 * 2.0 ** -52 * magnitude
            assert (np.abs(residual - (m @ s + s @ m.T + np.diag(d))[upper]) <= tol).all()
            assert (np.abs(bound - magnitude) <= tol).all()

    @pytest.mark.parametrize("params, message", [
        # p = c w = 2 T overflows, so the solve is NaN; the residual test
        # must fail on NaN
        (SystemParams(10.0, 0.0, 0.8, 0.6, 1e308, 1.0), "steady state left the float range"),
        (SystemParams(1.0, 0.0, 0.8, 0.6, 1e308, 1.0), "coth"),
        (SystemParams(1.0, 0.0, 0.0, 1.7976931348623157e308, 0.2, 1.0), "2[*]lambda"),
        # the scaled mode solve's lambda/mu underflows to 0
        (SystemParams(3.5e153, 0.0, 0.8, 5e-324, 0.2, 1.0), "lambda/W underflows to 0"),
        # 2*lambda is finite; the first entry of 2 D that overflows is named
        (SystemParams(1.0, 0.0, 0.8, 8.9e307, 0.2, 1.0),
         r"^steady state left the float range: diffusion entry "
         r"2\*lambda\*coth\(omega1/2T\)/omega1 overflows \(lambda = 8.9e\+307, T = 0.2\)$"),
        (SystemParams(10.0, 0.0, 0.8, 8.9e307, 0.2, 1.0),
         r"diffusion entry 2\*lambda\*coth\(omega1/2T\)\*omega1 overflows"),
        (SystemParams(1.0 / math.sqrt(1.5), 0.5, 0.1, 8.9e307, 0.0, 1.0),
         r"diffusion entry 2\*lambda\*coth\(omega2/2T\)/omega2 overflows"),
        (SystemParams(10.0, 0.0, 0.8, 0.6, 1e308, 1.0),
         r"diffusion entry 2\*lambda\*coth\(omega1/2T\)\*omega1 overflows"),
        # every entry of 2 D is finite, but a mode block overflows: in the
        # scaled solve (mu = 2**1023, q = 2p + (S2 + 4 lambda'^2) mu x), and
        # in the unscaled one (p = 1e308, 2p)
        (SystemParams(1.0, 0.0, 0.8, 8.9e307, 0.1, 1.0),
         r"^steady state left the float range: the normal-mode solve overflows "
         r"\(lambda = 8.9e\+307, W\+\^2 = 1.8\)$"),
        (SystemParams(10.0, 0.0, 0.8, 0.5, 5e307, 1.0),
         r"^steady state left the float range: the normal-mode solve overflows "
         r"\(lambda = 0.5, W\+\^2 = 100.8\)$"),
    ])
    def test_beyond_float_range_raises_out_of_range(self, params, message):
        assert validate(params).ok
        with pytest.raises(OutOfRange, match=message):
            steady_state(params)

    @pytest.mark.parametrize("params", [
        # omega1*omega2 and W+^2 underflow to 0, so nu = 0 is marginal
        SystemParams(5e-324, 0.0, 0.0, 0.6, 0.0, 0.0),
        # W+^2 = (w1^2 + w2^2)/2 + hypot(g, nu) overflows
        SystemParams(1.34e154, 0.0, 1.7e308, 0.6, 0.0, 0.0),
    ])
    @pytest.mark.parametrize("lam", [0.0, 0.6])
    def test_upper_mode_beyond_float_range_raises_out_of_range(self, params, lam):
        params = dataclasses.replace(params, lambda_=lam)
        assert validate(params).ok
        calls = [lambda: propagate(np.eye(4), params, 1.0),
                 lambda: propagate(np.eye(4), params, np.array([0.0, 1.0]))]
        if lam:
            calls.append(lambda: steady_state(params))
        for call in calls:
            with pytest.raises(OutOfRange, match="W\\+\\^2 leaves the float range"):
                call()

    W1, W2 = mode_frequencies(FIG4)
    EDGES = [
        # equal normal frequencies: W+ = W-, so Delta = 0 in the cross block
        dataclasses.replace(FIG1A, nu=0.0, temperature=0.0),
        dataclasses.replace(FIG1A, nu=0.0, lambda_=0.05, temperature=0.7),
        dataclasses.replace(FIG4, nu=(1.0 - 1e-4) * W1 * W2, temperature=0.0),
        dataclasses.replace(FIG4, nu=-(1.0 - 1e-4) * W1 * W2),
    ]

    def test_matches_kronecker_and_scipy_oracles(self):
        rng = np.random.default_rng(2718)
        cases = self.EDGES.copy()
        for _ in range(300):
            params, _ = scan_box_params(rng)
            temperature = 0.0 if rng.random() < 0.1 else rng.uniform(0.0, 3.0)
            cases.append(dataclasses.replace(params, temperature=temperature))
        for params in cases:
            s = steady_state(params)
            for oracle in (kron_steady_state, scipy_steady_state):
                err = np.abs(s - oracle(params)).max()
                assert err <= 1e-11 * np.abs(s).max(), (params, oracle.__name__)

    @pytest.mark.parametrize("lam", [1e-160, 2.1113590913827084e-290, 5e-324])
    def test_vanishing_lambda_gives_the_thermal_limit(self, lam):
        # D and the damping both scale with lambda, so sigma_inf has a finite
        # limit as lambda -> 0+, though lambda^2 underflows here. The oracle
        # is the Kronecker solve in 100 digits at lambda = 1e-40, O(lambda)
        # from the limit.
        params = SystemParams(1.0, 0.5, 0.8, lam, 0.0, 1.0)
        s = steady_state(params)
        ref = mpmath_steady_state(params, 100, "1e-40")
        assert np.abs(s - ref).max() <= 1e-14 * np.abs(ref).max()
        assert full_report(s).physical

    def test_underflowing_lambda_and_lower_mode_raises_out_of_range(self):
        # omega1*omega2 is the smallest subnormal, so W-^2 =
        # (b - |nu|)/W+^2 (b + |nu|) rounds to 0, and lambda^2 = 1e-400 too
        params = SystemParams(3e-162, 0.9, 0.0, 1e-200, 0.0, 0.0)
        with pytest.raises(OutOfRange, match="W-\\^2 \\+ lambda\\^2 underflows to 0"):
            steady_state(params)

    def test_residual_bound_scales_with_the_terms(self):
        # w1^2 s00 = 1e40 * 1e-20 rounds by about 1e4 alone: a bound on |D|
        # only (2e-10 here) refused this state, which the bound on every
        # term's magnitude accepts
        params = SystemParams(1e20, 0.0, 0.0, 1e-20, 0.0, 0.0)
        s = steady_state(params)
        exact = np.diag([1e-20, 1e20, 1e-20, 1e20])
        assert np.array_equal(exact, decoupled_steady(params))
        scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
        assert (np.abs(s - exact) <= 1e-15 * scale).all()
        # the Kronecker LU agrees; scipy's Bartels-Stewart warns that the
        # eigenvalue pairs nearly cancel and returns no solution here
        assert (np.abs(kron_steady_state(params) - exact) <= 1e-15 * scale).all()

    @pytest.mark.parametrize("omega, lam, epsilon, share", [
        (1e-80, 1e-200, 0.0, 0.0),
        (1e-80, 1e-200, 0.5, 0.5),
        (1e-104, 1e-100, 0.3, 0.999),
        (1e-96, 1e-100, 0.0, 0.0),
        (1e-84, 1e-100, 0.0, 0.0),
    ])
    def test_underflowing_det_v_keeps_its_digits(self, omega, lam, epsilon, share):
        # det V = (w1 w2)^2 - nu^2 underflows, and W-^2 = det V / W+^2 was
        # off by 3e-12 to 5e31 (relative) here; (b - |nu|)/W+^2 (b + |nu|)
        # never forms det V, and the solve is within a few ulp of a
        # 700-digit Kronecker solve, entry by entry on the scale
        # sqrt(S_ii S_jj)
        params = SystemParams(omega, epsilon, 0.0, lam, 0.0, 0.0)
        params = dataclasses.replace(params, nu=share * coupling_bound(params))
        ref = mpmath_steady_state(params, 700)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert (np.abs(steady_state(params) - ref) <= 4 * 2.0 ** -52 * scale).all()

    def test_underflowing_det_v_is_kept_where_lambda_dominates(self):
        # det V underflows here too, but lambda^2 = 1 dwarfs W-^2 ~ 1e-240
        params = SystemParams(1e-120, 0.0, 0.0, 1.0, 0.0, 0.0)
        exact = decoupled_steady(params)
        scale = np.sqrt(np.outer(np.diag(exact), np.diag(exact)))
        assert (np.abs(steady_state(params) - exact) <= 1e-15 * scale).all()

    @pytest.mark.parametrize("lam", [1e200, 1e300])
    def test_huge_lambda_keeps_the_local_thermal_state(self, lam):
        # lambda^2 overflows, so the blocks are solved in scaled units; the
        # bath dominates the coupling and sigma_inf tends to the uncoupled
        # diag(c/w, c w) of each oscillator
        params = dataclasses.replace(FIG4, lambda_=lam)
        s = steady_state(params)
        assert np.abs(s - decoupled_steady(params)).max() <= 1e-14

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        omega=st.floats(min_value=5e-324, max_value=1e154),
        epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        share=st.floats(min_value=-1.0, max_value=1.0),
        lam=st.floats(min_value=0.0, max_value=1.7976931348623157e308),
        temperature=st.floats(min_value=0.0, max_value=1.7976931348623157e308),
    )
    def test_accepted_box_gives_a_verified_state_or_an_error(
            self, omega, epsilon, share, lam, temperature):
        params = SystemParams(omega, epsilon, 0.0, lam, temperature, 0.0)
        assume(validate(params).ok)
        params = dataclasses.replace(params, nu=share * coupling_bound(params))
        try:
            s = steady_state(params)
        except OscbathError:
            return
        m = build_drift(params)
        d = np.diag(build_diffusion(params))
        assert np.isfinite(s).all()
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.abs(m @ s + s @ m.T + 2.0 * d).max()
            magnitude = np.abs(m) @ np.abs(s) + np.abs(s) @ np.abs(m).T + 2.0 * d
        # the library's bound, 2**-47 of the largest term magnitude; it forms
        # the same residual in another order of operations
        assert residual <= 2.0 * 2.0 ** -47 * magnitude.max()


class TestPropagate:
    def test_time_zero_returns_initial(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        assert np.abs(propagate(sigma0, FIG1A, 0.0) - sigma0).max() <= 1e-12

    def test_long_time_reaches_steady_state(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        s = propagate(sigma0, FIG1A, 50.0)
        assert np.abs(s - steady_state(FIG1A)).max() <= 1e-10

    def test_exponential_convergence(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        t_end = 40.0 / FIG1A.lambda_
        s = propagate(sigma0, FIG1A, t_end)
        assert np.abs(s - steady_state(FIG1A)).max() <= 1e-8

    def test_symmetry(self):
        s = propagate(initial_squeezed_vacuum(2.0), FIG1A, 1.3)
        assert np.abs(s - s.T).max() <= 1e-12

    def test_marginal_parameters_propagate(self):
        for changes in (dict(lambda_=0.0), dict(nu=1.0)):
            marginal = dataclasses.replace(FIG1A, **changes)
            for t in (1.0, np.linspace(0.0, 1.0, 3)):
                s = propagate(np.eye(4), marginal, t)
                rk4 = chained_ode_oracle(np.eye(4), marginal, np.atleast_1d(t), 1e-3)
                assert np.abs(s - rk4).max() <= 1e-7

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate(np.eye(4), FIG1A, -1.0)
        with pytest.raises(ValueError, match=">= 0"):
            propagate(np.eye(4), FIG1A, np.array([0.0, 1.0, -0.5, 2.0]))

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            propagate(np.eye(4), FIG1A, t)
        with pytest.raises(ValueError, match="finite values >= 0"):
            propagate(np.eye(4), FIG1A, [0.0, t])

    def test_entries_near_the_float_maximum_stay_finite(self):
        # r = 355 puts entries near 1.1e308, where sigma + sigma^T overflows;
        # the suite turns the RuntimeWarning of any overflow into an error
        sigma0 = initial_squeezed_vacuum(355.0)
        stack = propagate(sigma0, FIG1A, np.linspace(0.0, 10.0, 11))
        assert np.isfinite(stack).all()
        assert np.array_equal(stack, stack.swapaxes(1, 2))
        assert np.array_equal(stack[0], sigma0)

    def test_result_beyond_float_range_raises_out_of_range(self):
        # sin(Wt)/W > 1 for W < 1 moves the position entries past the maximum
        params = SystemParams(0.5, 0.0, 0.1, 1e-3, 0.2, 1.0)
        for t in (1.0, np.array([0.0, 1.0, 2.0])):
            with pytest.raises(OutOfRange, match="propagated covariance left the float range"):
                propagate(1.5e308 * np.eye(4), params, t)

    def test_physicality_preserved(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        for t in np.linspace(0.0, 20.0, 11):
            data = invariants(propagate(sigma0, FIG1A, float(t)))
            assert data.nu_minus >= 1.0 - 1e-8

    def test_time_array_matches_scalar_calls(self):
        sigma0 = initial_squeezed_vacuum(2.0)
        times = np.linspace(0.0, 12.0, 7)
        stack = propagate(sigma0, FIG1A, times)
        assert stack.shape == (7, 4, 4)
        for t, s in zip(times, stack):
            assert np.array_equal(s, propagate(sigma0, FIG1A, float(t)))

    def test_reused_solve_gives_the_same_bits(self):
        # one object solves once for all its calls; an equal new object per
        # call solves every time
        sigma0 = initial_squeezed_vacuum(FIG4.r)
        times = np.array([0.0, 0.7, 3.1, 1e300])

        def outputs(params):
            return [bits(steady_state(params())),
                    *(bits(propagate(sigma0, params(), t)) for t in (1.3, 1e300, times))]

        shared = dataclasses.replace(FIG4)
        reused = outputs(lambda: shared)
        assert reused == outputs(lambda: dataclasses.replace(FIG4))
        # sigma_inf exactly where e^{-lambda t} underflows, last row included
        assert reused[2] == reused[0] == reused[3][-128:]

    def test_writing_into_the_steady_state_changes_no_later_result(self):
        params = dataclasses.replace(FIG1A)
        s = steady_state(params)
        expected = bits(s)
        s[:] = 7.0
        assert bits(steady_state(params)) == expected
        assert bits(propagate(np.eye(4), params, 1e300)) == expected
        assert bits(propagate(np.eye(4), params, np.array([1e300]))) == expected


class TestOdeOracle:
    def test_time_zero_returns_initial(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        assert np.array_equal(ode_oracle(sigma0, FIG1A, 0.0), sigma0)
        # asymmetric within check_covariance's 1e-12 tolerance: the result
        # is exactly symmetric, as at every t > 0
        sigma0[0, 1] += 5e-13
        s = ode_oracle(sigma0, FIG1A, 0.0)
        assert np.array_equal(s, 0.5 * sigma0 + 0.5 * sigma0.T)
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("params, message", [
        (SystemParams(1e-300, 0.0, 0.0, 0.6, 1e10, 1.0), "coth"),
        (dataclasses.replace(FIG1A, lambda_=1e308), "2\\*lambda"),
    ])
    def test_time_zero_out_of_range_like_any_grid(self, params, message):
        # t = 0 builds the same drift and diffusion as every grid
        for t in (0.0, 1.0):
            with pytest.raises(OutOfRange, match=message):
                ode_oracle(np.eye(4), params, t)

    def test_matches_closed_form_at_unit_time(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        diff = propagate(sigma0, FIG1A, 1.0) - ode_oracle(sigma0, FIG1A, 1.0, 1e-4)
        assert np.abs(diff).max() <= 1e-8

    def test_cross_method_grid(self):
        # chained integration keeps this fast; dt = 1e-3 is already far
        # below the 1e-7 agreement bound
        sigma0 = initial_squeezed_vacuum(1.0)
        s_rk = sigma0
        t_prev = 0.0
        for t in (0.5, 2.0, 5.0, 10.0, 20.0):
            s_rk = ode_oracle(s_rk, FIG1A, t - t_prev, 1e-3)
            s_cl = propagate(sigma0, FIG1A, t)
            assert np.abs(s_cl - s_rk).max() <= 1e-7
            t_prev = t

    @pytest.mark.parametrize("nu", [0.0, 0.8])
    def test_purity_conserved_without_dissipation(self, nu):
        params = dataclasses.replace(FIG1A, lambda_=0.0, nu=nu)
        sigma0 = initial_squeezed_vacuum(1.0)
        mu0 = full_report(sigma0).purity
        s = ode_oracle(sigma0, params, 10.0, 1e-3)
        assert abs(full_report(s).purity - mu0) <= 1e-9

    def test_marginal_coupling_supported(self):
        params = dataclasses.replace(FIG1A, nu=1.0)
        s = ode_oracle(initial_squeezed_vacuum(0.5), params, 2.0, 1e-3)
        assert np.abs(s - s.T).max() <= 1e-12
        assert invariants(s).nu_minus >= 1.0 - 1e-8

    def test_remainder_step(self):
        # t not an integer multiple of dt exercises the final short step
        sigma0 = initial_squeezed_vacuum(1.0)
        s = ode_oracle(sigma0, FIG1A, 0.345, 0.01)
        assert np.abs(s - propagate(sigma0, FIG1A, 0.345)).max() <= 1e-6

    def test_bad_dt_rejected(self):
        for t in (0.0, 1.0):
            for dt in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="dt must be finite and > 0"):
                    ode_oracle(np.eye(4), FIG1A, t, dt)

    def test_step_longer_than_t_is_one_step_of_t(self):
        # the step is min(dt, t), the rule of every evolve_trajectory interval
        sigma0 = initial_squeezed_vacuum(1.0)
        assert np.array_equal(ode_oracle(sigma0, FIG1A, 0.5, 2.0),
                              ode_oracle(sigma0, FIG1A, 0.5, 0.5))

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            ode_oracle(np.eye(4), FIG1A, t)

    @pytest.mark.parametrize("dt", [1e299, 2e299])
    def test_overflow_raises_out_of_range(self, dt):
        # a step far beyond the stability limit overflows; the suite turns
        # any RuntimeWarning into an error, so none may escape either
        with pytest.raises(OutOfRange, match="left the float range"):
            ode_oracle(initial_squeezed_vacuum(1.0), FIG1A, 1e300, dt)

    def test_step_count_beyond_float_range_raises_before_any_map(self, monkeypatch):
        import oscbath.dynamics as dynamics

        def fail(*args):
            raise AssertionError("built a step map")

        monkeypatch.setattr(dynamics, "_rk4_map", fail)
        message = r"t/dt beyond the float range \(t=1e\+300, dt=1e-10\)"
        with pytest.raises(OutOfRange, match=message):
            ode_oracle(initial_squeezed_vacuum(1.0), FIG1A, 1e300, dt=1e-10)
        # each interval of this grid is 2e305 long, 2e308 steps of 1e-3
        with pytest.raises(OutOfRange, match="t/dt beyond the float range"):
            evolve_trajectory(FIG1A, TimeGrid(0.0, 1e308, 501), "rk4")


class TestRk4Map:
    @pytest.mark.parametrize("name", ["fig1a", "stable", "lambda0", "marginal_nu"])
    def test_matches_per_step_rk4(self, name):
        params = rk4_sets()[name]
        sigma0 = initial_squeezed_vacuum(params.r)
        # t = 0.345 with dt = 0.01 ends with a remainder step
        for t, dt in ((2.0, 1e-3), (0.345, 0.01)):
            want = rk4_reference(sigma0, params, t, dt)
            got = ode_oracle(sigma0, params, t, dt)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (t, dt)

    @pytest.mark.parametrize("params", [FIG1A, FIG4])
    def test_fourth_order_convergence(self, params):
        # halving dt divides the global error by 2^4; a scheme that drops
        # the (hL)^4/24 term of the step map would only reach 2^3
        sigma0 = initial_squeezed_vacuum(params.r)
        exact = propagate(sigma0, params, 1.0)
        err = [np.abs(ode_oracle(sigma0, params, 1.0, dt) - exact).max()
               for dt in (0.02, 0.01)]
        assert abs(err[0] / err[1] - 16.0) <= 1.5, err

    @pytest.mark.parametrize("name", ["fig1a", "stable", "lambda0", "marginal_nu"])
    def test_results_exactly_symmetric(self, name):
        params = rk4_sets()[name]
        sigma0 = initial_squeezed_vacuum(params.r)
        for t, dt in ((0.345, 0.01), (1.0, 1e-3), (2.5, 0.02)):
            s = ode_oracle(sigma0, params, t, dt)
            assert np.array_equal(s, s.T), (t, dt)


class TestKronSum:
    def test_bit_identical_to_two_krons(self):
        # compared as bytes, so even the signs of zeros must agree
        drifts = [build_drift(figure_preset(fid).params) for fid in FIGURE_IDS]
        drifts.append(np.random.default_rng(5).normal(size=(4, 4)))
        ident = np.eye(4)
        for m in drifts:
            want = np.kron(m, ident) + np.kron(ident, m)
            assert _kron_sum(m).tobytes() == want.tobytes()


class TestRandomParameterGrid:
    def test_lyapunov_residual_on_random_sets(self):
        rng = np.random.default_rng(4242)
        for _ in range(30):
            params = random_valid_params(rng)
            s = steady_state(params)
            m = build_drift(params)
            d = np.diag(build_diffusion(params))
            assert np.abs(m @ s + s @ m.T + 2.0 * d).max() <= 1e-10
            assert invariants(s).nu_minus >= 1.0 - 1e-8
            # strict stability: every eigenvalue real part is exactly -lambda
            assert np.linalg.eigvals(m).real.max() <= -params.lambda_ + 1e-9

    def test_cross_method_on_random_sets(self):
        rng = np.random.default_rng(777)
        for _ in range(3):
            params = random_valid_params(rng)
            sigma0 = initial_squeezed_vacuum(params.r)
            s_rk = sigma0
            t_prev = 0.0
            for t in (0.7, 2.0):
                s_rk = ode_oracle(s_rk, params, t - t_prev, 1e-3)
                assert np.abs(propagate(sigma0, params, t) - s_rk).max() <= 1e-7
                t_prev = t


class TestValidateOnce:
    """Each public call validates its parameters at most twice: the private
    drift and diffusion cores behind it do not re-validate, and propagate
    reuses the steady-state solve steady_state made for the same object, so
    a scan-style call validates and solves once. Each test passes its own
    parameter object, which no earlier solve can have left in that slot."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import oscbath.model as model
        count = [0]
        inner = model.validate

        def counting(params):
            count[0] += 1
            return inner(params)

        # every module of the package that bound validate by name, and
        # oscbath.model, where require_valid looks it up
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "oscbath" and getattr(module, "validate", None) is inner:
                monkeypatch.setattr(module, "validate", counting)
        return count

    def test_scan_style_call(self, calls, solves):
        params = dataclasses.replace(FIG1A)
        s_inf = steady_state(params)
        full_report(s_inf)
        s = propagate(initial_squeezed_vacuum(params.r), params, 1.5)
        full_report(s)
        assert calls[0] == 1 and solves[0] == 1

    @pytest.mark.parametrize("integrator", ["closed", "rk4"])
    def test_evolve_trajectory(self, calls, integrator):
        evolve_trajectory(dataclasses.replace(FIG1A), TimeGrid(0.0, 1.0, 11), integrator)
        assert 1 <= calls[0] <= 2

    def test_sweep_parameter(self, calls):
        # the invalid middle value stops at its first validation
        values = [0.5, -1.0, 1.0]
        outcomes = sweep_parameter(FIG1A, "temperature", values, TimeGrid(0.0, 1.0, 11))
        assert [o.error is None for o in outcomes] == [True, False, True]
        assert 3 <= calls[0] <= 2 * len(values)
