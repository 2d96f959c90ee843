"""The batched trajectory path against the scalar measures, bit for bit."""

import argparse
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oscbath import (
    DEFAULT_GRID,
    FIGURE_IDS,
    NonPhysicalInput,
    OscbathError,
    OutOfRange,
    SystemParams,
    TimeGrid,
    TrajectoryRecord,
    coupling_bound,
    evolve_trajectory,
    figure_preset,
    full_report,
    initial_squeezed_vacuum,
    invariants,
    report_from_data,
    steady_state,
    sweep_parameter,
)
from oscbath.measures import (
    _COLUMN,
    _DD_ERROR,
    _FLOAT,
    _FLOAT_LIMIT,
    _FORM_SIGNS,
    _MINOR_SIGNS,
    _MINORS,
    _OPERANDS,
    _SPLIT,
    _STAGE2_MIN_ROWS,
    _assemble,
    _dd_add,
    _dd_block_invariants,
    _dd_discriminants,
    _dd_form_minors,
    _dd_form_sums,
    _dd_invariants,
    _dd_mul,
    _dd_rad,
    _entries,
    _exact_block_invariants,
    _exact_stack,
    _in_range,
    _invariants_stack,
    _minor_products,
    _report_columns,
    _rint_product,
    _round_test,
    _split,
    _two_prod,
    _two_sum,
)
import oscbath.dynamics
import oscbath.measures
import oscbath.sweep
from oscbath.cli import _trajectory_csv
from helpers import FIG1A, FIG4, INVARIANT_NAMES, cofactor_det, exact_invariants, random_physical_cov, random_symplectic


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


# The stages take a stack as its (16, N) entries and give (k, N) columns;
# these wrappers give them one matrix or an (N, 4, 4) stack and return
# (N, k) rows.
def exact_row(sigma):
    return _exact_block_invariants(sigma.ravel().tolist())


def block_invariants(sigmas):
    entries = _entries(sigmas)
    values, accepted = _dd_block_invariants(entries, _in_range(entries))
    return values.T, accepted.T


def discriminants(sigmas):
    # both discriminants asked for on every row
    entries = _entries(sigmas)
    values, proven = _dd_discriminants(entries, _in_range(entries),
                                       np.ones((2, len(sigmas)), bool))
    return values.T, proven.T


def form_sums(sigmas):
    """The nine sums d, q02, q03, q12, q13, r02, r03, r12, r13 of a stack
    as (9, N) arrays (hi, lo) and E, from both sign sets of _dd_form_sums,
    and its (N,) underflow mask; d, formed by both, is asserted equal."""
    minors = _dd_form_minors(_entries(sigmas))
    ((q_hi, q_lo), q_err, q_safe), ((r_hi, r_lo), r_err, r_safe) = (
        _dd_form_sums(minors, sign) for sign in _FORM_SIGNS)
    for q, r in ((q_hi, r_hi), (q_lo, r_lo), (q_err, r_err)):
        assert np.array_equal(bits(q[0]), bits(r[0]))
    hi, lo, err = (np.concatenate((q, r[1:])) for q, r in
                   ((q_hi, r_hi), (q_lo, r_lo), (q_err, r_err)))
    return (hi, lo), err, q_safe & r_safe


def rads(sigmas):
    """rad and rad_tilde of a stack from _dd_rad, as (2, N) arrays (hi, lo)
    and error bounds, and the (2, N) underflow mask of their sums."""
    minors = _dd_form_minors(_entries(sigmas))
    with np.errstate(all="ignore"):
        ((hi, lo), err, safe), ((hi_t, lo_t), err_t, safe_t) = (
            _dd_rad(minors, which) for which in (0, 1))
    return ((np.array([hi, hi_t]), np.array([lo, lo_t])), np.array([err, err_t]),
            np.array([safe, safe_t]))


def exact_stack(sigmas):
    return _exact_stack(_entries(sigmas)).T


def invariants_stack(sigmas):
    return _invariants_stack(sigmas).T


def fig1a_stacks():
    preset = figure_preset("fig1a")
    outcomes = sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid)
    return [o.trajectory.sigmas for o in outcomes]


# the sigma stacks behind `evolve`, `evolve --integrator rk4` and
# `evolve --lambda 0 --integrator rk4` (the CLI defaults are FIG1A)
EVOLVE_RUNS = {
    "closed": (FIG1A, "closed"),
    "rk4": (FIG1A, "rk4"),
    "lambda0_rk4": (dataclasses.replace(FIG1A, lambda_=0.0), "rk4"),
}


def evolve_stack(name):
    params, integrator = EVOLVE_RUNS[name]
    return evolve_trajectory(params, DEFAULT_GRID, integrator=integrator).sigmas


def near_pure_stack(count=4000, seed=6):
    """Symplectic transforms of squeezed vacua (r up to 5), each plus a
    positive perturbation of size 1e-16 to 10."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 4, 4))
    for k in range(count):
        s = random_symplectic(rng)
        sigma = s @ initial_squeezed_vacuum(rng.uniform(0.0, 5.0)) @ s.T
        g = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-16.0, 1.0)
        sigma = sigma + g @ g.T
        out[k] = 0.5 * (sigma + sigma.T)
    return out


def wide_range_stack(count=1000, seed=9):
    """Symmetric matrices with entries of random sign and magnitudes from
    1e-20 to 1e20."""
    rng = np.random.default_rng(seed)
    return symmetric(rng.choice([-1.0, 1.0], (count, 10)) * 10.0 ** rng.uniform(-20, 20, (count, 10)))


def exact_invariant_fractions(sigma):
    """The eight invariants of a 4x4 float matrix as exact Fractions, in
    the order of INVARIANT_NAMES: integer cofactor expansions over the
    largest denominator of the entries, as helpers.exact_invariants."""
    pairs = [x.as_integer_ratio() for x in sigma.ravel().tolist()]
    den = max(d for _, d in pairs)
    m = [[num * (den // d) for num, d in pairs[row:row + 4]] for row in range(0, 16, 4)]
    i1, i2, i3 = fraction_minor(m, 0, 0, 1), fraction_minor(m, 2, 2, 3), fraction_minor(m, 0, 2, 3)
    i4 = cofactor_det(m)
    delta, delta_tilde = i1 + i2 + 2 * i3, i1 + i2 - 2 * i3
    values = (i1, i2, i3, i4, delta, delta_tilde,
              delta * delta - 4 * i4, delta_tilde * delta_tilde - 4 * i4)
    return [Fraction(value, den ** degree) for value, degree in zip(values, (2, 2, 2, 4, 2, 2, 4, 4))]


def accepted_against_exact(sigmas):
    """Assert every value the round test accepts is the exact path's, bit
    for bit; return the (N, 8) accepted mask."""
    values, accepted = block_invariants(sigmas)
    exact = np.array([exact_row(s) for s in sigmas]).reshape(-1, 8)
    assert np.array_equal(bits(values)[accepted], bits(exact)[accepted])
    return accepted


class TestRoundTest:
    def test_fig1a_trajectories(self):
        for sigmas in fig1a_stacks():
            accepted = accepted_against_exact(sigmas)
            assert not accepted[0].all()  # t = 0 is a pure state
            assert accepted.all(axis=1).mean() > 0.9

    @pytest.mark.parametrize("name", sorted(EVOLVE_RUNS))
    def test_evolve_stacks(self, name):
        accepted = accepted_against_exact(evolve_stack(name))
        assert not accepted[0].all()
        if name == "lambda0_rk4":
            # the state stays pure: rad needs ~124 bits, beyond double-double,
            # and is left to the sigma Omega sigma stage (TestDiscriminantStage)
            assert not accepted.all(axis=1).any()
        else:
            assert accepted.all(axis=1).mean() > 0.9

    def test_near_pure_random_states(self):
        accepted_against_exact(near_pure_stack())

    @pytest.mark.parametrize("make", [
        lambda: np.concatenate(fig1a_stacks()),
        lambda: evolve_stack("lambda0_rk4"),
        near_pure_stack,
        wide_range_stack,
    ], ids=["fig1a", "lambda0_rk4", "near_pure", "wide_range"])
    def test_values_within_their_bound(self, make):
        # the error analysis in measures.py: every unrounded value is within
        # 29.8 u^2 A of exact, inside the round test's _DD_ERROR A
        bound = Fraction(30, 2 ** 106)
        assert bound <= _DD_ERROR
        sigmas = make()
        (hi, lo), mag = _dd_invariants(_entries(sigmas))
        for k, sigma in enumerate(sigmas):
            for s, value in enumerate(exact_invariant_fractions(sigma)):
                error = abs(Fraction(hi[s, k]) + Fraction(lo[s, k]) - value)
                assert error <= bound * Fraction(mag[s, k]), (k, INVARIANT_NAMES[s])

    def test_vacuum_exact_zeros(self):
        vacuum = np.eye(4)[None].copy()
        vacuum[0, 0, 2] = vacuum[0, 2, 0] = -0.0
        accepted = accepted_against_exact(vacuum)
        # i3 = (-0.0)*1 - 0*0 carries no error and is accepted as +0.0
        assert accepted[0, 2]
        sigmas = evolve_trajectory(dataclasses.replace(FIG1A, r=0.0),
                                   TimeGrid(0.0, 5.0, 51)).sigmas
        accepted_against_exact(sigmas)

    @pytest.mark.parametrize("exponent", [250, -250])
    def test_out_of_range_entries_fall_back(self, exponent):
        sigmas = evolve_stack("closed")[::50] * 2.0 ** exponent
        _, accepted = block_invariants(sigmas)
        assert not accepted.any()
        exact = [exact_row(s) for s in sigmas]
        assert np.array_equal(bits(invariants_stack(sigmas)), bits(exact))


# The double-double kernels as textbook expressions: the lean kernels must
# give the same bits, since they run the same operations in the same order.
def textbook_two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def textbook_split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def textbook_two_prod(a, b):
    p = a * b
    ah, al = textbook_split(a)
    bh, bl = textbook_split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def textbook_dd_add(x, y):
    s, t = textbook_two_sum(x[0], y[0])
    return textbook_two_sum(s, t + (x[1] + y[1]))


def textbook_dd_mul(x, y):
    p, q = textbook_two_prod(x[0], y[0])
    return textbook_two_sum(p, q + (x[0] * y[1] + x[1] * y[0]))


def textbook_round_test(x, mag):
    hi, lo = x
    e = _DD_ERROR * mag
    e = e + (np.abs(lo) + e) * 2.0 ** -50
    low = hi + (lo - e)
    return low + 0.0, low == hi + (lo + e)


SPECIAL_OPERANDS = np.array([0.0, -0.0, 5e-324, -1.0, 1.0, math.inf, -math.inf,
                             math.nan, 1.7976931348623157e308, 2.2250738585072014e-308])


def kernel_operands(count=3000, seed=5):
    """Four (count,) arrays of floats with exponents over the whole range;
    the first 100 entries pair every special operand with every other, as
    (a, b) and as (c, d)."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(-1.0, 1.0, (4, count)), rng.integers(-1080, 1025, (4, count)))
    n = len(SPECIAL_OPERANDS)
    x[0::2, :n * n] = np.repeat(SPECIAL_OPERANDS, n)
    x[1::2, :n * n] = np.tile(SPECIAL_OPERANDS, n)
    return list(x)


class TestLeanKernels:
    """The in-place kernels give the textbook expressions' bits and write
    into no input."""

    @staticmethod
    def check(kernel, textbook, *args):
        before = [bits(a).copy() for a in args]
        with np.errstate(all="ignore"):
            got, want = kernel(*args), textbook(*args)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(bits(g), bits(w))
        for a, b in zip(args, before):
            assert np.array_equal(bits(a), b)

    def test_error_free_transforms(self):
        a, b, c, d = kernel_operands()
        self.check(_two_sum, textbook_two_sum, a, b)
        self.check(_split, textbook_split, a)
        self.check(_two_prod, textbook_two_prod, a, b)
        self.check(_two_prod, textbook_two_prod, a, a)  # one array as both factors
        self.check(_dd_add, textbook_dd_add, (a, b), (c, d))
        self.check(_dd_mul, textbook_dd_mul, (a, b), (c, d))
        self.check(_dd_mul, textbook_dd_mul, (a, b), (a, b))

    def test_round_test(self):
        a, b, c, _ = kernel_operands()
        with np.errstate(all="ignore"):
            hi, lo = textbook_two_sum(a, b)
        before = [bits(x).copy() for x in (hi, lo, c)]
        value, proven = np.empty(len(a)), np.empty(len(a), bool)
        with np.errstate(all="ignore"):
            _round_test((hi, lo), _DD_ERROR * np.abs(c), value, proven)
            want_value, want_proven = textbook_round_test((hi, lo), np.abs(c))
        assert np.array_equal(bits(value), bits(want_value))
        assert np.array_equal(proven, want_proven)
        for x, b in zip((hi, lo, c), before):
            assert np.array_equal(bits(x), b)

    def test_block_invariants_leave_the_stack_unchanged(self):
        # neither the stack nor its entries and range mask, which every
        # stage shares
        sigmas = np.concatenate([near_pure_stack(200), squeezed_vacua()])
        entries = _entries(sigmas)
        in_range = _in_range(entries)
        before = [bits(sigmas).copy(), bits(entries).copy(), in_range.copy()]
        _dd_block_invariants(entries, in_range)
        _dd_discriminants(entries, in_range, np.ones((2, len(sigmas)), bool))
        _exact_stack(entries[:, :20])
        _invariants_stack(sigmas)
        for x, b in zip((sigmas, entries, in_range), before):
            assert np.array_equal(x.view(b.dtype), b)

    def test_concatenated_stack_equals_its_slices(self):
        stacks = [*fig1a_stacks(), evolve_stack("lambda0_rk4"), near_pure_stack()]
        values, accepted = block_invariants(np.concatenate(stacks))
        start = 0
        for sigmas in stacks:
            rows = slice(start, start + len(sigmas))
            want_values, want_accepted = block_invariants(sigmas)
            assert np.array_equal(bits(values[rows]), bits(want_values))
            assert np.array_equal(accepted[rows], want_accepted)
            start = rows.stop
        assert start == len(values)


class TestMinorTable:
    """The one table of Laplace minors whose products both double-double
    stages form."""

    def test_products_sum_to_each_minor(self):
        sigmas = np.concatenate([near_pure_stack(50), wide_range_stack(50), squeezed_vacua()])
        plus, minus = _minor_products(_entries(sigmas), _OPERANDS)
        for k, sigma in enumerate(sigmas):
            m = [[Fraction(x) for x in row] for row in sigma.tolist()]
            for row, ((a, b), (i, j), _) in enumerate(_MINORS):
                assert b == a + 1
                exact = sum(Fraction(part[row, k]) for pair in (plus, minus) for part in pair)
                assert exact == fraction_minor(m, a, i, j), (k, row)

    @pytest.mark.parametrize("kind", ["integer", "dyadic"])
    def test_halves_are_the_laplace_expansion(self, kind):
        for m in fraction_matrices(kind, count=50):
            minors = [fraction_minor(m, a, i, j) for (a, _), (i, j), _ in _MINORS]
            assert (minors[0], minors[6], minors[5]) == (
                fraction_minor(m, 0, 0, 1), fraction_minor(m, 2, 2, 3), fraction_minor(m, 0, 2, 3))
            assert sum(sign * minors[k] * minors[6 + k]
                       for k, sign in enumerate(_MINOR_SIGNS)) == cofactor_det(m)


def exact_outcome(function, sigma):
    """A row's eight invariants as bits, or its OutOfRange as (class, message)."""
    try:
        return bits(function(sigma)).tolist()
    except OutOfRange as error:
        return type(error), str(error)


def assert_exact_passes_match_oracle(sigmas):
    """The scalar exact pass of each row, the stacked exact pass and the
    whole stack path equal the oracle's exact invariants bit for bit; where
    the oracle raises, the scalar pass raises the same class and message,
    and both stacked passes raise the lowest such row's. Returns the number
    of such rows."""
    expected = [exact_outcome(exact_invariants, sigma) for sigma in sigmas]
    assert [exact_outcome(exact_row, sigma) for sigma in sigmas] == expected
    errors = [row for row in expected if isinstance(row, tuple)]
    for stacked in (exact_stack, invariants_stack):
        if errors:
            with pytest.raises(OutOfRange) as info:
                stacked(sigmas)
            assert (type(info.value), str(info.value)) == errors[0]
        else:
            assert bits(stacked(sigmas)).tolist() == expected
    return len(errors)


def symmetric(upper) -> np.ndarray:
    """(..., 4, 4) symmetric matrices from their (..., 10) upper-triangle
    entries, row by row."""
    upper = np.asarray(upper, dtype=float)
    sigma = np.zeros(upper.shape[:-1] + (4, 4))
    rows, cols = np.triu_indices(4)
    sigma[..., cols, rows] = upper
    sigma[..., rows, cols] = upper
    return sigma


# Entries with independent exponents: the whole double range (subnormals,
# +-0.0 and huge values included), integers, and mantissas scaled by 2**e
# for |e| <= 300, which keeps most matrices inside the float range.
ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-300, 300)),
)
STACKS = st.lists(st.lists(ENTRIES, min_size=10, max_size=10),
                  min_size=1, max_size=4).map(symmetric)


def mixed_scale_stack(count=4000, seed=7):
    """Symmetric matrices whose entries have independent exponents in
    [-1100, 250] (subnormals and underflow to zero included), with ~10%
    +-0.0 and ~10% small integers; 2**251 keeps every invariant finite."""
    rng = np.random.default_rng(seed)
    upper = np.ldexp(rng.uniform(-1.0, 1.0, (count, 10)),
                     rng.integers(-1100, 251, (count, 10)))
    kind = rng.uniform(size=(count, 10))
    upper = np.where(kind < 0.05, 0.0, upper)
    upper = np.where((kind >= 0.05) & (kind < 0.1), -0.0, upper)
    upper = np.where(kind > 0.9, rng.integers(-1000, 1000, (count, 10)).astype(float), upper)
    return symmetric(upper)


def with_entries(sigma, entries):
    """A copy of sigma with entries {(i, j): value} set."""
    sigma = np.array(sigma, dtype=float)
    for index, value in entries.items():
        sigma[index] = value
    return sigma


def mixed_state():
    return random_physical_cov(np.random.default_rng(2))


def asymmetric_state():
    """A mixed state with one off-diagonal pair 5e-13 apart, as invariants
    accepts (up to 1e-12)."""
    sigma = mixed_state()
    sigma[1, 0] += 5e-13
    return sigma


# The exact pass scales every entry by 2**k, k = 53 - (frexp exponent of the
# smallest nonzero |x|), and converts entry by entry where that leaves the
# float range: 2**k itself (the subnormal, 1e-300) or an entry times it
# (2**500 beside 2**-480, 2**1023).
EXACT_EDGES = {
    "subnormal_beside_one": lambda: with_entries(np.eye(4), {(0, 1): 5e-324, (1, 0): 5e-324}),
    "subnormal_in_a_state": lambda: with_entries(mixed_state(), {(0, 3): 5e-324, (3, 0): 5e-324}),
    "tiny_beside_huge": lambda: np.diag([1e300, 1e-300, 1e300, 1e-300]),
    "entry_times_scale_overflows": lambda: np.diag([2.0 ** 500, 2.0 ** -480, 1.0, 1.0]),
    # k = 53 and rad beyond the float range
    "largest_power_of_two": lambda: np.diag([2.0 ** 1023, 0.75, 1.0, 1.0]),
    # k = 0: every entry is already an integer
    "largest_power_of_two_everywhere": lambda: np.full((4, 4), 2.0 ** 1023),
    "signed_zeros": lambda: with_entries(1.5 * np.eye(4), {(0, 2): -0.0, (2, 0): -0.0,
                                                           (1, 3): -0.0, (3, 1): 0.0}),
    "all_zero": lambda: np.zeros((4, 4)),
    "asymmetric": asymmetric_state,
}


class TestExactStack:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(STACKS)
    def test_random_full_range_stacks(self, sigmas):
        assert_exact_passes_match_oracle(sigmas)

    def test_seeded_mixed_scale_stack(self):
        sigmas = mixed_scale_stack()
        assert assert_exact_passes_match_oracle(sigmas) == 0
        _, accepted = block_invariants(sigmas)
        assert (~accepted.all(axis=1)).mean() > 0.9  # mostly the exact pass

    def test_lambda0_rk4_rows(self):
        assert assert_exact_passes_match_oracle(evolve_stack("lambda0_rk4")) == 0

    @pytest.mark.parametrize("name", sorted(EXACT_EDGES))
    def test_edges(self, name):
        assert_exact_passes_match_oracle(EXACT_EDGES[name]()[None])

    def test_edges_stacked(self):
        # only the 2**1023 row is beyond the float range, and raises for all
        sigmas = np.stack([make() for make in EXACT_EDGES.values()])
        assert assert_exact_passes_match_oracle(sigmas) == 1

    def test_float_limit_is_the_overflow_threshold(self):
        assert (_FLOAT_LIMIT - 1) / 1 == np.finfo(float).max
        with pytest.raises(OverflowError):
            _FLOAT_LIMIT / 1


def fraction_minor(m, r, i, j):
    """The 2x2 minor of m on rows (r, r + 1) and columns (i, j)."""
    return m[r][i] * m[r + 1][j] - m[r][j] * m[r + 1][i]


FORM_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))


def fraction_sums(m):
    """d = I1 - I2 and q_ij, r_ij = M(01; ij) +- M(23; ij) of a 4x4 matrix,
    in the order of form_sums."""
    return ([fraction_minor(m, 0, 0, 1) - fraction_minor(m, 2, 2, 3)]
            + [fraction_minor(m, 0, *ij) + sign * fraction_minor(m, 2, *ij)
               for sign in (1, -1) for ij in FORM_PAIRS])


def fraction_matrices(kind, count=200, seed=17):
    """Random symmetric 4x4 matrices of Fractions: small integers, or
    integers over powers of two up to 2**60."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        upper = [Fraction(int(v)) for v in rng.integers(-1000, 1001, 10)]
        if kind == "dyadic":
            upper = [v / 2 ** int(k) for v, k in zip(upper, rng.integers(0, 61, 10))]
        m = [[None] * 4 for _ in range(4)]
        for v, (i, j) in zip(upper, zip(*np.triu_indices(4))):
            m[i][j] = m[j][i] = v
        yield m


def squeezed_vacua():
    """The t = 0 states: initial_squeezed_vacuum over r in [0, 5]."""
    return np.array([initial_squeezed_vacuum(r) for r in np.linspace(0.0, 5.0, 101)])


def williamson_stack(gaps, count=2000, seed=3):
    """S diag(nu+, nu+, nu-, nu-) S^T with random symplectic S (squeezing up
    to 2), nu- in [1, 10] and nu+ - nu- cycling through ``gaps``: 0 makes
    S (n I) S^T, pure at n = 1, degenerate and mixed above."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 4, 4))
    for k in range(count):
        s = random_symplectic(rng, max_squeeze=2.0)
        nu = 1.0 if k % 3 == 0 else rng.uniform(1.0, 10.0)
        gap = gaps[k % len(gaps)]
        sigma = s @ np.diag([nu + gap, nu + gap, nu, nu]) @ s.T
        out[k] = 0.5 * (sigma + sigma.T)
    return out


def discriminants_against_exact(sigmas):
    """Assert every discriminant the sigma Omega sigma stage accepts is the
    exact path's, bit for bit; return the (K, 2) accepted mask."""
    values, proven = discriminants(sigmas)
    exact = exact_stack(sigmas)[:, 6:]
    assert np.array_equal(bits(values)[proven], bits(exact)[proven])
    return proven


class TestDiscriminantStage:
    """The second vectorized stage: rad and rad_tilde from the nine sums
    d = I1 - I2, q_ij and r_ij, the entries of sigma Omega sigma and of its
    partial transpose, for the rows the double-double stage leaves open."""

    @pytest.mark.parametrize("kind", ["integer", "dyadic"])
    def test_identities_in_exact_arithmetic(self, kind):
        omega = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]
        for m in fraction_matrices(kind):
            i1, i2, i3 = (fraction_minor(m, 0, 0, 1), fraction_minor(m, 2, 2, 3),
                          fraction_minor(m, 0, 2, 3))
            i4 = cofactor_det(m)
            d, q02, q03, q12, q13, r02, r03, r12, r13 = fraction_sums(m)
            assert (i1 + i2 + 2 * i3) ** 2 - 4 * i4 == d * d + 4 * (q02 * q13 - q03 * q12)
            assert (i1 + i2 - 2 * i3) ** 2 - 4 * i4 == d * d - 4 * (r02 * r13 - r03 * r12)
            # I4 is the Pfaffian identity of sigma Omega sigma
            assert i4 == (i1 + i3) * (i2 + i3) - (q02 * q13 - q03 * q12)
            # q_ij is entry (i, j) of sigma Omega sigma
            form = [[sum(m[i][a] * omega[a][b] * m[b][j] for a in range(4) for b in range(4))
                     for j in range(4)] for i in range(4)]
            assert [form[i][j] for i, j in FORM_PAIRS] == [q02, q03, q12, q13]

    @pytest.mark.parametrize("make,exact", [
        (lambda: symmetric(np.random.default_rng(4).integers(-1000, 1001, (50, 10))), 9),
        (squeezed_vacua, 5),
        (lambda: near_pure_stack(500), 0),
        (lambda: williamson_stack([0.0, 1e-12], count=500), 0),
        (lambda: evolve_stack("lambda0_rk4"), 0),
    ], ids=["integers", "vacua", "near_pure", "williamson", "lambda0_rk4"])
    def test_nine_sums_within_their_bound(self, make, exact):
        sigmas = make()
        (hi, lo), err, safe = form_sums(sigmas)
        assert safe.all()
        for k, sigma in enumerate(sigmas):
            m = [[Fraction(x) for x in row] for row in sigma.tolist()]
            for s, value in enumerate(fraction_sums(m)):
                assert abs(Fraction(hi[s, k]) + Fraction(lo[s, k]) - value) <= Fraction(err[s, k])
        # where no step rounds the bound is zero: every sum of small
        # integers, and d and q at t = 0, whose products cancel exactly
        assert (err[:exact] == 0.0).all()

    @pytest.mark.parametrize("make", [
        lambda: symmetric(np.ldexp(np.random.default_rng(8).integers(-2 ** 40, 2 ** 40, (100, 10)),
                                   -20).astype(float)),
        squeezed_vacua, lambda: near_pure_stack(300),
        lambda: williamson_stack([0.0, 1e-16, 1e-12], count=300),
        lambda: evolve_stack("lambda0_rk4")[::5],
    ], ids=["dyadic", "vacua", "near_pure", "williamson", "lambda0_rk4"])
    def test_discriminants_within_their_bound(self, make):
        sigmas = make()
        (hi, lo), err, safe = rads(sigmas)
        assert safe.all()
        for k, sigma in enumerate(sigmas):
            m = [[Fraction(x) for x in row] for row in sigma.tolist()]
            d, q02, q03, q12, q13, r02, r03, r12, r13 = fraction_sums(m)
            exact = (d * d + 4 * (q02 * q13 - q03 * q12), d * d - 4 * (r02 * r13 - r03 * r12))
            for s, value in enumerate(exact):
                assert abs(Fraction(hi[s, k]) + Fraction(lo[s, k]) - value) <= Fraction(err[s, k])

    @pytest.mark.parametrize("name,make", [
        ("vacua", squeezed_vacua),
        ("degenerate", lambda: williamson_stack([0.0])),
        ("near_degenerate", lambda: williamson_stack([1e-16, 1e-13, 1e-10, 1e-7, 1e-4])),
        ("near_pure", near_pure_stack),
        ("lambda0_rk4", lambda: evolve_stack("lambda0_rk4")),
    ])
    def test_accepted_values_are_exact(self, name, make):
        sigmas = make()
        proven = discriminants_against_exact(sigmas)
        # every row is settled: t = 0 (rad = 0 exactly), S (n I) S^T, where
        # both discriminants vanish, and a whole lambda = 0 trajectory
        assert proven.all(), proven.mean(axis=0)
        assert_exact_passes_match_oracle(sigmas)

    def test_mixed_scale_stack_is_left_to_the_exact_pass(self):
        sigmas = mixed_scale_stack()
        proven = discriminants_against_exact(sigmas)
        assert not proven[~_in_range(_entries(sigmas))].any()

    @settings(max_examples=60, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(0, 2 ** 32 - 1),
           st.one_of(st.just(0.0), st.floats(1e-16, 1e-4)),
           st.floats(1.0, 10.0), st.floats(0.0, 3.0))
    def test_williamson_forms(self, seed, gap, nu, squeeze):
        rng = np.random.default_rng(seed)
        s = random_symplectic(rng, max_squeeze=squeeze)
        sigma = s @ np.diag([nu + gap, nu + gap, nu, nu]) @ s.T
        sigma = 0.5 * (sigma + sigma.T)
        sigmas = np.stack([sigma, np.diag([nu + gap, nu + gap, nu, nu])])
        assert discriminants_against_exact(sigmas)[1].all()  # diagonal: exact

    @pytest.mark.parametrize("exponent", [250, 201, -201, -250])
    def test_out_of_range_entries_are_never_accepted(self, exponent):
        # each row scaled by a power of two that puts its largest entry
        # (exponent > 0) or its smallest nonzero one (exponent < 0) just
        # beyond 2**+-200, or further
        sigmas = np.concatenate([squeezed_vacua(), evolve_stack("lambda0_rk4")[::25]])
        absolute = np.abs(sigmas).reshape(len(sigmas), -1)
        edge = (absolute.max(axis=1) if exponent > 0
                else np.where(absolute > 0.0, absolute, np.inf).min(axis=1))
        shift = exponent - np.frexp(edge)[1] + (exponent > 0)
        sigmas = np.ldexp(sigmas, shift[:, None, None])
        assert not _in_range(_entries(sigmas)).any()
        _, proven = discriminants(sigmas)
        assert not proven.any()
        assert_exact_passes_match_oracle(sigmas)

    def test_sums_that_could_underflow_are_never_accepted(self):
        # entries in range, but d = 2**-380 (1 - (1 + 2**-40)) = -2**-420
        a = 2.0 ** -190
        sigma = np.diag([a, a, a, a * (1.0 + 2.0 ** -40)])
        minors = _dd_form_minors(_entries(sigma[None]))
        for sign in _FORM_SIGNS:  # d is a sum of both sign sets
            (hi, _), _, safe = _dd_form_sums(minors, sign)
            assert hi[0, 0] == -(2.0 ** -420) and not safe[0]
        _, proven = discriminants(sigma[None])
        assert not proven.any()
        # scaled into the safe range, the same matrix is accepted
        assert discriminants_against_exact(sigma[None] * 2.0 ** 100).all()


class TestExactPassRows:
    """The rows that reach the sigma Omega sigma stage and the exact pass,
    counted by spies: a lambda = 0 RK4 trajectory, every row of which the
    double-double stage leaves open, sends all of them to the second stage,
    which forms rad alone, and none to the exact pass; fewer than
    _STAGE2_MIN_ROWS open rows (a stable trajectory's, a figure's) skip the
    second stage for the exact pass, which costs less there. Each measure pass forms the stack's
    entries and their range mask once, for all three stages."""

    @pytest.fixture
    def spied(self, monkeypatch):
        rows = {"entries": [], "in_range": [], "stage2": [], "exact": []}

        def spy(name, stage, size):
            def counted(first, *rest):
                rows[name].append(size(first))
                return stage(first, *rest)
            monkeypatch.setattr(oscbath.measures, stage.__name__, counted)

        def columns(entries):
            return entries.shape[1]

        spy("entries", _entries, len)
        spy("in_range", _in_range, columns)
        spy("stage2", _dd_discriminants, columns)
        spy("exact", _exact_stack, columns)
        return rows

    @pytest.mark.parametrize("omega", [0.5, 0.55, 1.0, 1.5])
    def test_lambda0_rk4(self, omega, spied):
        params = dataclasses.replace(FIG1A, omega=omega, nu=0.8 * omega * omega, lambda_=0.0)
        traj = evolve_trajectory(params, DEFAULT_GRID, "rk4", 1e-3)
        _, accepted = block_invariants(traj.sigmas)
        assert not accepted.all(axis=1).any()
        assert np.abs(traj.report.purity - 1.0).max() < 1e-10
        n = len(DEFAULT_GRID.times())
        assert spied == {"entries": [n], "in_range": [n], "stage2": [n], "exact": []}

    @pytest.mark.parametrize("integrator, rows", [("closed", 1), ("rk4", 2)])
    def test_stable_trajectory(self, integrator, rows, spied):
        # the open rows are t = 0 and, for rk4, its neighbour
        evolve_trajectory(FIG1A, DEFAULT_GRID, integrator)
        n = len(DEFAULT_GRID.times())
        assert spied == {"entries": [n], "in_range": [n], "stage2": [], "exact": [rows]}

    def test_every_figure(self, spied):
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid)
        assert spied["stage2"] == []
        assert len(spied["entries"]) == len(spied["in_range"]) == len(FIGURE_IDS)
        assert len(spied["exact"]) == len(FIGURE_IDS)
        assert all(4 <= rows < _STAGE2_MIN_ROWS for rows in spied["exact"])

    def test_routes_give_the_same_bits(self, monkeypatch):
        # the exact pass in place of the second stage changes no bit
        sigmas = evolve_stack("lambda0_rk4")[:_STAGE2_MIN_ROWS]
        staged = _invariants_stack(sigmas)
        monkeypatch.setattr(oscbath.measures, "_STAGE2_MIN_ROWS", len(sigmas) + 1)
        assert np.array_equal(bits(_invariants_stack(sigmas)), bits(staged))

    @pytest.fixture
    def formed(self, monkeypatch):
        """(discriminant, columns) of each _dd_rad call: 0 is rad, 1 rad_tilde."""
        calls = []

        def counted(minors, which):
            calls.append((int(which), minors[0].shape[1]))
            return _dd_rad(minors, which)
        monkeypatch.setattr(oscbath.measures, "_dd_rad", counted)
        return calls

    @pytest.mark.parametrize("omega", [0.5, 0.55, 1.0, 1.5])
    def test_lambda0_rk4_forms_only_rad(self, omega, spied, formed):
        # stage 1 proves rad_tilde on every row; the second stage forms rad
        # alone and settles all of them
        params = dataclasses.replace(FIG1A, omega=omega, nu=0.8 * omega * omega, lambda_=0.0)
        evolve_trajectory(params, DEFAULT_GRID, "rk4", 1e-3)
        n = len(DEFAULT_GRID.times())
        assert formed == [(0, n)]
        assert spied["stage2"] == [n] and spied["exact"] == []

    def test_degenerate_williamson_forms_both(self, spied, formed):
        # S (n I) S^T: both discriminants vanish and stay open in stage 1
        sigmas = williamson_stack([0.0], count=48)
        _, accepted = block_invariants(sigmas)
        assert not accepted[:, 6:].any()
        staged = accepted[:, :6].all(axis=1).sum()
        assert staged >= _STAGE2_MIN_ROWS
        values = _invariants_stack(sigmas)
        assert formed == [(0, staged), (1, staged)]
        # the second stage settles every row it takes; the rest had other
        # values open
        assert spied["stage2"] == [staged]
        assert sum(spied["exact"]) == len(sigmas) - staged
        assert np.array_equal(bits(values), bits(_exact_stack(_entries(sigmas))))


def assert_same(a, b):
    """Dataclasses equal field for field; floats by their bits."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, float):
            assert bits(x) == bits(y), (field.name, x, y)
        else:
            assert x == y, field.name


def assert_rows_match_scalar(traj, rows=None):
    records = traj.records
    assert len(records) == len(traj.times)
    for k in range(len(records)) if rows is None else rows:
        rec = records[k]
        assert isinstance(rec, TrajectoryRecord)
        assert rec.t == traj.times[k] and rec.sigma is not None
        assert np.array_equal(rec.sigma, traj.sigmas[k])
        data = invariants(rec.sigma)
        assert_same(rec.data, data)
        assert_same(rec.report, report_from_data(data))


class TestColumnsMatchScalar:
    def test_fig1a(self):
        preset = figure_preset("fig1a")
        for o in sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid):
            assert_rows_match_scalar(o.trajectory)

    @pytest.mark.parametrize("name", sorted(EVOLVE_RUNS))
    def test_evolve(self, name):
        params, integrator = EVOLVE_RUNS[name]
        traj = evolve_trajectory(params, DEFAULT_GRID, integrator=integrator)
        assert_rows_match_scalar(traj)
        if name == "lambda0_rk4":
            assert np.isnan(traj.report.discord).any()  # NaN rows match too

    def test_base_two(self):
        # the CLI's bits are the scalar route's nats times one factor, 1 / ln 2
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, 10.0, 101))
        args = argparse.Namespace(hex_floats=True, log_base="2", threshold=0.0, dt=1e-3)
        rows = [line.split(",") for line in _trajectory_csv(traj, args).splitlines()[2:]]
        factor = 1.0 / math.log(2.0)
        for row, sigma in zip(rows, traj.sigmas):
            report = report_from_data(invariants(sigma))
            assert row[2] == (report.log_negativity * factor + 0.0).hex()
            assert row[3] == (report.discord * factor + 0.0).hex()

    def test_sample_of_every_preset_trajectory(self):
        rng = np.random.default_rng(11)
        count = 0
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for o in sweep_parameter(preset.params, preset.sweep, preset.values,
                                     preset.grid):
                rows = sorted(rng.choice(len(o.trajectory.times), 8, replace=False))
                assert_rows_match_scalar(o.trajectory, rows=[0, *rows])
                count += 1
        assert count == 60

    def test_records_are_cached(self):
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, 1.0, 3))
        assert traj.records is traj.records


def assert_same_columns(a, b):
    """Column dataclasses equal field for field: floats by their bits, the
    physical and zeta_branch columns by value and dtype."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert x.dtype == y.dtype and x.shape == y.shape, field.name
        if x.dtype == float:
            assert np.array_equal(bits(x), bits(y)), field.name
        else:
            assert x.tolist() == y.tolist(), field.name


# without damping, the lower mode moves freely at nu = +-omega1*omega2
FREE = dataclasses.replace(FIG4, lambda_=0.0)


def per_value(base, which, values, grid, integrator="closed"):
    """evolve_trajectory of each value, or the message of its error."""
    out = []
    for value in values:
        try:
            out.append(evolve_trajectory(
                dataclasses.replace(base, **{which: float(value)}), grid, integrator))
        except OscbathError as error:
            out.append(str(error))
    return out


class TestSweepOnePass:
    """sweep_parameter measures all its values in one pass, and each outcome
    equals the per-value evolve_trajectory bit for bit, errors included."""

    @staticmethod
    def assert_matches_per_value(base, which, values, grid=DEFAULT_GRID, integrator="closed"):
        outcomes = sweep_parameter(base, which, iter(values), grid, integrator)
        for outcome, value, expected in zip(
                outcomes, values, per_value(base, which, values, grid, integrator),
                strict=True):
            assert outcome.value == float(value)
            if isinstance(expected, str):
                assert outcome.trajectory is None and outcome.error == expected
                continue
            traj = outcome.trajectory
            assert outcome.error is None
            assert (traj.params, traj.grid, traj.integrator) == (
                expected.params, expected.grid, expected.integrator)
            assert np.array_equal(traj.times, expected.times)
            assert np.array_equal(bits(traj.sigmas), bits(expected.sigmas))
            assert_same_columns(traj.data, expected.data)
            assert_same_columns(traj.report, expected.report)
        return outcomes

    @pytest.mark.parametrize("fid", FIGURE_IDS)
    def test_every_preset(self, fid):
        preset = figure_preset(fid)
        self.assert_matches_per_value(preset.params, preset.sweep, preset.values,
                                      preset.grid)

    def test_failing_values_keep_their_errors(self):
        # at the marginal coupling and lambda = 0 the lower mode moves freely
        # and sigma grows like t^2: by t = 1e100 its exact invariants are
        # beyond the float range, and at t = 1e8 the rounded state is
        # non-physical, its eigenvalue rounding noise that moves with any
        # change of the propagation's rounding; 2 omega1*omega2 fails
        # validation. nu = 0.3 and 0.6 still get their trajectories.
        bound = coupling_bound(FREE)
        outcomes = self.assert_matches_per_value(FREE, "nu", (0.3, bound, 0.6, 2 * bound),
                                                 TimeGrid(0.0, 1e100, 3))
        assert [o.error for o in outcomes] == [
            None,
            "exact i4 of the covariance matrix is beyond the float range",
            None,
            "|nu| <= omega1*omega2 violated (|1.7320508075688772| > 0.866025403784)",
        ]
        outcomes = self.assert_matches_per_value(FREE, "nu", (0.3, -bound, 0.6),
                                                 TimeGrid(0.0, 1e8, 3))
        assert outcomes[1].error.startswith("negative squared state symplectic eigenvalue (")
        assert outcomes[0].error is None and outcomes[2].error is None

    def test_closed_and_rk4_in_one_pass(self):
        # lambda = 0 takes either integrator, as every accepted set does
        for integrator in ("closed", "rk4"):
            outcomes = self.assert_matches_per_value(
                FIG1A, "lambda_", (0.6, 0.0), integrator=integrator)
            assert [o.trajectory.integrator for o in outcomes] == [integrator] * 2

    def test_one_measure_pass(self, monkeypatch):
        calls = []

        def counted(sigmas):
            calls.append(len(sigmas))
            return _invariants_stack(sigmas)

        monkeypatch.setattr(oscbath.sweep, "_invariants_stack", counted)
        preset = figure_preset("fig1a")
        sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid)
        assert calls == [4 * 501]
        # a pass that raises is repeated per value, for the values that propagated
        calls.clear()
        bound = coupling_bound(FREE)
        sweep_parameter(FREE, "nu", (0.3, bound, 2 * bound), TimeGrid(0.0, 1e100, 3))
        assert calls == [6, 3, 3]

    def test_no_valid_value_propagates_nothing(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a value that failed validation went on")

        for name in ("_propagate_grid", "_rk4_grid", "_invariants_stack"):
            monkeypatch.setattr(oscbath.sweep, name, fail)
        for integrator in ("closed", "rk4"):
            outcomes = self.assert_matches_per_value(
                FIG1A, "temperature", (-1.0, -2.0), TimeGrid(0.0, 1.0, 3), integrator)
            assert [o.trajectory for o in outcomes] == [None, None]

    def test_rk4_values_run_alone_after_a_failed_pass(self, monkeypatch):
        # the marginal coupling fails its measures at t = 1e6 and twice it
        # fails validation, so nu = 0.3 and the marginal value are stepped
        # once together and once each. The eigenvalue is rounding noise, as
        # in test_failing_values_keep_their_errors
        stepped = []

        def counted(sigma0, params, *args):
            stepped.append(params.nu)
            return oscbath.dynamics._rk4_grid(sigma0, params, *args)

        monkeypatch.setattr(oscbath.sweep, "_rk4_grid", counted)
        bound = coupling_bound(FREE)
        values, grid = (0.3, bound, 2 * bound), TimeGrid(0.0, 1e6, 3)
        sweep_parameter(FREE, "nu", values, grid, "rk4")
        assert stepped == [0.3, bound, 0.3, bound]
        monkeypatch.undo()
        outcomes = self.assert_matches_per_value(FREE, "nu", values, grid, "rk4")
        assert outcomes[0].error is None
        assert outcomes[1].error.startswith("negative squared partial-transpose symplectic "
                                            "eigenvalue (")
        assert outcomes[2].error.startswith("|nu| <= omega1*omega2 violated")

    @staticmethod
    def spy_propagation(monkeypatch):
        """The number of sets of each stacked propagation the sweep makes."""
        calls = []

        def stacked(sigma0s, params_seq, times):
            calls.append(len(params_seq))
            return oscbath.dynamics._propagate_grid(sigma0s, params_seq, times)

        monkeypatch.setattr(oscbath.sweep, "_propagate_grid", stacked)
        return calls

    def assert_one_stacked_call(self, monkeypatch, base, which, values, grid,
                                expected_calls=None):
        """The sweep propagates all its valid values in one stacked call (or
        makes ``expected_calls``), and each outcome equals its own
        evolve_trajectory bit for bit."""
        calls = self.spy_propagation(monkeypatch)
        sweep_parameter(base, which, values, grid)
        assert calls == (expected_calls or [len(values)])
        monkeypatch.undo()
        return self.assert_matches_per_value(base, which, values, grid)

    def test_one_propagation_call(self, monkeypatch):
        preset = figure_preset("fig4a")  # four normal-mode rotations
        self.assert_one_stacked_call(monkeypatch, preset.params, preset.sweep,
                                     preset.values, preset.grid)
        # a stacked call that raises is repeated per value; the value that
        # fails validation takes part in neither
        calls = self.spy_propagation(monkeypatch)
        base = dataclasses.replace(FIG1A, lambda_=0.0)
        sweep_parameter(base, "omega", (1, 2, -1, 1.1), TimeGrid(0.0, 1e308, 3))
        assert calls == [3, 1, 1, 1]

    def test_lambda_sweep_mixes_zero_and_settled_blocks(self, monkeypatch):
        # lambda = 0 has zero steady blocks and no solve; at lambda = 800,
        # e^{-lambda t} underflows from t = 2.5 on, where rows are sigma_inf
        grid = TimeGrid(0.0, 10.0, 5)
        outcomes = self.assert_one_stacked_call(monkeypatch, FIG1A, "lambda_",
                                                (0.6, 800, 0.0), grid)
        settled = outcomes[1].trajectory.sigmas[1:]
        s_inf = steady_state(dataclasses.replace(FIG1A, lambda_=800.0))
        assert np.array_equal(bits(settled), bits(np.broadcast_to(s_inf, settled.shape)))
        free = outcomes[2].trajectory.report.purity
        assert np.abs(free - 1.0).max() < 1e-12  # no damping keeps the state pure

    def test_marginal_coupling_beside_stable_values(self, monkeypatch):
        # at nu = +-omega1*omega2 the lower mode has W- = 0 and moves freely
        bound = coupling_bound(FIG4)
        self.assert_one_stacked_call(monkeypatch, FIG4, "nu",
                                     (-bound, 0.3, bound, 0.9 * bound), DEFAULT_GRID)

    def test_grid_starting_after_zero(self, monkeypatch):
        preset = figure_preset("fig1c")
        self.assert_one_stacked_call(monkeypatch, preset.params, preset.sweep,
                                     preset.values, TimeGrid(2.5, 7.5, 11))

    def test_float_range_limit_in_a_stacked_call(self, monkeypatch):
        # a sweep refuses r = 354.9 as beyond the parameter box and
        # propagates the others in one call; given to the stacked core, its
        # sigma0 leaves the float range in the mode basis, and the stack with it
        grid = TimeGrid(0.0, 1.0, 5)
        values = (1.0, 354.9, 2.0)
        outcomes = self.assert_one_stacked_call(monkeypatch, FIG1A, "r", values, grid,
                                                expected_calls=[2])
        assert outcomes[1].error.startswith("r must satisfy 0 <= r <= 4.5790")
        sigma0s = [initial_squeezed_vacuum(r) for r in values]
        with pytest.raises(OutOfRange, match=r"float range \(t up to 1\)$"):
            oscbath.dynamics._propagate_grid(sigma0s, [FIG1A] * 3, grid.times())

    def test_phase_overflow_keeps_the_other_values(self):
        # at omega = 2 the phase W+ t overflows at t = 1e308 while
        # e^{-lambda t} = 1; at omega = 1 and 1.1, W+ < 1.5 and it does not
        base = dataclasses.replace(FIG1A, lambda_=0.0)
        outcomes = self.assert_matches_per_value(base, "omega", (1, 2, 1.1),
                                                 TimeGrid(0.0, 1e308, 3))
        assert outcomes[1].error.startswith(
            "propagated covariance left the float range (t up to 1e+308): "
            "the mode phase overflowed")
        assert outcomes[0].trajectory is not None and outcomes[2].trajectory is not None

    def test_phase_overflow_where_settled(self, monkeypatch):
        # with damping, e^{-lambda t} is 0 where the phase overflows: those
        # rows are sigma_inf exactly, in place of the NaN the formula gives
        outcomes = self.assert_one_stacked_call(monkeypatch, FIG1A, "omega", (1, 2, 1.1),
                                                TimeGrid(0.0, 1e308, 3))
        settled = outcomes[1].trajectory.sigmas[1:]
        s_inf = steady_state(dataclasses.replace(FIG1A, omega=2.0))
        assert np.array_equal(bits(settled), bits(np.broadcast_to(s_inf, settled.shape)))


def scalar_error(sigma):
    with pytest.raises(Exception) as info:
        report_from_data(invariants(sigma))
    return info.type, str(info.value)


class TestErrorsMatchScalar:
    INDEFINITE = np.diag([1.0, -1.0, 1.0, 1.0])
    # complex symplectic spectrum with a clamped discriminant:
    # nu_plus * nu_minus contradicts det sigma
    INCONSISTENT = 1e-3 * np.array([[0.0, -3.0, -1.0, 0.0],
                                    [-3.0, -6.0, 6.0, 0.0],
                                    [-1.0, 6.0, 6.0, 3.0],
                                    [0.0, 0.0, 3.0, 4.0]])

    # non-physical matrices caught by the state discriminant, the partial-
    # transpose discriminant and the squared partial-transpose eigenvalue
    STATE_DISCRIMINANT = np.array([[4.0, 0.0, -2.0, -2.0], [0.0, -6.0, -1.0, -2.0],
                                   [-2.0, -1.0, 2.0, 6.0], [-2.0, -2.0, 6.0, 4.0]])
    PT_DISCRIMINANT = np.array([[0.0, 1.0, 1.0, 5.0], [1.0, 0.0, -2.0, 1.0],
                                [1.0, -2.0, 6.0, -3.0], [5.0, 1.0, -3.0, 2.0]])
    PT_EIGENVALUE = np.array([[0.0, 3.0, 4.0, 2.0], [3.0, 0.0, -3.0, 3.0],
                              [4.0, -3.0, 0.0, 1.0], [2.0, 3.0, 1.0, 4.0]])

    def stack(self, bad_rows):
        sigmas = evolve_stack("closed")[:20].copy()
        for k, sigma in bad_rows.items():
            sigmas[k] = sigma
        return sigmas

    REASONS = {
        "INDEFINITE": "negative squared state symplectic eigenvalue (-1)",
        "INCONSISTENT": "contradicts",
        "STATE_DISCRIMINANT": "state discriminant negative beyond tolerance (-16)",
        "PT_DISCRIMINANT": "partial-transpose discriminant negative beyond tolerance (-64)",
        "PT_EIGENVALUE": "negative squared partial-transpose symplectic eigenvalue",
    }

    @pytest.mark.parametrize("bad", list(REASONS))
    def test_lowest_bad_row_raises_its_scalar_error(self, bad):
        sigma = getattr(self, bad)
        kind, message = scalar_error(sigma)
        assert kind is NonPhysicalInput
        assert self.REASONS[bad] in message
        other = self.INCONSISTENT if bad == "INDEFINITE" else self.INDEFINITE
        sigmas = self.stack({7: sigma, 12: other})
        with pytest.raises(kind) as info:
            _report_columns(_invariants_stack(sigmas))
        assert str(info.value) == message

    # i4 = 2**1200 alone is beyond the float range; the r = 200 vacuum
    # overflows already at i1
    HUGE_DIAGONAL = np.diag([2.0 ** 300] * 4)
    HUGE_SQUEEZE = initial_squeezed_vacuum(200.0)

    @pytest.mark.parametrize("first,second", [("HUGE_DIAGONAL", "HUGE_SQUEEZE"),
                                              ("HUGE_SQUEEZE", "HUGE_DIAGONAL")])
    def test_lowest_out_of_range_row_raises_its_scalar_error(self, first, second):
        sigma = getattr(self, first)
        kind, message = scalar_error(sigma)
        assert kind is OutOfRange and issubclass(kind, OverflowError)
        assert message.startswith("exact i4 " if first == "HUGE_DIAGONAL" else "exact i1 ")
        sigmas = self.stack({7: sigma, 12: getattr(self, second)})
        for stacked in (exact_stack, invariants_stack):
            with pytest.raises(OutOfRange) as info:
                stacked(sigmas)
            assert str(info.value) == message

    @pytest.mark.parametrize("run", [
        lambda: full_report(initial_squeezed_vacuum(200.0)),
        # the marginal coupling without damping grows like t^2
        lambda: evolve_trajectory(SystemParams(1.0, 0.0, 1.0, 0.0, 0.2, 1.0),
                                  TimeGrid(0.0, 1e100, 3)),
        # RK4 far beyond its stability limit grows the entries past 1e77
        lambda: evolve_trajectory(SystemParams(1.0, 0.0, 0.8, 0.0, 0.2, 1.0),
                                  TimeGrid(0.0, 1e6, 3), "rk4", 1e5),
    ])
    def test_out_of_range_entry_points(self, run):
        with pytest.raises(OutOfRange, match="is beyond the float range"):
            run()


# Any finite float: the formulas take powers as products, so a square or
# fourth power beyond the float range is inf on both routes and compared
# like any other value.
ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.integers(-10, 10).map(float),
)
# i2 = 1 +- 1e-9 reroutes the first discord branch; rad in (-1e-10, 0)
# clamps to zero and rad below -1e-10 raises
SPECIAL = {
    "any": st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    "i2": st.sampled_from([1.0 + 1e-9, 1.0 - 1e-9, -2.0, 5e-324]),
    "rad": st.one_of(st.floats(-1e-10, 0.0, exclude_min=True),
                     st.floats(-1e3, -1e-10, exclude_max=True)),
}
FIELD_VALUES = [st.one_of(ANY_FLOAT, SPECIAL["any"], SPECIAL[kind])
                for kind in ("any", "i2", "any", "any", "any", "any", "rad", "rad")]


@st.composite
def invariant_rows(draw):
    """One row of the eight invariants: those of a random mixed state, or a
    pure one (rad zero up to the rounding of sigma, of either sign), either
    two-mode squeezed or a product of squeezed vacua (I2 = 1 up to rounding,
    so the first branch reroutes), some fields replaced by any finite floats
    or special values (contradictory purity rows follow from a replaced rad
    or i4)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["mixed", "entangled", "product"]))
    s = random_symplectic(rng, max_squeeze=2.0)
    # s = R S M R' with orthogonal M and R', so s s^T drops the mode mixing
    sigma = {"mixed": random_physical_cov(rng, max_squeeze=2.0),
             "entangled": s.T @ s, "product": s @ s.T}[kind]
    row = list(exact_row(0.5 * (sigma + sigma.T)))
    for k in draw(st.sets(st.integers(0, 7), max_size=3)):
        row[k] = draw(FIELD_VALUES[k])
    return row


def scalar_row(row):
    try:
        data = _assemble(*row)
        return data, report_from_data(data)
    except OscbathError as error:
        return error


def assert_rows_match_columns(rows):
    """_report_columns of the rows as (8, N) columns equals the scalar route
    row by row, or raises the lowest raising row's class and message."""
    expected = [scalar_row(row) for row in rows]
    errors = [e for e in expected if isinstance(e, Exception)]
    if errors:
        with pytest.raises(type(errors[0])) as info:
            _report_columns(np.array(rows).T)
        assert str(info.value) == str(errors[0])
        return
    columns = _report_columns(np.array(rows).T)
    for column, values in zip(columns, zip(*expected)):
        fields = [getattr(column, f.name).tolist() for f in dataclasses.fields(column)]
        for row, value in zip(zip(*fields), values):
            assert_same(type(value)(*row), value)


class TestRowsMatchScalar:
    """_report_columns on the (8, N) columns of any N rows: column k is
    report_from_data of _assemble(*row k) bit for bit, or the lowest raising
    row's error; each row is also checked alone, so rows beside a raising
    one are compared."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(invariant_rows(), min_size=1, max_size=6))
    def test_rows(self, rows):
        assert_rows_match_columns(rows)
        for row in rows:
            assert_rows_match_columns([row])

    @pytest.mark.parametrize("i2", [math.nan, 0.0, -0.0, -1.0, 0.5])
    @pytest.mark.parametrize("base", ["vacuum", "mixed"])
    def test_hand_built_i2(self, base, i2):
        # report_from_data takes a branch unless I2 <= 0 (`not i2 <= 0.0`),
        # so a NaN I2 gives a NaN discord on the second branch
        row = list([1.0, 1.0, 0.0, 1.0, 2.0, 2.0, 0.0, 0.0] if base == "vacuum"
                   else exact_row(evolve_stack("closed")[250]))
        row[1] = i2
        assert_rows_match_columns([row])
        if math.isnan(i2):
            _, report = _report_columns(np.array([row]).T)
            assert math.isnan(report.discord[0]) and report.zeta_branch[0] == "second"


def premise_arguments(seed=11) -> np.ndarray:
    """About 20,000 positive floats where a log or a product may round
    differently: the whole normal range, subnormals, 1 +- k ulp, the
    (x + 1)/2 and (x - 1)/2 that f_entropy takes for x just above 1,
    numbers near 1, and 1e+-300, the extremes, inf and nan."""
    rng = np.random.default_rng(seed)
    k = np.arange(1.0, 1001.0)
    x = 1.0 + 10.0 ** rng.uniform(-15.5, 1.0, 4000)  # all above 1
    return np.concatenate([
        np.exp(rng.uniform(-708.0, 709.0, 4000)),
        np.ldexp(rng.integers(1, 2 ** 52, 2000).astype(float), -1074),
        1.0 + k * 2.0 ** -52, 1.0 - k * 2.0 ** -53,
        0.5 * (x + 1.0), 0.5 * (x - 1.0),
        rng.uniform(0.5, 2.0, 4000),
        [1e300, 1e-300, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
         1.0, 2.0, math.e, math.inf, math.nan],
    ])


def rint_reference(a, b) -> list[float]:
    """Each a * b rounded half to even in exact rational arithmetic, flat."""
    return [float(round(Fraction(x) * Fraction(y)))
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist())]


def rint_ties(seed=19):
    """(a, b) pairs whose fl(a * b) is a half-integer, keyed by the sign of
    the low part a * b - fl(a * b): x = fl((n + 1/2) / 10**k) with 10**k,
    and dyadic (n + 1/2) / 2**j with 2**j, whose product is exact."""
    rng = np.random.default_rng(seed)
    found = {1: [], -1: [], 0: []}
    for n, k in zip(rng.integers(0, 10 ** 9, 4000).tolist(), rng.integers(1, 12, 4000).tolist()):
        b = 10.0 ** k
        a = (n + 0.5) / b
        if a * b == n + 0.5:
            low = Fraction(a) * Fraction(b) - Fraction(a * b)
            found[(low > 0) - (low < 0)].append((a, b))
    for n, j in zip(rng.integers(0, 10 ** 9, 50).tolist(), rng.integers(0, 30, 50).tolist()):
        found[0].append(((n + 0.5) / 2.0 ** j, 2.0 ** j))
    return found


class TestRintProduct:
    """_rint_product equals round half to even of the exact product, also
    where fl(a * b) lands on a half-integer and only the low part decides."""

    @staticmethod
    def check(a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert _rint_product(a, b).ravel().tolist() == rint_reference(a, b)

    @pytest.mark.parametrize("low_sign", [1, -1, 0])
    def test_ties(self, low_sign):
        pairs = rint_ties()[low_sign]
        assert len(pairs) >= 20
        a, b = np.array(pairs).T
        self.check(a, b)
        self.check(-a, b)
        self.check(a[:20].reshape(10, 2), b[:20].reshape(10, 2))  # as CSV tables pass them

    def test_decimal_sample(self):
        # the CLI's products x * 10**k, and any others below 2**52
        rng = np.random.default_rng(23)
        k = rng.integers(0, 23, 20000)
        b = 10.0 ** k
        a = rng.choice([-1.0, 1.0], k.size) * 10.0 ** rng.uniform(-3.0, 15.6, k.size) / b
        assert np.abs(a * b).max() < 2.0 ** 52
        self.check(a, b)

    def test_svg_sample(self):
        rng = np.random.default_rng(29)
        v = rng.uniform(0.0, 1000.0, 20000)
        v[:1000] = np.round(v[:1000], 3)  # near hundredths and their halves
        self.check(v, np.full(v.shape, 100.0))


class TestSharedPrimitives:
    """The premise of the shared formulas: the scalar route's log and
    products round as the column route's do, bit for bit, and raise or
    warn on none of the arguments the formulas pass them."""

    def test_log(self):
        x = premise_arguments()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = [_FLOAT.log(v) for v in x.tolist()]
        assert {type(v) for v in scalar} == {float}
        assert np.array_equal(bits(scalar), bits(_COLUMN.log(x)))

    def test_products(self):
        x = premise_arguments()
        x = np.concatenate([x, -x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            squares = [v * v for v in x.tolist()]
            fourths = [(v * v) * (v * v) for v in x.tolist()]
        with np.errstate(all="ignore"):  # as in _report_columns
            assert np.array_equal(bits(squares), bits(x * x))
            assert np.array_equal(bits(fourths), bits((x * x) * (x * x)))
        assert math.inf in fourths and 0.0 in squares
