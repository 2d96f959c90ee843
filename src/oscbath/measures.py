"""Symplectic spectra and Gaussian correlation measures.

Everything a two-mode Gaussian state reveals about purity, entanglement and
discord is a function of four block determinants of its covariance matrix

    I1 = det A,  I2 = det B,  I3 = det C,  I4 = det sigma,

where A, B are the single-mode 2x2 blocks and C is the cross block. The
symplectic eigenvalues follow from Delta = I1 + I2 + 2*I3 via

    nu_{+,-}^2 = (Delta +/- sqrt(Delta^2 - 4*I4)) / 2,

and the partial transpose of mode 2 flips the sign of I3, so the smallest
partial-transpose eigenvalue uses Delta~ = I1 + I2 - 2*I3 instead.

Float matrices have dyadic-rational entries, so the determinants and the
discriminants Delta^2 - 4*I4 are computed here in exact integer arithmetic
and rounded once at the end. This matters: a pure state has a doubly
degenerate symplectic eigenvalue, and the naive float evaluation of the
discriminant loses half the significant digits exactly there (sqrt of a
cancellation residual), which would wreck purity and physicality checks at
and near t = 0.

A whole trajectory (an (N, 4, 4) stack) takes a batched route with the same
results bit for bit. Its invariants are evaluated in vectorized
double-double arithmetic (Dekker's error-free products and sums) with an
error bound, and each value is kept only where Ziv's round test proves that
rounding it gives the correctly rounded exact value; every other row (pure
states such as t = 0, a whole lambda = 0 trajectory, entries beyond
2**+-200) goes through the exact integer path. The measures are then
computed as masked arrays, with the logarithms and powers taken by the same
scalar calls as below, and any row that would raise is replayed through the
scalar functions so the error and its message are the same. No option
selects the route; single matrices always use the scalar functions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateState, DomainError, NonPhysicalInput
from .model import check_covariance

__all__ = [
    "SymplecticData",
    "CorrelationReport",
    "invariants",
    "check_physical",
    "purity",
    "log_negativity",
    "f_entropy",
    "gaussian_discord",
    "full_report",
    "report_from_data",
]

# Discriminants in (-1e-10, 0) are roundoff residue and clamp to zero;
# squared eigenvalues below -1e-8 mean the input is genuinely non-physical.
_RAD_CLAMP = 1e-10
_NU_SQ_TOL = 1e-8
_PHYSICAL_TOL = 1e-8
_DEGENERATE_I2_TOL = 1e-8
_DISCORD_CLAMP = 1e-9


@dataclass(frozen=True)
class SymplecticData:
    """Block determinants and symplectic spectrum of one covariance matrix."""

    i1: float
    i2: float
    i3: float
    i4: float
    delta: float
    delta_tilde: float
    nu_minus: float
    nu_plus: float
    nu_tilde_minus: float

    @classmethod
    def from_invariants(
        cls, i1: float, i2: float, i3: float, i4: float
    ) -> "SymplecticData":
        """Rebuild the spectrum from the four determinants alone.

        Used to recompute measures from logged diagnostics; works in plain
        float arithmetic, so it is less accurate than :func:`invariants`
        near degenerate (pure-state) spectra.
        """
        delta = i1 + i2 + 2.0 * i3
        delta_tilde = i1 + i2 - 2.0 * i3
        rad = delta * delta - 4.0 * i4
        rad_tilde = delta_tilde * delta_tilde - 4.0 * i4
        return _assemble(i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde)


@dataclass(frozen=True)
class CorrelationReport:
    """Purity, entanglement and discord of one state, plus validity flags.

    ``discord`` is NaN (and ``zeta_branch`` None) when the state is too far
    from physical for the closed form to be evaluated; ``physical`` is False
    in that case.
    """

    purity: float
    log_negativity: float
    discord: float
    physical: bool
    zeta_branch: str | None


# ---------------------------------------------------------------------------
# Exact block determinants
# ---------------------------------------------------------------------------

# Column pairs and signs of the Laplace expansion of a 4x4 determinant by
# complementary 2x2 minors taken from rows (0,1) and rows (2,3).
_MINOR_COLS = ((0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 1, 2),
               (1, 2, 0, 3), (1, 3, 0, 2), (2, 3, 0, 1))
_MINOR_SIGNS = (1, -1, 1, 1, -1, 1)


def _dyadic_int_matrix(sigma: np.ndarray) -> tuple[list[list[int]], int]:
    """Rescale a float matrix to integers: sigma[i][j] == m[i][j] / 2**shift."""
    flat = [float(x) for x in sigma.reshape(-1)]
    pairs = [x.as_integer_ratio() for x in flat]
    shift = max(den.bit_length() - 1 for _, den in pairs)
    ints = [num << (shift - (den.bit_length() - 1)) for num, den in pairs]
    return [ints[0:4], ints[4:8], ints[8:12], ints[12:16]], shift


def _det2(m, r0, r1, c0, c1):
    return m[r0][c0] * m[r1][c1] - m[r0][c1] * m[r1][c0]


def _exact_block_invariants(sigma: np.ndarray):
    """Return (i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) as floats,
    each correctly rounded from an exact integer computation."""
    m, shift = _dyadic_int_matrix(sigma)
    i1n = _det2(m, 0, 1, 0, 1)
    i2n = _det2(m, 2, 3, 2, 3)
    i3n = _det2(m, 0, 1, 2, 3)
    i4n = sum(
        sign * _det2(m, 0, 1, c0, c1) * _det2(m, 2, 3, c2, c3)
        for (c0, c1, c2, c3), sign in zip(_MINOR_COLS, _MINOR_SIGNS)
    )
    dn = i1n + i2n + 2 * i3n
    dtn = i1n + i2n - 2 * i3n
    radn = dn * dn - 4 * i4n
    radtn = dtn * dtn - 4 * i4n
    s2 = 1 << (2 * shift)
    s4 = 1 << (4 * shift)
    # int / int division is correctly rounded in CPython
    return (i1n / s2, i2n / s2, i3n / s2, i4n / s4,
            dn / s2, dtn / s2, radn / s4, radtn / s4)


# ---------------------------------------------------------------------------
# Batched block determinants: double-double with a round test
# ---------------------------------------------------------------------------

# A double-double is a pair (hi, lo) of arrays standing for hi + lo. Each
# value below also carries a magnitude A, the same polynomial evaluated on
# |entries|. The ops add at most 3.1 u^2 (sum) and 8.1 u^2 (product) of the
# operand magnitudes to the error (u = 2**-53), so the deepest value, rad,
# is within 33 u^2 A of exact; _DD_ERROR = 128 u^2 leaves room for the
# rounding of A itself. Nonzero entries in [2**-200, 2**200] keep every
# product, error term and bound in the normal float range.
_SPLIT = 134217729.0  # 2**27 + 1
_DD_ERROR = 2.0 ** -99
_ENTRY_MIN = 2.0 ** -200
_ENTRY_MAX = 2.0 ** 200


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, t = _two_sum(x[0], y[0])
    return _two_sum(s, t + (x[1] + y[1]))


def _dd_mul(x, y):
    p, q = _two_prod(x[0], y[0])
    return _two_sum(p, q + (x[0] * y[1] + x[1] * y[0]))


def _dd_scale(x, factor):
    """x times a power of two or a sign, which is exact."""
    return factor * x[0], factor * x[1]


def _round_test(x, mag):
    """Correctly rounded value of x (within _DD_ERROR * mag of exact) and
    whether it is proven: both ends of the error interval round alike.

    e is widened so that the rounding of lo -+ e cannot narrow the
    interval; adding 0.0 turns a -0.0 into the 0.0 the exact path returns.
    """
    hi, lo = x
    e = _DD_ERROR * mag
    e = e + (np.abs(lo) + e) * 2.0 ** -50
    low = hi + (lo - e)
    return low + 0.0, low == hi + (lo + e)


# Entries a, b, c, d of the twelve 2x2 minors a*b - c*d in the Laplace
# expansion: columns 0-5 are rows (0,1) with columns (c0,c1) of each
# _MINOR_COLS pair, columns 6-11 rows (2,3) with its (c2,c3). Column 0 is
# I1, column 5 is I3 and column 6 is I2.
_MINOR_ENTRIES = tuple(
    ([r0] * 6 + [r1] * 6, [cols[i] for cols in _MINOR_COLS] + [cols[j] for cols in _MINOR_COLS])
    for r0, r1, i, j in ((0, 2, 0, 2), (1, 3, 1, 3), (0, 2, 1, 3), (1, 3, 0, 2))
)


def _dd_block_invariants(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 8) invariants of a finite (N, 4, 4) stack, as from
    :func:`_exact_block_invariants`, and an (N, 8) mask of the values the
    round test proves equal to it. Rows with an entry outside the safe
    range are never accepted."""
    with np.errstate(all="ignore"):  # rows out of range may overflow
        a, b, c, d = (sigmas[:, rows, cols] for rows, cols in _MINOR_ENTRIES)
        minors = _dd_add(_two_prod(a, b), _dd_scale(_two_prod(c, d), -1.0))
        mag = np.abs(a) * np.abs(b) + np.abs(c) * np.abs(d)
        i1, i2, i3 = ((minors[0][:, k], minors[1][:, k]) for k in (0, 6, 5))
        a1, a2, a3 = mag[:, 0], mag[:, 6], mag[:, 5]

        top = _dd_scale((minors[0][:, :6], minors[1][:, :6]), np.array(_MINOR_SIGNS, float))
        terms = _dd_mul(top, (minors[0][:, 6:], minors[1][:, 6:]))
        i4 = terms[0][:, 0], terms[1][:, 0]
        for k in range(1, 6):
            i4 = _dd_add(i4, (terms[0][:, k], terms[1][:, k]))
        a4 = (mag[:, :6] * mag[:, 6:]).sum(axis=1)

        i12 = _dd_add(i1, i2)
        delta = _dd_add(i12, _dd_scale(i3, 2.0))
        delta_tilde = _dd_add(i12, _dd_scale(i3, -2.0))
        a_delta = (a1 + a2) + 2.0 * a3
        minus_4i4 = _dd_scale(i4, -4.0)
        rad = _dd_add(_dd_mul(delta, delta), minus_4i4)
        rad_tilde = _dd_add(_dd_mul(delta_tilde, delta_tilde), minus_4i4)
        a_rad = a_delta * a_delta + 4.0 * a4

        tested = [_round_test(x, m) for x, m in (
            (i1, a1), (i2, a2), (i3, a3), (i4, a4), (delta, a_delta),
            (delta_tilde, a_delta), (rad, a_rad), (rad_tilde, a_rad))]
        absolute = np.abs(sigmas)
        in_range = ((absolute == 0.0)
                    | ((absolute >= _ENTRY_MIN) & (absolute <= _ENTRY_MAX))).all(axis=(1, 2))
    values = np.stack([v for v, _ in tested], axis=1)
    accepted = np.stack([ok for _, ok in tested], axis=1) & in_range[:, None]
    return values, accepted


def _invariants_stack(sigmas) -> np.ndarray:
    """(N, 8) exact block invariants of an (N, 4, 4) stack, each row equal to
    :func:`_exact_block_invariants` of its slice bit for bit.

    The stack is validated once, and the first bad slice raises the
    ``ValueError`` of :func:`~oscbath.model.check_covariance`. Rows the
    double-double round test cannot settle are recomputed exactly.
    """
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim != 3 or sigmas.shape[1:] != (4, 4):
        raise ValueError(f"covariance stack must be (N, 4, 4) (got shape {sigmas.shape})")
    with np.errstate(invalid="ignore"):  # inf - inf in a non-finite slice
        bad = ~(np.abs(sigmas - sigmas.swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-12)
    if bad.any():
        check_covariance(sigmas[np.argmax(bad)])
    values, accepted = _dd_block_invariants(sigmas)
    for k in np.flatnonzero(~accepted.all(axis=1)).tolist():
        values[k] = _exact_block_invariants(sigmas[k])
    return values


# ---------------------------------------------------------------------------
# Symplectic spectrum
# ---------------------------------------------------------------------------

def _eig_sq_pair(delta: float, i4: float, rad: float, label: str):
    """Squared eigenvalue pair from x^2 - delta*x + i4 = 0, numerically stable.

    The larger root is computed directly and the smaller one as i4 divided
    by it, which avoids the cancellation delta - sqrt(rad) at degeneracy.
    """
    if rad < 0.0:
        if rad < -_RAD_CLAMP:
            raise NonPhysicalInput(
                f"{label} discriminant negative beyond tolerance ({rad:g})"
            )
        rad = 0.0
    root = math.sqrt(rad)
    hi = 0.5 * (delta + root)
    lo = min(i4 / hi, hi) if hi > 0.0 else 0.5 * (delta - root)
    for value in (lo, hi):
        if value < -_NU_SQ_TOL:
            raise NonPhysicalInput(
                f"negative squared {label} symplectic eigenvalue ({value:g})"
            )
    return math.sqrt(max(lo, 0.0)), math.sqrt(max(hi, 0.0))


def _assemble(i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) -> SymplecticData:
    nu_minus, nu_plus = _eig_sq_pair(delta, i4, rad, "state")
    nu_tilde_minus, _ = _eig_sq_pair(delta_tilde, i4, rad_tilde, "partial-transpose")
    return SymplecticData(
        i1=i1, i2=i2, i3=i3, i4=i4,
        delta=delta, delta_tilde=delta_tilde,
        nu_minus=nu_minus, nu_plus=nu_plus, nu_tilde_minus=nu_tilde_minus,
    )


def invariants(sigma) -> SymplecticData:
    """Compute block determinants and symplectic eigenvalues of ``sigma``.

    The input must be symmetric within 1e-12; it does not have to be
    physical. Raises :class:`NonPhysicalInput` when the symplectic spectrum
    is not real and nonnegative within tolerance (e.g. indefinite input).
    """
    arr = check_covariance(sigma)
    values = _exact_block_invariants(arr)
    return _assemble(*values)


def check_physical(data: SymplecticData) -> bool:
    """Uncertainty-relation test: physical iff nu_minus >= 1 - 1e-8."""
    return data.nu_minus >= 1.0 - _PHYSICAL_TOL


def purity(data: SymplecticData) -> float:
    """Purity mu = 1 / (nu_plus * nu_minus); 1 for pure states.

    Equals 1/sqrt(det sigma) for any state with a positive spectrum;
    raises :class:`NonPhysicalInput` when ``data`` breaks that identity
    (a spectrum inconsistent with its determinants).
    """
    product = data.nu_plus * data.nu_minus
    if product <= 0.0:
        return float("nan")
    mu = 1.0 / product
    if not (data.i4 <= 0.0 or abs(mu * math.sqrt(data.i4) - 1.0) < 1e-9):
        raise NonPhysicalInput(f"purity {mu:g} contradicts det sigma = {data.i4:g}")
    return mu


def _log_scale(base: float) -> float:
    if base == math.e:
        return 1.0
    if not base > 1.0:
        raise ValueError(f"log base must be > 1 (got {base})")
    return 1.0 / math.log(base)


def log_negativity(data: SymplecticData, base: float = math.e) -> float:
    """Entanglement monotone max{0, -log(nu_tilde_minus)}.

    Positive iff the partially transposed state violates the uncertainty
    relation; exactly 0.0 for separable states. Natural logarithm by
    default; pass ``base=2`` for bits.
    """
    ntm = data.nu_tilde_minus
    if ntm <= 0.0:
        return math.inf
    return max(0.0, -math.log(ntm) * _log_scale(base))


def f_entropy(x: float, base: float = math.e) -> float:
    """Bosonic entropy f(x) = (x+1)/2 log((x+1)/2) - (x-1)/2 log((x-1)/2).

    Defined for x >= 1 with f(1) = 0 (the x -> 1 limit is handled exactly,
    no NaN); monotone increasing for x > 1. Arguments within 1e-8 below 1
    (the tolerance of :func:`check_physical`, so every state that passes
    it has a defined entropy) are clamped to 1; anything lower raises
    :class:`DomainError`, and a base <= 1 raises ``ValueError``.
    """
    scale = _log_scale(base)
    if x < 1.0 - _PHYSICAL_TOL:
        raise DomainError(f"entropy argument must be >= 1 (got {x})")
    if x <= 1.0:
        return 0.0
    xp = 0.5 * (x + 1.0)
    xm = 0.5 * (x - 1.0)
    return (xp * math.log(xp) - xm * math.log(xm)) * scale


def _zeta_first(i1: float, i2: float, i3: float, i4: float) -> float:
    inner = i3 * i3 + (i2 - 1.0) * (i4 - i1)
    inner = max(inner, 0.0)  # exact zero at pure states, roundoff below
    num = 2.0 * i3 * i3 + (i2 - 1.0) * (i4 - i1) + 2.0 * abs(i3) * math.sqrt(inner)
    return num / ((i2 - 1.0) ** 2)


def _zeta_second(i1: float, i2: float, i3: float, i4: float) -> float:
    inner = i3 ** 4 + (i4 - i1 * i2) ** 2 - 2.0 * i3 * i3 * (i1 * i2 + i4)
    inner = max(inner, 0.0)
    return (i1 * i2 - i3 * i3 + i4 - math.sqrt(inner)) / (2.0 * i2)


def gaussian_discord(
    data: SymplecticData,
    base: float = math.e,
    measured_mode: int = 2,
    reroute_degenerate: bool = True,
) -> tuple[float, str]:
    """Gaussian quantum discord of a physical two-mode state.

    Evaluates the closed form

        D = f(sqrt(I2)) - f(nu_minus) - f(nu_plus) + f(sqrt(zeta)),

    where zeta is the optimal measurement variance, chosen between two
    algebraic branches by the sign of (I4 - I1*I2)^2 - (I2+1)*I3^2*(I1+I4).
    Returns ``(discord, branch)`` with branch "first" or "second".

    The closed form is asymmetric under swapping the modes; the default
    ``measured_mode=2`` evaluates the form above, ``measured_mode=1`` the
    mode-swapped one (I1 and I2 exchanged).

    The first branch has denominator (I2 - 1)^2 and is singular when mode 2
    alone is pure (e.g. product states containing the vacuum). With
    ``reroute_degenerate=True`` (default) such states are evaluated on the
    second branch, which agrees in the limit; with ``False`` they raise
    :class:`DegenerateState`.

    Results within -1e-9 of zero are clamped to exactly 0.0.
    """
    if measured_mode == 2:
        i1, i2 = data.i1, data.i2
    elif measured_mode == 1:
        i1, i2 = data.i2, data.i1
    else:
        raise ValueError(f"measured_mode must be 1 or 2 (got {measured_mode})")
    i3, i4 = data.i3, data.i4
    if i2 <= 0.0:
        raise DomainError(f"measured-mode determinant must be positive (got {i2})")

    first_selected = (i4 - i1 * i2) ** 2 <= (i2 + 1.0) * i3 * i3 * (i1 + i4)
    degenerate = abs(i2 - 1.0) < _DEGENERATE_I2_TOL
    if first_selected and degenerate:
        if not reroute_degenerate:
            raise DegenerateState(
                "first discord branch selected with det B = 1 "
                "(singular denominator)"
            )
        first_selected = False

    if first_selected:
        zeta = _zeta_first(i1, i2, i3, i4)
        branch = "first"
    else:
        zeta = _zeta_second(i1, i2, i3, i4)
        branch = "second"

    discord = (
        f_entropy(math.sqrt(i2), base)
        - f_entropy(data.nu_minus, base)
        - f_entropy(data.nu_plus, base)
        + f_entropy(math.sqrt(max(zeta, 0.0)), base)
    )
    if -_DISCORD_CLAMP <= discord < 0.0:
        discord = 0.0
    return discord, branch


def report_from_data(data: SymplecticData, base: float = math.e) -> CorrelationReport:
    """Assemble a :class:`CorrelationReport` from a precomputed spectrum."""
    physical = check_physical(data)
    mu = purity(data)
    en = log_negativity(data, base=base)
    try:
        discord, branch = gaussian_discord(data, base=base)
    except (DomainError, DegenerateState):
        # Too far from physical for the closed form; report and flag.
        discord, branch = float("nan"), None
    return CorrelationReport(
        purity=mu,
        log_negativity=en,
        discord=discord,
        physical=physical,
        zeta_branch=branch,
    )


def full_report(sigma, base: float = math.e) -> CorrelationReport:
    """Compute all correlation measures of one covariance matrix."""
    return report_from_data(invariants(sigma), base=base)


# ---------------------------------------------------------------------------
# Batched measures
# ---------------------------------------------------------------------------
# Each column repeats the scalar code above operation for operation. np.sqrt
# and the four arithmetic ops are correctly rounded like their scalar
# counterparts; logarithms and powers are not (numpy's may differ in the
# last bit), so they go through math.log and float ** element by element.
# Python's max(x, 0.0) and min(x, y) keep their first argument on ties and
# NaN, which is what the np.where forms below do. np.where evaluates both
# branches, hence the errstate around the masked arithmetic.

def _log_column(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), float, len(x))


def _pow_column(x: np.ndarray, k: int) -> np.ndarray:
    # pow(v, k) is v ** k for a float v and an int k
    return np.fromiter(map(pow, x.tolist(), itertools.repeat(k)), float, len(x))


def _eig_sq_pair_columns(delta, i4, rad):
    """Columns of :func:`_eig_sq_pair` and the rows where it raises."""
    raises = rad < -_RAD_CLAMP
    root = np.sqrt(np.where(rad < 0.0, 0.0, rad))
    hi = 0.5 * (delta + root)
    positive = hi > 0.0
    ratio = i4 / np.where(positive, hi, 1.0)
    lo = np.where(positive, np.where(hi < ratio, hi, ratio), 0.5 * (delta - root))
    raises |= (lo < -_NU_SQ_TOL) | (hi < -_NU_SQ_TOL)
    return (np.sqrt(np.where(0.0 > lo, 0.0, lo)),
            np.sqrt(np.where(0.0 > hi, 0.0, hi)), raises)


def _f_entropy_column(x: np.ndarray, scale: float) -> np.ndarray:
    """:func:`f_entropy` of every element that passes its domain check."""
    out = np.zeros_like(x)
    above = ~(x <= 1.0)
    xp = 0.5 * (x[above] + 1.0)
    xm = 0.5 * (x[above] - 1.0)
    out[above] = (xp * _log_column(xp) - xm * _log_column(xm)) * scale
    return out


def _report_columns(inv: np.ndarray, base: float = math.e):
    """Spectrum and report columns of (N, 8) invariants from
    :func:`_invariants_stack`: a :class:`SymplecticData` and a
    :class:`CorrelationReport` whose fields are (N,) arrays (``zeta_branch``
    an object array holding None), row k equal to
    ``report_from_data(_assemble(*inv[k]), base)`` bit for bit.

    Rows where the scalar code would raise are replayed through it in
    order, so the lowest such row raises the scalar exception and message.
    """
    i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde = np.array(inv.T)
    try:
        scale = _log_scale(base)
        replay = np.zeros(len(inv), dtype=bool)
    except ValueError:
        scale = 1.0
        replay = np.ones(len(inv), dtype=bool)

    with np.errstate(all="ignore"):
        nu_minus, nu_plus, raises = _eig_sq_pair_columns(delta, i4, rad)
        nu_tilde_minus, _, raises_tilde = _eig_sq_pair_columns(delta_tilde, i4, rad_tilde)
        physical = nu_minus >= 1.0 - _PHYSICAL_TOL

        product = nu_plus * nu_minus
        positive = product > 0.0
        mu = np.where(positive, 1.0 / product, np.nan)
        consistent = (i4 <= 0.0) | (np.abs(mu * np.sqrt(i4) - 1.0) < 1e-9)
        replay |= raises | raises_tilde | (positive & ~consistent)

        en = np.full(len(inv), math.inf)
        entangled = nu_tilde_minus > 0.0
        en_value = -_log_column(nu_tilde_minus[entangled]) * scale
        en[entangled] = np.where(en_value > 0.0, en_value, 0.0)

        gap = i4 - i1 * i2
        gap_sq = _pow_column(gap, 2)
        first = (gap_sq <= (i2 + 1.0) * i3 * i3 * (i1 + i4)) & ~(
            np.abs(i2 - 1.0) < _DEGENERATE_I2_TOL)
        inner = i3 * i3 + (i2 - 1.0) * (i4 - i1)
        inner = np.where(0.0 > inner, 0.0, inner)
        zeta_first = (
            2.0 * i3 * i3 + (i2 - 1.0) * (i4 - i1) + 2.0 * np.abs(i3) * np.sqrt(inner)
        ) / _pow_column(i2 - 1.0, 2)
        inner = _pow_column(i3, 4) + gap_sq - 2.0 * i3 * i3 * (i1 * i2 + i4)
        inner = np.where(0.0 > inner, 0.0, inner)
        zeta_second = (i1 * i2 - i3 * i3 + i4 - np.sqrt(inner)) / (2.0 * i2)
        zeta = np.where(first, zeta_first, zeta_second)

        args = (np.sqrt(np.where(i2 > 0.0, i2, 1.0)), nu_minus, nu_plus,
                np.sqrt(np.where(0.0 > zeta, 0.0, zeta)))
        defined = i2 > 0.0
        for x in args:
            defined &= ~(x < 1.0 - _PHYSICAL_TOL)
        f = [_f_entropy_column(np.where(defined, x, 1.0), scale) for x in args]
        discord = f[0] - f[1] - f[2] + f[3]
        discord = np.where((-_DISCORD_CLAMP <= discord) & (discord < 0.0), 0.0, discord)
    discord[~defined] = np.nan
    branch = np.where(first, "first", "second").astype(object)
    branch[~defined] = None

    data = SymplecticData(
        i1=i1, i2=i2, i3=i3, i4=i4, delta=delta, delta_tilde=delta_tilde,
        nu_minus=nu_minus, nu_plus=nu_plus, nu_tilde_minus=nu_tilde_minus,
    )
    report = CorrelationReport(
        purity=mu, log_negativity=en, discord=discord, physical=physical,
        zeta_branch=branch,
    )
    for k in np.flatnonzero(replay).tolist():
        row = _assemble(*inv[k].tolist())
        for columns, scalar in ((data, row), (report, report_from_data(row, base))):
            for name, value in vars(scalar).items():
                getattr(columns, name)[k] = value
    return data, report
