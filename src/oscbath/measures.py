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
results bit for bit, in three stages, each cheap filter first and the exact
fallback last (Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates", DCG 18, 1997):

1. All eight invariants in vectorized double-double arithmetic (Dekker's
   error-free products and sums) with an error bound; each value is kept
   only where Ziv's round test proves that rounding it gives the correctly
   rounded exact value. Near a degenerate spectrum (pure states such as
   t = 0, a whole lambda = 0 trajectory) the discriminants cancel beyond
   double-double and stay open.
2. For rows whose only open values are the discriminants, rad and
   rad_tilde again, from the identities

       Delta^2 - 4 I4 = (I1 - I2)^2 + 4 (q02 q13 - q03 q12),
       Delta~^2 - 4 I4 = (I1 - I2)^2 - 4 (r02 r13 - r03 r12),

   where q_ij and r_ij are entries of sigma Omega sigma and of its partial
   transpose (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)). They and
   I1 - I2 vanish where nu_+ = nu_-, so the cancellation happens inside
   sums of four products that are evaluated almost exactly, and the same
   round test settles the rows with a bound made of computed quantities.
3. Every row still open (entries beyond 2**+-200 among them) is recomputed
   by the scalar route's exact integer pass, row by row.

An exact invariant beyond the float range raises :class:`OutOfRange` on
both routes, on the stack for its lowest such row.

Each measure formula is written once, as a function of its inputs and a
namespace ``xp`` of the few operations that differ between one float
(``_FLOAT``) and an (N,) column (``_COLUMN``). The scalar route is
:func:`invariants` and :func:`report_from_data`, which call the formulas on
floats, test their domains and raise; the batched route calls the same
formulas on columns, masks the rows outside a domain, and replays the
lowest row that would raise through :func:`report_from_data`, so the error
and its message are the same. No option selects the route; single matrices
always take the scalar route. Both routes take numpy's
log and write powers as products, so the batched route runs no Python per
element. numpy's SIMD log, like the propagator's exp, cos and sin, may
differ between CPUs in the last bit; on one machine the routes agree.

Every entropic measure is in nats; value / log(2) is the value in bits.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from .errors import DomainError, NonPhysicalInput, OutOfRange
from .model import check_covariance

__all__ = [
    "SymplecticData",
    "CorrelationReport",
    "invariants",
    "check_physical",
    "f_entropy",
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


@dataclass(frozen=True)
class CorrelationReport:
    """Purity, entanglement and discord of one state, plus validity flags.

    ``log_negativity`` and ``discord`` are in nats; divide by ``math.log(2)``
    for bits. ``discord`` is NaN (and ``zeta_branch`` None) when the state is
    too far from physical for the closed form to be evaluated; ``physical``
    is False in that case.
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

_INVARIANT_NAMES = ("i1", "i2", "i3", "i4", "delta", "delta_tilde", "rad", "rad_tilde")
# The least |n / s| that rounds to infinity: half an ulp above the largest
# float, a tie that rounds to even, away from its odd significand.
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _exact_block_invariants(sigma: np.ndarray):
    """Return (i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) of a
    finite 4x4 matrix as floats, each correctly rounded from an exact
    integer computation.

    One power of two makes every entry an integer: with e the frexp
    exponent of the smallest nonzero |x|, each x * 2**k, k = max(0, 53 - e),
    is one, and exact as a float unless it overflows (entries spanning
    beyond about 2**970, or 2**k itself beyond the float range); then the
    entries are converted one by one. The twelve Laplace minors, I4, Delta,
    Delta~ and both discriminants are integers over 2**(2k) or 2**(4k), and
    CPython's int / int rounds each quotient once, correctly. Raises
    :class:`OutOfRange` naming the first invariant beyond the float range.
    """
    entries = sigma.ravel().tolist()
    smallest = min(map(abs, entries)) or min(filter(None, map(abs, entries)), default=1.0)
    k = max(0, 53 - math.frexp(smallest)[1])
    try:
        scale = 2.0 ** k
        ints = list(map(int, map(scale.__mul__, entries)))
    except OverflowError:  # 2**k, or an entry times it, is not a float
        ints = [num << (k + 1 - den.bit_length())
                for num, den in map(float.as_integer_ratio, entries)]
    m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, m30, m31, m32, m33 = ints
    # the minors of rows (0, 1) times their complements in rows (2, 3),
    # signed as _MINOR_SIGNS; I1, I2 and I3 are three of them
    i1, i2, i3 = m00 * m11 - m01 * m10, m22 * m33 - m23 * m32, m02 * m13 - m03 * m12
    i4 = (i1 * i2 - (m00 * m12 - m02 * m10) * (m21 * m33 - m23 * m31)
          + (m00 * m13 - m03 * m10) * (m21 * m32 - m22 * m31)
          + (m01 * m12 - m02 * m11) * (m20 * m33 - m23 * m30)
          - (m01 * m13 - m03 * m11) * (m20 * m32 - m22 * m30)
          + i3 * (m20 * m31 - m21 * m30))
    i12, twice_i3, four_i4 = i1 + i2, 2 * i3, 4 * i4
    delta, delta_tilde = i12 + twice_i3, i12 - twice_i3
    rad, rad_tilde = delta * delta - four_i4, delta_tilde * delta_tilde - four_i4
    s2, s4 = 1 << 2 * k, 1 << 4 * k
    try:
        return (i1 / s2, i2 / s2, i3 / s2, i4 / s4, delta / s2, delta_tilde / s2,
                rad / s4, rad_tilde / s4)
    except OverflowError:
        values = (i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde)
        scales = (s2, s2, s2, s4, s2, s2, s4, s4)
        name = next(name for name, value, scale in zip(_INVARIANT_NAMES, values, scales)
                    if abs(value) >= _FLOAT_LIMIT * scale)
        raise OutOfRange(
            f"exact {name} of the covariance matrix is beyond the float range") from None


def _exact_stack(sigmas: np.ndarray) -> np.ndarray:
    """(K, 8) :func:`_exact_block_invariants` of a finite (K, 4, 4) stack,
    row by row; the lowest row beyond the float range raises its error."""
    return np.array([_exact_block_invariants(sigma) for sigma in sigmas]).reshape(-1, 8)


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


# The kernels below run each operation of the textbook expressions in the
# same order, but write their later steps in place into the temporaries they
# made, never into an input; a product written as b *= a is exact, because
# float multiplication commutes.

def _two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b)."""
    s = a + b
    bb = s - a
    e = s - bb
    np.subtract(a, e, out=e)  # a - (s - bb)
    np.subtract(b, bb, out=bb)  # b - bb
    e += bb
    return s, e


def _split(a):
    """hi + lo = a exactly, each half with at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - a
    np.subtract(c, hi, out=hi)  # c - (c - a)
    np.subtract(a, hi, out=c)  # a - hi
    return hi, c


def _two_prod(a, b):
    """p + e = a * b exactly, p = fl(a * b)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    # e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = ah * bh
    e -= p
    ah *= bl
    e += ah
    bh *= al
    e += bh
    al *= bl
    e += al
    return p, e


def _rint_product(a, b):
    """a * b rounded half to even to an integer, for |a * b| < 2**52.

    hi + lo = a * b exactly by TwoProd. hi is the product rounded, so only
    a half that hi sits on needs lo to settle which way the exact product
    rounds.
    """
    hi, lo = _two_prod(a, b)
    q = np.rint(hi)
    half = hi - q
    q += (half == 0.5) & (lo > 0)
    q -= (half == -0.5) & (lo < 0)
    return q


def _dd_add(x, y):
    s, t = _two_sum(x[0], y[0])
    t += x[1] + y[1]
    return _two_sum(s, t)


def _dd_mul(x, y):
    p, q = _two_prod(x[0], y[0])
    cross = x[0] * y[1]
    cross += x[1] * y[0]
    q += cross
    return _two_sum(p, q)


def _dd_scale(x, factor):
    """x times a power of two or a sign, which is exact."""
    return factor * x[0], factor * x[1]


def _round_test(x, e, value, proven):
    """Write to ``value`` the correctly rounded value of x (within e of
    exact) and to ``proven`` whether it is proven: both ends of the error
    interval round alike. e is overwritten.

    e is widened so that the rounding of lo -+ e cannot narrow the
    interval; adding 0.0 turns a -0.0 into the 0.0 the exact path returns.
    """
    hi, lo = x
    t = np.abs(lo)
    t += e
    t *= 2.0 ** -50
    e += t  # e + (|lo| + e) * 2**-50
    np.subtract(lo, e, out=t)
    t += hi  # low = hi + (lo - e)
    np.add(t, 0.0, out=value)
    e += lo
    e += hi  # hi + (lo + e)
    np.equal(t, e, out=proven)


# Rows (r0, r1) and columns (left, right) of the six 2x2 minors
# m[r0][left] * m[r1][right] - m[r0][right] * m[r1][left] in each half of
# the Laplace expansion: rows (0,1) take the column pair (c0,c1) of each
# _MINOR_COLS entry, rows (2,3) its (c2,c3). Column 0 of the first half is
# I1 and column 5 is I3; column 0 of the second half is I2.
_MINOR_HALVES = tuple(
    (r0, r1, [cols[r0] for cols in _MINOR_COLS], [cols[r1] for cols in _MINOR_COLS])
    for r0, r1 in ((0, 1), (2, 3))
)
_MINOR_SIGN_ROW = np.array(_MINOR_SIGNS, float)


def _dd_product(x, y):
    """x * y as a double-double, and its magnitude |x| * |y|."""
    mag = np.abs(x)
    mag *= np.abs(y)
    return _two_prod(x, y), mag


def _dd_minors(sigmas, r0, r1, left, right):
    """(N, 6) minors of one half of the Laplace expansion as a double-double,
    and their magnitudes. Each operand pair is gathered just before its
    product and released after it."""
    plus, mag = _dd_product(sigmas[:, r0, left], sigmas[:, r1, right])
    minus, mag_minus = _dd_product(sigmas[:, r0, right], sigmas[:, r1, left])
    mag += mag_minus
    for part in minus:
        part *= -1.0
    return _dd_add(plus, minus), mag


def _dd_determinants(sigmas):
    """((I1, A1), (I2, A2), (I3, A3), (I4, A4)): the four block determinants
    of a stack as double-doubles of (N,) arrays, each with its magnitude.
    None of them is a view of the minors, which are released on return."""
    (top, mag_top), (bottom, mag_bottom) = (_dd_minors(sigmas, *half) for half in _MINOR_HALVES)
    i123 = [((x[0][:, k].copy(), x[1][:, k].copy()), mag[:, k].copy())
            for x, mag, k in ((top, mag_top, 0), (bottom, mag_bottom, 0), (top, mag_top, 5))]
    for part in top:
        part *= _MINOR_SIGN_ROW
    terms = _dd_mul(top, bottom)
    i4 = terms[0][:, 0], terms[1][:, 0]
    for k in range(1, 6):
        i4 = _dd_add(i4, (terms[0][:, k], terms[1][:, k]))
    mag_top *= mag_bottom
    return (*i123, (i4, mag_top.sum(axis=1)))


def _dd_block_invariants(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, 8) invariants of a finite (N, 4, 4) stack, as from
    :func:`_exact_block_invariants`, and an (N, 8) mask of the values the
    round test proves equal to it. Rows with an entry outside the safe
    range are never accepted.

    Every row depends on its own matrix alone, so a stack of several
    trajectories gives each the rows its own call would. The twelve minors
    are built as two halves of six, rows (0,1) and rows (2,3), and released
    before the round tests, which write into the two (N, 8) results.
    """
    values, accepted = np.empty((len(sigmas), 8)), np.empty((len(sigmas), 8), bool)
    with np.errstate(all="ignore"):  # rows out of range may overflow
        (i1, a1), (i2, a2), (i3, a3), (i4, a4) = _dd_determinants(sigmas)
        i12 = _dd_add(i1, i2)
        delta = _dd_add(i12, _dd_scale(i3, 2.0))
        delta_tilde = _dd_add(i12, _dd_scale(i3, -2.0))
        a_delta = (a1 + a2) + 2.0 * a3
        minus_4i4 = _dd_scale(i4, -4.0)
        rad = _dd_add(_dd_mul(delta, delta), minus_4i4)
        rad_tilde = _dd_add(_dd_mul(delta_tilde, delta_tilde), minus_4i4)
        a_rad = a_delta * a_delta + 4.0 * a4

        for k, (x, mag) in enumerate((
                (i1, a1), (i2, a2), (i3, a3), (i4, a4), (delta, a_delta),
                (delta_tilde, a_delta), (rad, a_rad), (rad_tilde, a_rad))):
            _round_test(x, _DD_ERROR * mag, values[:, k], accepted[:, k])
    accepted &= _in_range(sigmas)[:, None]
    return values, accepted


def _in_range(sigmas):
    """(N,) mask of the matrices whose nonzero entries all lie in
    [_ENTRY_MIN, _ENTRY_MAX]."""
    absolute = np.abs(sigmas)
    return ((absolute == 0.0)
            | ((absolute >= _ENTRY_MIN) & (absolute <= _ENTRY_MAX))).all(axis=(1, 2))


# ---------------------------------------------------------------------------
# Batched discriminants of near-degenerate rows: entries of sigma Omega sigma
# ---------------------------------------------------------------------------

# With M(ab; ij) the 2x2 minor of sigma on rows (a, b) and columns (i, j),
# d = I1 - I2 and q_ij, r_ij = M(01; ij) +- M(23; ij), the discriminants are
#
#     rad       = Delta^2 - 4 I4 = d^2 + 4 (q02 q13 - q03 q12),
#     rad_tilde = Delta~^2 - 4 I4 = d^2 - 4 (r02 r13 - r03 r12)
#
# for every symmetric sigma. q_ij is entry (i, j) of sigma Omega sigma with
# Omega = diag(J, J), J = [[0, 1], [-1, 0]], and r_ij the same entry for the
# partial transpose (J -> -J in mode 2). Where nu_+ = nu_-, for pure and
# mixed states alike, sigma Omega sigma = nu^2 Omega, so d and every q
# vanish: the cancellation that costs Delta^2 - 4 I4 all its digits there
# happens inside these nine sums of four products, which are evaluated
# almost exactly, before any rounding.
#
# Error analysis (u = 2**-53). The nine sums share ten minors, M(01; c) for
# c = 01, 02, 03, 12, 13 and M(23; c) for c = 23, 02, 03, 12, 13. Each
# minor is two TwoProds p+ + f+ and p- + f-, exact. TwoSums give
# m + e = p+ + p- and then u + g + g' = f+ + f- + e, so M = m + u + g + g'
# exactly. A sum M_A +- M_B takes h + e_h = m_A +- m_B and then
# t + g + g' = u_A +- u_B + e_h: its high parts and its seven small terms
# (e, f+ and f- of both minors, and e_h) are each summed by error-free
# TwoSums, and hi + lo = h + t exactly, which leaves six TwoSum errors g,
# each O(u) of a small term. fl(sum g) is within 5.01 u sum|g| of sum g and
# lo' = fl(lo + fl(sum g)) within u |lo'| of lo + fl(sum g), so the sum is
# within
#
#     E = 2 u |lo'| + 16 u sum|g|   (2 and 16 cover the rounding of E)
#
# of hi + lo', which one more TwoSum renormalizes. E is made of computed
# quantities only and is zero when every step was exact, so exactly
# degenerate rows (t = 0, where rad = 0) are proven too; near degeneracy,
# where a sum is O(u) of its products, E is O(u^2) of the sum.
#
# Each discriminant is then c_0 z_0 + c_1 z_1 + c_2 z_2 with products
# z = x y of the sums and c = 1, 4, -4. TwoProd(xh, yh) = p + e, and the
# small part e + xh yl + xl yh drops xl yl and rounds four times: at most
# 8.1 u^2 P, P = |xh yh|. The scaled highs c p are summed by two TwoSums
# and the five small terms in plain floats (at most 4 u times their sum,
# itself at most 5.02 u sum |c| P), then one TwoSum: 28.2 u^2 sum |c| P in
# all, 64 u^2 used. Inexact sums add |x^| Ey + |y^| Ex + Ex Ey per product.
# Every term is positive and each of its few dozen roundings is below u,
# so the bound is widened by 2**-40 before _round_test. A nonzero entry in
# [2**-200, 2**200] is a multiple of 2**-252, so every nonzero product and
# TwoSum error above is a multiple of 2**-504; with every nonzero hi and E
# of the nine sums at least 2**-400, no product or bound term over- or
# underflows. Rows outside either range are never accepted.
_SUM_MIN = 2.0 ** -400
_FORM_PAIRS = ((0, 2), (0, 3), (1, 2), (1, 3))
# The ten minors as (first row, columns), and the flat (left, right)
# entries of their products m_ri m_(r+1)j and m_rj m_(r+1)i.
_FORM_MINORS = ([(0, cols) for cols in ((0, 1), *_FORM_PAIRS)]
                + [(2, cols) for cols in ((2, 3), *_FORM_PAIRS)])
_FORM_LEFT, _FORM_RIGHT, _FORM_LEFT_MINUS, _FORM_RIGHT_MINUS = np.array(
    [(4 * r + i, 4 * r + 4 + j, 4 * r + j, 4 * r + 4 + i) for r, (i, j) in _FORM_MINORS]).T
# d, q02, q03, q12, q13, r02, r03, r12, r13 as minor A + sign * minor B,
# gathered from two stacked (10, K) arrays of the ten minors at once
_FORM_A = [0, 1, 2, 3, 4, 1, 2, 3, 4]
_FORM_B = [5, 6, 7, 8, 9, 6, 7, 8, 9]
_FORM_A2, _FORM_B2 = (np.array(rows + [10 + k for k in rows]) for rows in (_FORM_A, _FORM_B))
_FORM_B_SIGN = np.array([-1.0] + [1.0] * 4 + [-1.0] * 4)[:, None]
_FORM_B_SIGN2 = np.concatenate((_FORM_B_SIGN, _FORM_B_SIGN))
# the products d d, q02 q13, q03 q12, r03 r12, r02 r13 as indices of the
# sums, and their coefficients: rad = z0 + 4 z1 - 4 z2, rad~ = z0 + 4 z3 - 4 z4;
# _FORM_XY gathers (hi, lo, E) of both factors from the stacked (27, K) sums
_FORM_X, _FORM_Y = [0, 1, 2, 6, 5], [0, 4, 3, 7, 8]
_FORM_XY = np.array([9 * part + k for factor in (_FORM_X, _FORM_Y)
                     for part in range(3) for k in factor])
_RAD_COEF = np.array([1.0, 4.0, -4.0, 4.0, -4.0])[:, None]


def _dd_form_sums(sigmas):
    """d, q02, q03, q12, q13, r02, r03, r12, r13 of a (K, 4, 4) stack as a
    double-double of (9, K) arrays, their error bounds E, and a (K,) mask
    of the rows whose nonzero |hi| and E are all at least _SUM_MIN.

    The products are formed ten rows at a time and no temporary is larger
    than (20, K): wider arrays cost more per element on a 501-row stack."""
    flat = sigmas.reshape(-1, 16).T
    p, f = _two_prod(flat[_FORM_LEFT], flat[_FORM_RIGHT])
    left = flat[_FORM_LEFT_MINUS]
    np.negative(left, out=left)
    p_minus, f_minus = _two_prod(left, flat[_FORM_RIGHT_MINUS])
    m, e = _two_sum(p, p_minus)
    u, g_minor = _two_sum(f, f_minus)
    u, g = _two_sum(u, e)
    g_abs = np.abs(g_minor)
    g_abs += np.abs(g)
    g_minor += g  # each minor is m + u + (its two g), g_abs their |g| summed
    # (m, u) of each sum's minors A and sign * B, then (h + e, t + g)
    high = np.concatenate((m, u))
    b = high[_FORM_B2]
    b *= _FORM_B_SIGN2
    s, e = _two_sum(high[_FORM_A2], b)
    h, t, e, g = s[:9], s[9:], e[:9], e[9:]
    t, g_next = _two_sum(t, e)
    hi, lo = _two_sum(h, t)
    # (sum g, sum |g|) of each sum
    low = np.concatenate((g_minor, g_abs))
    b = low[_FORM_B2]
    b[:9] *= _FORM_B_SIGN
    low = low[_FORM_A2]
    low += b
    g_sum, err = low[:9], low[9:]
    g_sum += g
    g_sum += g_next
    lo += g_sum
    err += np.abs(g)
    err += np.abs(g_next)
    err *= 2.0 ** -49
    err += 2.0 ** -52 * np.abs(lo)
    hi, lo = _two_sum(hi, lo)
    size = np.concatenate((np.abs(hi), err))
    tiny = (0.0 < size) & (size < _SUM_MIN)
    return (hi, lo), err, ~tiny.any(axis=0)


def _dd_rads(sigmas):
    """rad and rad_tilde of a (K, 4, 4) stack from the nine sums of
    :func:`_dd_form_sums`, as a double-double of (2, K) arrays, their error
    bounds, and the sums' (K,) underflow mask (the error analysis above)."""
    (hi, lo), err, safe = _dd_form_sums(sigmas)
    factors = np.concatenate((hi, lo, err))[_FORM_XY]
    xh, xl, ex, yh, yl, ey = factors.reshape(6, 5, -1)
    bound = np.abs(xh)
    bound *= ey
    bound += np.abs(yh) * ex
    ex *= ey
    bound += ex  # |x^| Ey + |y^| Ex + Ex Ey
    p, e = _two_prod(xh, yh)
    xh *= yl
    xl *= yh
    xh += xl
    e += xh  # the small part of each product
    bound += 2.0 ** -100 * np.abs(p)
    bound *= np.abs(_RAD_COEF)
    p *= _RAD_COEF
    e *= _RAD_COEF
    s, e_s = _two_sum(p[1::2], p[2::2])
    h, e_h = _two_sum(s, p[0])
    t = e[1::2] + e[2::2]
    t += e[0]
    t += e_s
    t += e_h
    err = bound[1::2] + bound[2::2]
    err += bound[0]
    err *= 1.0 + 2.0 ** -40
    return _two_sum(h, t), err, safe


def _dd_discriminants(sigmas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(K, 2) rad and rad_tilde of a finite (K, 4, 4) stack, from
    :func:`_dd_rads`, and a (K, 2) mask of the values the round test proves
    equal to :func:`_exact_block_invariants`'. Rows with an entry outside
    the safe range, or a sum that could underflow, are never accepted."""
    values, proven = np.empty((2, len(sigmas))), np.empty((2, len(sigmas)), bool)
    with np.errstate(all="ignore"):  # rows out of range may overflow
        rads, err, safe = _dd_rads(sigmas)
        _round_test(rads, err, values, proven)
    proven &= safe & _in_range(sigmas)
    return values.T, proven.T


# Fewest rows for which the sigma Omega sigma stage costs less than the exact
# pass. Each stage was timed on the first K open rows of a lambda = 0 RK4
# trajectory and on the open rows of the 15 figures' passes (K = 1..32 and
# 501; minimum over 15 x 30 calls, interleaved, three runs; 2-vCPU Xeon,
# Python 3.11, numpy 2.4). The stage costs a near-constant 125-165 us and
# the exact pass 9.5-10.5 us a row, so the two tie at K = 15 and the stage
# is cheaper from 16 rows on, in both sets and all three runs.
_STAGE2_MIN_ROWS = 16


def _invariants_stack(sigmas: np.ndarray) -> np.ndarray:
    """(N, 8) exact block invariants of an (N, 4, 4) stack, each row equal to
    :func:`_exact_block_invariants` of its slice bit for bit.

    The stack must be finite and exactly symmetric, as both integrators
    return it; it is not checked again. Three stages, each settling what it
    can prove correctly rounded: :func:`_dd_block_invariants` for all eight
    values; :func:`_dd_discriminants`, from the entries of sigma Omega sigma,
    for rows whose only open values are rad and rad_tilde (near-degenerate
    spectra: t = 0, and every row of a lambda = 0 trajectory); and
    :func:`_exact_stack` for the rows left, row by row. The second stage runs
    only for at least ``_STAGE2_MIN_ROWS`` rows; fewer go to the exact pass,
    which costs less there (a stable trajectory's t = 0 and its neighbour, a
    figure's 4-10 rows) and gives the same bits.
    """
    values, accepted = _dd_block_invariants(sigmas)
    # rows whose only open values are the discriminants
    rows = np.flatnonzero(accepted[:, :6].all(axis=1) & ~accepted[:, 6:].all(axis=1))
    if len(rows) >= _STAGE2_MIN_ROWS:
        rads, proven = _dd_discriminants(sigmas[rows])
        values[rows, 6:] = np.where(proven, rads, values[rows, 6:])
        accepted[rows, 6:] |= proven
    rejected = ~accepted.all(axis=1)
    if rejected.any():
        values[rejected] = _exact_stack(sigmas[rejected])
    return values


# ---------------------------------------------------------------------------
# Measure formulas, shared by the scalar and batched routes
# ---------------------------------------------------------------------------
# np.sqrt and the four arithmetic ops are correctly rounded like their
# scalar counterparts; math.log may differ from np.log in the last bit, so
# both routes take np.log, and powers are products (inf where they
# overflow). nonneg(x) is Python's max(x, 0.0), which keeps x on ties and
# NaN. Both sides of a where are evaluated, so no formula divides a float by
# zero or takes the root or log of a negative one. The namespaces are module
# objects, whose attributes CPython reads fastest: the scalar route reads
# them on every call.

_FLOAT, _COLUMN = ModuleType("_FLOAT"), ModuleType("_COLUMN")
vars(_FLOAT).update(
    sqrt=math.sqrt, log=lambda x: float(np.log(x)), not_=operator.not_,
    where=lambda c, a, b: a if c else b,
    nonneg=lambda x: 0.0 if 0.0 > x else x,
)
vars(_COLUMN).update(
    sqrt=np.sqrt, log=np.log, not_=np.logical_not, where=np.where,
    nonneg=lambda x: np.where(0.0 > x, 0.0, x),
)


def _eig_sq_pair(xp, delta, i4, rad):
    """Squared eigenvalue pair (lo, hi), the roots of x^2 - delta*x + i4,
    and whether it fails: rad below -_RAD_CLAMP or a root below -_NU_SQ_TOL.

    rad in (-_RAD_CLAMP, 0) is roundoff residue and clamps to zero. The
    larger root is computed directly and the smaller one as i4 divided by
    it, which avoids the cancellation delta - sqrt(rad) at degeneracy.
    """
    root = xp.sqrt(xp.nonneg(rad))
    hi = 0.5 * (delta + root)
    positive = hi > 0.0
    ratio = i4 / xp.where(positive, hi, 1.0)
    lo = xp.where(positive, xp.where(hi < ratio, hi, ratio), 0.5 * (delta - root))
    fails = (rad < -_RAD_CLAMP) | (lo < -_NU_SQ_TOL) | (hi < -_NU_SQ_TOL)
    return lo, hi, fails


def _purity(xp, nu_minus, nu_plus, i4):
    """mu = 1 / (nu_plus * nu_minus), NaN unless the product is positive, and
    whether it contradicts I4 > 0 (mu * sqrt(I4) not within 1e-9 of 1)."""
    product = nu_plus * nu_minus
    undefined = product <= 0.0
    mu = 1.0 / xp.where(undefined, math.nan, product)
    consistent = undefined | (i4 <= 0.0) | (abs(mu * xp.sqrt(abs(i4)) - 1.0) < 1e-9)
    return mu, xp.not_(consistent)


def _log_negativity(xp, nu_tilde_minus):
    """max{0, -log(nu_tilde_minus)}, for nu_tilde_minus > 0."""
    en = -xp.log(nu_tilde_minus)
    return xp.where(en > 0.0, en, 0.0)


def _f_entropy(xp, x):
    """f(x), for x > 1."""
    plus, minus = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return plus * xp.log(plus) - minus * xp.log(minus)


def _first_branch(xp, i1, i2, i3, i4):
    """Whether the first zeta branch is taken: (I4 - I1*I2)^2 <=
    (I2+1)*I3^2*(I1+I4) selects it, unless it is singular there (I2 within
    1e-8 of 1), where the second branch, equal in the limit, is taken."""
    gap = i4 - i1 * i2
    selected = gap * gap <= (i2 + 1.0) * i3 * i3 * (i1 + i4)
    return selected & xp.not_(abs(i2 - 1.0) < _DEGENERATE_I2_TOL)


def _zeta_first(xp, i1, i2, i3, i4):
    gap = i2 - 1.0
    inner = xp.nonneg(i3 * i3 + gap * (i4 - i1))  # exact zero at pure states
    num = 2.0 * i3 * i3 + gap * (i4 - i1) + 2.0 * abs(i3) * xp.sqrt(inner)
    return num / (gap * gap)


def _zeta_second(xp, i1, i2, i3, i4):
    i3_sq, gap = i3 * i3, i4 - i1 * i2
    inner = xp.nonneg(i3_sq * i3_sq + gap * gap - 2.0 * i3 * i3 * (i1 * i2 + i4))
    return (i1 * i2 - i3_sq + i4 - xp.sqrt(inner)) / (2.0 * i2)


def _discord(xp, f_b, f_minus, f_plus, f_zeta):
    """f(sqrt(I2)) - f(nu_minus) - f(nu_plus) + f(sqrt(zeta)) from its four
    terms, with results within -_DISCORD_CLAMP of zero clamped to 0.0."""
    discord = f_b - f_minus - f_plus + f_zeta
    return xp.where((-_DISCORD_CLAMP <= discord) & (discord < 0.0), 0.0, discord)


# ---------------------------------------------------------------------------
# Symplectic spectrum and measures of one matrix
# ---------------------------------------------------------------------------

def _eig_pair(delta: float, i4: float, rad: float, label: str):
    """Square roots of :func:`_eig_sq_pair`; NonPhysicalInput where it fails."""
    lo, hi, fails = _eig_sq_pair(_FLOAT, delta, i4, rad)
    if fails:
        if rad < -_RAD_CLAMP:
            raise NonPhysicalInput(f"{label} discriminant negative beyond tolerance ({rad:g})")
        value = lo if lo < -_NU_SQ_TOL else hi
        raise NonPhysicalInput(f"negative squared {label} symplectic eigenvalue ({value:g})")
    return math.sqrt(_FLOAT.nonneg(lo)), math.sqrt(_FLOAT.nonneg(hi))


def _assemble(i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) -> SymplecticData:
    nu_minus, nu_plus = _eig_pair(delta, i4, rad, "state")
    nu_tilde_minus, _ = _eig_pair(delta_tilde, i4, rad_tilde, "partial-transpose")
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


def f_entropy(x: float) -> float:
    """Bosonic entropy f(x) = (x+1)/2 log((x+1)/2) - (x-1)/2 log((x-1)/2).

    Defined for x >= 1 with f(1) = 0 (the x -> 1 limit is handled exactly,
    no NaN); monotone increasing for x > 1. Arguments within 1e-8 below 1
    (the tolerance of :func:`check_physical`, so every state that passes
    it has a defined entropy) are clamped to 1; anything lower raises
    :class:`DomainError`. In nats, like every measure here.
    """
    if x < 1.0 - _PHYSICAL_TOL:
        raise DomainError(f"entropy argument must be >= 1 (got {x})")
    if x <= 1.0:
        return 0.0
    return _f_entropy(_FLOAT, x)


def report_from_data(data: SymplecticData) -> CorrelationReport:
    """Purity, log negativity and Gaussian discord of a precomputed spectrum.

    Purity is mu = 1 / (nu_plus * nu_minus), 1 for pure states; a spectrum
    that breaks mu = 1/sqrt(det sigma) raises :class:`NonPhysicalInput`.
    Log negativity is max{0, -log(nu_tilde_minus)}, inf where
    nu_tilde_minus <= 0. The discord, mode 2 measured, is the closed form

        D = f(sqrt(I2)) - f(nu_minus) - f(nu_plus) + f(sqrt(zeta)),

    with zeta the optimal measurement variance, taken on the branch
    ("first" or "second", reported as ``zeta_branch``) chosen by the sign of
    (I4 - I1*I2)^2 - (I2+1)*I3^2*(I1+I4). The first branch has denominator
    (I2 - 1)^2 and is singular when mode 2 alone is pure (e.g. a product
    with the vacuum); such states take the second, equal in the limit. For
    mode 1 measured, pass the mode-swapped state: I1 and I2 exchanged.
    Results within -1e-9 nats of zero are clamped to 0.0. Where I2 <= 0 or
    an :func:`f_entropy` argument is below 1 - 1e-8, the closed form is
    undefined: the discord is NaN and the branch None.
    """
    i1, i2, i3, i4 = data.i1, data.i2, data.i3, data.i4
    mu, contradicts = _purity(_FLOAT, data.nu_minus, data.nu_plus, i4)
    if contradicts:
        raise NonPhysicalInput(f"purity {mu:g} contradicts det sigma = {i4:g}")
    ntm = data.nu_tilde_minus
    en = math.inf if ntm <= 0.0 else _log_negativity(_FLOAT, ntm)
    discord, branch = math.nan, None
    if not i2 <= 0.0:  # a NaN I2 goes on to a NaN discord on a branch
        first = _first_branch(_FLOAT, i1, i2, i3, i4)
        zeta = (_zeta_first if first else _zeta_second)(_FLOAT, i1, i2, i3, i4)
        try:
            discord = _discord(_FLOAT, f_entropy(math.sqrt(i2)), f_entropy(data.nu_minus),
                               f_entropy(data.nu_plus), f_entropy(math.sqrt(_FLOAT.nonneg(zeta))))
            branch = "first" if first else "second"
        except DomainError:  # an entropy argument below 1 - 1e-8
            pass
    return CorrelationReport(mu, en, discord, check_physical(data), branch)


def full_report(sigma) -> CorrelationReport:
    """Compute all correlation measures of one covariance matrix."""
    return report_from_data(invariants(sigma))


# ---------------------------------------------------------------------------
# Measures of a whole stack
# ---------------------------------------------------------------------------

def _report_columns(inv: np.ndarray):
    """Spectrum and report columns of (N, 8) invariants from
    :func:`_invariants_stack`: a :class:`SymplecticData` and a
    :class:`CorrelationReport` whose fields are (N,) arrays (``zeta_branch``
    an object array holding None), row k equal to
    ``report_from_data(_assemble(*inv[k]))`` bit for bit; the lowest row on
    which that raises raises the same exception and message here. A power
    beyond the float range is inf on both routes, never an error.
    """
    i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde = np.array(inv.T)
    xp = _COLUMN
    with np.errstate(all="ignore"):  # both sides of each where are evaluated
        lo, hi, raises = _eig_sq_pair(xp, delta, i4, rad)
        nu_minus, nu_plus = np.sqrt(xp.nonneg(lo)), np.sqrt(xp.nonneg(hi))
        lo, _, raises_tilde = _eig_sq_pair(xp, delta_tilde, i4, rad_tilde)
        nu_tilde_minus = np.sqrt(xp.nonneg(lo))
        mu, contradicts = _purity(xp, nu_minus, nu_plus, i4)
        raises |= raises_tilde | contradicts

        en = np.where(nu_tilde_minus <= 0.0, math.inf,
                      _log_negativity(xp, nu_tilde_minus))

        first = _first_branch(xp, i1, i2, i3, i4)
        zeta = np.where(first, _zeta_first(xp, i1, i2, i3, i4),
                        _zeta_second(xp, i1, i2, i3, i4))

        args = (np.sqrt(i2), nu_minus, nu_plus, np.sqrt(xp.nonneg(zeta)))
        defined = (i2 > 0.0) & ~np.any([x < 1.0 - _PHYSICAL_TOL for x in args], axis=0)
        # rows left undefined are overwritten below
        terms = [np.where(x <= 1.0, 0.0, _f_entropy(xp, x)) for x in args]
        discord = _discord(xp, *terms)
    if raises.any():  # the scalar code raises on the lowest such row
        report_from_data(_assemble(*inv[np.argmax(raises)].tolist()))
    discord[~defined] = np.nan
    branch = np.where(first, "first", "second").astype(object)
    branch[~defined] = None

    data = SymplecticData(i1, i2, i3, i4, delta, delta_tilde, nu_minus, nu_plus, nu_tilde_minus)
    return data, CorrelationReport(
        purity=mu, log_negativity=en, discord=discord,
        physical=check_physical(data), zeta_branch=branch,
    )
