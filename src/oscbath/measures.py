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
2. For rows whose only open values are discriminants, the open ones again
   (rad alone on lambda = 0 rows), from the identities

       Delta^2 - 4 I4 = (I1 - I2)^2 + 4 (q02 q13 - q03 q12),
       Delta~^2 - 4 I4 = (I1 - I2)^2 - 4 (r02 r13 - r03 r12),

   where q_ij and r_ij are entries of sigma Omega sigma and of its partial
   transpose (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)). They and
   I1 - I2 vanish where nu_+ = nu_-, so the cancellation happens inside
   sums of four products that are evaluated almost exactly, and the same
   round test settles the rows with a bound made of computed quantities.
3. Every row still open (entries beyond 2**+-200 among them) is recomputed
   by the scalar route's exact integer pass, row by row.

The three stages share one layout: the stack's entries are copied once into
a (16, N) array, whose range mask is formed once, and each stage takes the
columns it settles; stages 1 and 2 form the 2x2 minors they need from one
table of the twelve Laplace minors with one product kernel; the invariants
come back as (8, N) columns, which the measure formulas below read in place.

An exact invariant beyond the float range raises :class:`OutOfRange` on
both routes, on the stack for its lowest such row.

Each measure formula is written once, as a function of its inputs and a
namespace ``xp`` of the few operations that differ between one float
(``_FLOAT``) and an array of columns (``_COLUMN``). The scalar route is
:func:`invariants` and :func:`report_from_data`, which call the formulas on
floats, test their domains and raise; the batched route calls the same
formulas on (N,) columns, or on (k, N) stacks of like columns, since every
formula is elementwise, masks the rows outside a domain, and replays the
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

# The twelve Laplace minors M(ab; ij) = m_ai m_bj - m_aj m_bi of a 4x4 matrix
# as (row pair, column pair, operand indices): rows (0, 1) with each column
# pair, then rows (2, 3) with the complementary pairs, so that minor k times
# minor 6 + k, signed by _MINOR_SIGNS, is the k-th term of the Laplace
# expansion of I4. Minors 0, 6 and 5 are I1, I2 and I3. The operands are the
# flat entries 4 a + i of the left and right factors of the plus product
# m_ai m_bj, then of the minus product m_aj m_bi; _OPERANDS holds them as
# four rows with one column per minor.
_COLUMN_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_MINORS = [((a, a + 1), (i, j), (4 * a + i, 4 * a + 4 + j, 4 * a + j, 4 * a + 4 + i))
           for a, pairs in ((0, _COLUMN_PAIRS), (2, _COLUMN_PAIRS[::-1])) for i, j in pairs]
_MINOR_SIGNS = (1, -1, 1, 1, -1, 1)
_OPERANDS = np.array([operands for _, _, operands in _MINORS]).T

_INVARIANT_NAMES = ("i1", "i2", "i3", "i4", "delta", "delta_tilde", "rad", "rad_tilde")
# The least |n / s| that rounds to infinity: half an ulp above the largest
# float, a tie that rounds to even, away from its odd significand.
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _exact_block_invariants(entries: list[float]):
    """Return (i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) of a
    finite 4x4 matrix, given as the list of its 16 entries row by row, as
    floats, each correctly rounded from an exact integer computation.

    One power of two makes every entry an integer: with e the frexp
    exponent of the smallest nonzero |x|, each x * 2**k, k = max(0, 53 - e),
    is one, and exact as a float unless it overflows (entries spanning
    beyond about 2**970, or 2**k itself beyond the float range); then the
    entries are converted one by one. The twelve Laplace minors, I4, Delta,
    Delta~ and both discriminants are integers over 2**(2k) or 2**(4k), and
    CPython's int / int rounds each quotient once, correctly. Raises
    :class:`OutOfRange` naming the first invariant beyond the float range.
    """
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


def _exact_stack(entries: np.ndarray) -> np.ndarray:
    """(8, K) :func:`_exact_block_invariants` of a finite stack, given as its
    (16, K) :func:`_entries`, matrix by matrix; the lowest matrix beyond the
    float range raises its error."""
    return np.array([_exact_block_invariants(row) for row in entries.T.tolist()]).reshape(-1, 8).T


# ---------------------------------------------------------------------------
# Batched block determinants: double-double with a round test
# ---------------------------------------------------------------------------

# A double-double is a pair (hi, lo) of arrays standing for hi + lo. Each
# value below also carries a magnitude A, the same polynomial evaluated on
# |entries|. The ops add at most 3.1 u^2 (sum) and 8.1 u^2 (product) of the
# operand magnitudes to the error (u = 2**-53). Relative to A: the minors
# (I1, I2, I3) are within 3.1 u^2, the six Laplace terms within
# 3.1 + 3.1 + 8.1 = 14.3 u^2, and I4, their sum as a tree of depth three
# ((t0 + t1) + (t2 + t3)) + (t4 + t5), within 14.3 + 3 * 3.1 = 23.6 u^2
# (a chain of five sums would give 29.8). Delta = (I1 + I2) + 2 I3 is
# within 9.3 u^2, Delta^2 within 2 * 9.3 + 8.1 = 26.7 u^2, so the deepest
# value, rad = Delta^2 - 4 I4, is within 26.7 + 3.1 = 29.8 u^2 A of exact;
# _DD_ERROR = 128 u^2 leaves room for the rounding of A itself. Nonzero
# entries in [2**-200, 2**200] keep every product, error term and bound in
# the normal float range.
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
    """a * b rounded half to even to an integer, for |a * b| < 2**52 and
    arrays a and b of one shape.

    Below 2**52 every half-integer is a float, so hi = fl(a * b) lies on the
    same side of each one as the exact product unless hi sits on one; only
    there does TwoProd's low part lo = a * b - hi settle which way the exact
    product rounds, and only there is it computed.
    """
    hi = a * b
    q = np.rint(hi)
    tie = np.nonzero(abs(hi - q) == 0.5)
    if tie[0].size:
        half, lo = hi[tie] - q[tie], _two_prod(a[tie], b[tie])[1]
        q[tie] += (half == 0.5) & (lo > 0)
        q[tie] -= (half == -0.5) & (lo < 0)
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


_MINOR_SIGN_COL = np.array(_MINOR_SIGNS, float)[:, None]
_PLUS_MINUS_TWO = np.array([[2.0], [-2.0]])


def _entries(sigmas):
    """The (16, N) entries of an (N, 4, 4) stack as one contiguous array,
    row 4 r + c holding every sigma[r, c]."""
    return np.ascontiguousarray(sigmas.reshape(len(sigmas), 16).T)


def _in_range(entries):
    """(N,) mask of the matrices, given as (16, N) :func:`_entries`, whose
    nonzero entries all lie in [_ENTRY_MIN, _ENTRY_MAX]."""
    absolute = np.abs(entries)
    return ((absolute == 0.0)
            | ((absolute >= _ENTRY_MIN) & (absolute <= _ENTRY_MAX))).all(axis=0)


def _minor_products(entries, operands):
    """The plus products and the negated minus products of the minors whose
    _OPERANDS columns are ``operands``, as two TwoProds (p, e) of (k, N)
    arrays, from (16, N) :func:`_entries`: each minor is the exact sum of
    the four."""
    plus = _two_prod(entries[operands[0]], entries[operands[1]])
    factor = entries[operands[2]]
    np.negative(factor, out=factor)
    return plus, _two_prod(factor, entries[operands[3]])


def _dd_minors(entries, operands):
    """The minors of ``operands`` as a double-double of (k, N) arrays, and
    their magnitudes."""
    plus, minus = _minor_products(entries, operands)
    mag = np.abs(plus[0])  # |fl(x y)| = fl(|x| |y|)
    mag += np.abs(minus[0])
    return _dd_add(plus, minus), mag


def _dd_invariants(entries):
    """((hi, lo), A): the eight invariants of a finite stack, given as its
    :func:`_entries`, as a double-double of (8, N) arrays, unrounded, and
    their magnitudes, in the order of _INVARIANT_NAMES (the error analysis
    above).

    Like values are stacked as rows of one array, so that each kernel call
    forms several: the six minors of a Laplace half (one half at a time, so
    that no more than six rows of products are in flight), the six Laplace
    terms, the three pair sums of I4's tree, Delta and Delta~, and both
    discriminants."""
    top, a_top = _dd_minors(entries, _OPERANDS[:, :6])
    bottom, a_bottom = _dd_minors(entries, _OPERANDS[:, 6:])
    terms = _dd_mul((top[0] * _MINOR_SIGN_COL, top[1] * _MINOR_SIGN_COL), bottom)
    pairs = _dd_add((terms[0][0::2], terms[1][0::2]), (terms[0][1::2], terms[1][1::2]))
    i4 = _dd_add(_dd_add((pairs[0][:1], pairs[1][:1]), (pairs[0][1:2], pairs[1][1:2])),
                 (pairs[0][2:], pairs[1][2:]))
    i12 = _dd_add((top[0][:1], top[1][:1]), (bottom[0][:1], bottom[1][:1]))
    deltas = _dd_add(i12, (top[0][5:] * _PLUS_MINUS_TWO, top[1][5:] * _PLUS_MINUS_TWO))
    rads = _dd_add(_dd_mul(deltas, deltas), (-4.0 * i4[0], -4.0 * i4[1]))
    hi, lo = (np.concatenate((t[:1], b[:1], t[5:], d, dl, r))
              for t, b, d, dl, r in zip(top, bottom, i4, deltas, rads))

    a = np.empty((8, entries.shape[1]))
    a[0], a[1], a[2] = a_top[0], a_bottom[0], a_top[5]
    a_top *= a_bottom
    a_top.sum(axis=0, out=a[3])
    np.add(a[0], a[1], out=a[4])
    a[4] += 2.0 * a[2]
    a[5] = a[4]
    np.multiply(a[4], a[4], out=a[6])
    a[6] += 4.0 * a[3]
    a[7] = a[6]
    return (hi, lo), a


def _dd_block_invariants(entries, in_range) -> tuple[np.ndarray, np.ndarray]:
    """(8, N) invariants of a finite stack, given as its (16, N)
    :func:`_entries`, as from :func:`_exact_block_invariants`, and an (8, N)
    mask of the values the round test proves equal to it. Matrices outside
    the (N,) ``in_range`` mask (:func:`_in_range`) are never accepted.

    Every column depends on its own matrix alone, so a stack of several
    trajectories gives each the columns its own call would.
    """
    with np.errstate(all="ignore"):  # matrices out of range may overflow
        x, mag = _dd_invariants(entries)
        mag *= _DD_ERROR
        values, accepted = np.empty(mag.shape), np.empty(mag.shape, bool)
        _round_test(x, mag, values, accepted)
    accepted &= in_range
    return values, accepted


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
# z = x y of its five sums and c = 1, +-4, -+4. TwoProd(xh, yh) = p + e, and the
# small part e + xh yl + xl yh drops xl yl and rounds four times: at most
# 8.1 u^2 P, P = |xh yh|. The scaled highs c p are summed by two TwoSums
# and the five small terms in plain floats (at most 4 u times their sum,
# itself at most 5.02 u sum |c| P), then one TwoSum: 28.2 u^2 sum |c| P in
# all, 64 u^2 used. Inexact sums add |x^| Ey + |y^| Ex + Ex Ey per product.
# Every term is positive and each of its few dozen roundings is below u,
# so the bound is widened by 2**-40 before _round_test. A nonzero entry in
# [2**-200, 2**200] is a multiple of 2**-252, so every nonzero product and
# TwoSum error above is a multiple of 2**-504; with every nonzero hi and E
# of its five sums at least 2**-400, no product or bound term over- or
# underflows. Rows outside either range are never accepted.
_SUM_MIN = 2.0 ** -400
# _OPERANDS of the ten minors M(01; c), c = 01, 02, 03, 12, 13, then M(23; c),
# c = 23, 02, 03, 12, 13: rows k and 5 + k are A and B of the k-th sum A +- B.
_FORM_OPERANDS = _OPERANDS[:, [0, 1, 2, 3, 4, 6, 10, 9, 8, 7]]
# For rad (s = q) and rad_tilde (s = r): the signs of B in the five sums, and
# the coefficients of the products d d, s02 s13, s03 s12, so that
# rad = d d + 4 q02 q13 - 4 q03 q12 and rad_tilde = d d - 4 r02 r13 + 4 r03 r12
_FORM_SIGNS = np.array([[-1.0, 1.0, 1.0, 1.0, 1.0], [-1.0] * 5])[:, :, None]
_RAD_COEFS = np.array([[1.0, 4.0, -4.0], [1.0, -4.0, 4.0]])[:, :, None]


def _dd_form_minors(entries):
    """The ten minors of _FORM_OPERANDS of a stack's (16, K) :func:`_entries`
    as (10, K) arrays (m, u, g, |g|): each is m + u + g exactly, g and |g|
    the sum and the summed magnitudes of its two TwoSum errors."""
    (p, f), (p_minus, f_minus) = _minor_products(entries, _FORM_OPERANDS)
    m, e = _two_sum(p, p_minus)
    u, g_minor = _two_sum(f, f_minus)
    u, g = _two_sum(u, e)
    g_abs = np.abs(g_minor)
    g_abs += np.abs(g)
    g_minor += g
    return m, u, g_minor, g_abs


def _dd_form_sums(minors, sign):
    """d, s02, s03, s12, s13 = A + sign * B of (10, k) :func:`_dd_form_minors`
    as a double-double of (5, k) arrays, their error bounds E, and a (k,)
    mask of the matrices whose nonzero |hi| and E are all at least _SUM_MIN;
    ``sign`` = _FORM_SIGNS[0] gives d and the q_ij, the sums behind Q."""
    m, u, g_minor, g_abs = minors
    h, e = _two_sum(m[:5], m[5:] * sign)
    t, g = _two_sum(u[:5], u[5:] * sign)
    t, g_next = _two_sum(t, e)
    hi, lo = _two_sum(h, t)
    g_sum = g_minor[5:] * sign
    g_sum += g_minor[:5]
    g_sum += g
    g_sum += g_next
    lo += g_sum
    err = g_abs[:5] + g_abs[5:]
    err += np.abs(g)
    err += np.abs(g_next)
    err *= 2.0 ** -49
    err += 2.0 ** -52 * np.abs(lo)
    hi, lo = _two_sum(hi, lo)
    size = np.concatenate((np.abs(hi), err))
    return (hi, lo), err, ~((0.0 < size) & (size < _SUM_MIN)).any(axis=0)


def _dd_form_products(hi, lo, err):
    """The products d d, s02 s13, s03 s12 of :func:`_dd_form_sums`' sums as
    (3, k) arrays p + e, and their bounds before the coefficients."""
    xh, xl, ex = hi[:3], lo[:3], err[:3]
    yh, yl, ey = hi[[0, 4, 3]], lo[[0, 4, 3]], err[[0, 4, 3]]
    bound = np.abs(xh)
    bound *= ey
    bound += np.abs(yh) * ex
    ey *= ex
    bound += ey  # |x^| Ey + |y^| Ex + Ex Ey
    p, e = _two_prod(xh, yh)
    yl *= xh
    yl += xl * yh
    e += yl  # the small part of each product
    bound += 2.0 ** -100 * np.abs(p)
    return (p, e), bound


def _dd_rad(minors, which):
    """rad (``which`` 0) or rad_tilde (1) of (10, k) :func:`_dd_form_minors`
    as a double-double of (k,) arrays, its error bound, and the sums' (k,)
    underflow mask (the error analysis above)."""
    sums, err, safe = _dd_form_sums(minors, _FORM_SIGNS[which])
    (p, e), bound = _dd_form_products(*sums, err)
    coef = _RAD_COEFS[which]
    bound *= np.abs(coef)
    p *= coef
    e *= coef
    s, e_s = _two_sum(p[1], p[2])
    h, e_h = _two_sum(s, p[0])
    t = e[1] + e[2]
    t += e[0]
    t += e_s
    t += e_h
    err = bound[1] + bound[2]
    err += bound[0]
    err *= 1.0 + 2.0 ** -40
    return _two_sum(h, t), err, safe


def _dd_discriminants(entries, in_range, open_) -> tuple[np.ndarray, np.ndarray]:
    """(2, K) rad and rad_tilde of a finite stack's (16, K) :func:`_entries`,
    each from :func:`_dd_rad` on the columns where the (2, K) mask ``open_``
    asks for it, and a (2, K) mask of the values the round test proves equal
    to :func:`_exact_block_invariants`' (False where not asked), never on a
    matrix outside the (K,) ``in_range`` mask or with a sum that may underflow."""
    values, proven = np.zeros(open_.shape), np.zeros(open_.shape, bool)
    with np.errstate(all="ignore"):  # matrices out of range may overflow
        minors = _dd_form_minors(entries)
        for which in np.flatnonzero(open_.any(axis=1)):
            cols = slice(None) if open_[which].all() else np.flatnonzero(open_[which])
            rad, err, safe = _dd_rad([x[:, cols] for x in minors], which)
            value, ok = np.empty(err.shape), np.empty(err.shape, bool)
            _round_test(rad, err, value, ok)
            values[which, cols] = value
            proven[which, cols] = ok & safe & in_range[cols]
    return values, proven


# Fewest rows for which the sigma Omega sigma stage costs less than the exact
# pass, timed on the first K open rows of a lambda = 0 RK4 trajectory and on
# the open rows of the 15 figures' passes (K = 1..32 and 501; minimum over
# 15 x 30 calls, interleaved, three runs; 2-vCPU Xeon, Python 3.11, numpy
# 2.4). The stage costs a near-constant 103-133 us (307-319 us on 501 rows)
# and the exact pass 7.6-10.6 us a row: they tie at K = 14, the stage is
# cheaper from 15 rows on in all three runs, and 16 leaves a row of margin.
_STAGE2_MIN_ROWS = 16


def _invariants_stack(sigmas: np.ndarray) -> np.ndarray:
    """(8, N) exact block invariants of an (N, 4, 4) stack, in the order of
    _INVARIANT_NAMES, column k equal to :func:`_exact_block_invariants` of
    sigma k bit for bit.

    The stack must be finite and exactly symmetric, as both integrators
    return it; it is not checked again. Three stages, each settling what it
    can prove correctly rounded: :func:`_dd_block_invariants` for all eight
    values; :func:`_dd_discriminants`, from the entries of sigma Omega sigma,
    for the discriminants left open on rows with no other open value
    (near-degenerate spectra: t = 0, and rad on every row of a lambda = 0
    trajectory); and
    :func:`_exact_stack` for the rows left, row by row. The second stage runs
    only for at least ``_STAGE2_MIN_ROWS`` rows; fewer go to the exact pass,
    which costs less there (a stable trajectory's t = 0 and its neighbour, a
    figure's 4-10 rows) and gives the same bits.
    """
    entries = _entries(sigmas)
    in_range = _in_range(entries)
    values, accepted = _dd_block_invariants(entries, in_range)
    # rows whose only open values are the discriminants
    rows = np.flatnonzero(accepted[:6].all(axis=0) & ~accepted[6:].all(axis=0))
    if len(rows) >= _STAGE2_MIN_ROWS:
        rows = slice(None) if len(rows) == len(sigmas) else rows  # views, not gathers
        rads, proven = _dd_discriminants(entries[:, rows], in_range[rows], ~accepted[6:, rows])
        values[6:, rows] = np.where(proven, rads, values[6:, rows])
        accepted[6:, rows] |= proven
    rejected = ~accepted.all(axis=0)
    if rejected.any():
        values[:, rejected] = _exact_stack(entries[:, rejected])
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
    values = _exact_block_invariants(arr.ravel().tolist())
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

_BRANCHES = np.array(["first", "second", None], dtype=object)


def _report_columns(columns: np.ndarray):
    """Spectrum and report columns of (8, N) invariants from
    :func:`_invariants_stack`: a :class:`SymplecticData` and a
    :class:`CorrelationReport` whose fields are (N,) arrays (``zeta_branch``
    an object array holding None), row k equal to
    ``report_from_data(_assemble(*columns[:, k]))`` bit for bit; the lowest
    row on which that raises raises the same exception and message here. A
    power beyond the float range is inf on both routes, never an error. The
    first six fields of the spectrum are views of ``columns``.
    """
    i1, i2, i3, i4, delta, delta_tilde, _, _ = columns
    xp = _COLUMN
    with np.errstate(all="ignore"):  # both sides of each where are evaluated
        # the state's pair in row 0, the partial transpose's in row 1
        lo, hi, raises = _eig_sq_pair(xp, columns[4:6], i4, columns[6:])
        first = _first_branch(xp, i1, i2, i3, i4)
        zeta = np.where(first, _zeta_first(xp, i1, i2, i3, i4),
                        _zeta_second(xp, i1, i2, i3, i4))
        # nu_tilde_minus, then the four entropy arguments in the order of
        # _discord: sqrt(I2), nu_minus, nu_plus, sqrt(zeta); a NaN or
        # positive I2 is its own nonneg
        roots = np.sqrt(xp.nonneg(np.stack((lo[1], i2, lo[0], hi[0], zeta))))
        nu_tilde_minus, args = roots[0], roots[1:]
        nu_minus, nu_plus = args[1], args[2]
        mu, contradicts = _purity(xp, nu_minus, nu_plus, i4)
        raises = raises.any(axis=0) | contradicts

        en = np.where(nu_tilde_minus <= 0.0, math.inf,
                      _log_negativity(xp, nu_tilde_minus))

        # the scalar route's `not i2 <= 0.0`: a NaN I2 is defined
        defined = ~(i2 <= 0.0) & ~(args < 1.0 - _PHYSICAL_TOL).any(axis=0)
        # rows left undefined are overwritten below
        discord = _discord(xp, *np.where(args <= 1.0, 0.0, _f_entropy(xp, args)))
    if raises.any():  # the scalar code raises on the lowest such row
        report_from_data(_assemble(*columns[:, np.argmax(raises)].tolist()))
    discord[~defined] = np.nan
    branch = _BRANCHES[np.where(defined, ~first, 2)]

    data = SymplecticData(i1, i2, i3, i4, delta, delta_tilde, nu_minus, nu_plus, nu_tilde_minus)
    return data, CorrelationReport(
        purity=mu, log_negativity=en, discord=discord,
        physical=check_physical(data), zeta_branch=branch,
    )
