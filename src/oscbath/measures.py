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
"""

from __future__ import annotations

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
