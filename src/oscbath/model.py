"""System parameters and initial states for two coupled oscillators in a bath.

The model consists of two harmonic oscillators with frequencies
``omega1 = omega*sqrt(1 + epsilon)`` and ``omega2 = omega*sqrt(1 - epsilon)``,
coupled through their positions with strength ``nu`` and damped at rate
``lambda_`` by a thermal bath of temperature ``temperature``. Natural units
(hbar = m = k_B = 1) are used everywhere, so the vacuum covariance matrix is
the 4x4 identity. Phase-space ordering is (x1, p1, x2, p2) throughout the
package; no other ordering or normalization is supported.

All types are immutable and all functions are pure, so everything here is
safe to use from concurrent code without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, OutOfRange

__all__ = [
    "SystemParams",
    "ValidationResult",
    "validate",
    "require_valid",
    "mode_frequencies",
    "coupling_bound",
    "initial_squeezed_vacuum",
    "check_covariance",
]


@dataclass(frozen=True)
class SystemParams:
    """Full parameter tuple of the model, in natural units.

    Attributes:
        omega: base angular frequency, > 0.
        epsilon: frequency asymmetry, 0 <= epsilon < 1 (0 means identical
            oscillators).
        nu: position-position coupling constant; negative values attract,
            positive repel. Physical only for |nu| <= omega1*omega2.
        lambda_: dissipation rate, >= 0.
        temperature: bath temperature, >= 0.
        r: squeezing of the initial two-mode squeezed vacuum, >= 0.
    """

    omega: float
    epsilon: float
    nu: float
    lambda_: float
    temperature: float
    r: float


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`: violations are fatal, warnings are not."""

    ok: bool
    violations: tuple[str, ...]
    warnings: tuple[str, ...]


# The float initial state holds ch = fl(cosh 2r) and sh = fl(sinh 2r), each
# within one ulp (2u, u = 2**-53) of exact, so its symplectic eigenvalue
# squared, ch^2 - sh^2, is within 8 cosh^2(2r) u of 1 (typically about
# 2 cosh^2(2r) u). The measures call a state physical while nu_- >= 1 - 1e-8,
# that is ch^2 - sh^2 >= 1 - 2e-8, so the float state is certain to pass
# while 4 cosh^2(2r) u <= 1e-8: r <= acosh(sqrt(1e-8 / (4 u))) / 2.
_SQUEEZING_LIMIT = 0.5 * math.acosh(math.sqrt(1e-8 / 2.0 ** -51))  # 4.5790...


def validate(params: SystemParams) -> ValidationResult:
    """Check every parameter constraint and report all failures at once.

    lambda = 0 is accepted but flagged with a warning, because no steady
    state exists without dissipation. So is a squeezing r above the
    supported range r <= 4.579 (``_SQUEEZING_LIMIT``): near r = 4.66 some
    t = 0 states already read non-physical, and from r = 7 on the float
    state is itself non-physical.
    """
    violations = []
    warnings = []
    p = params

    omega_ok = p.omega > 0 and math.isfinite(p.omega)
    if not omega_ok:
        violations.append(f"omega must be finite and > 0 (got {p.omega})")
    if not 0.0 <= p.epsilon < 1.0:
        violations.append(f"epsilon must satisfy 0 <= epsilon < 1 (got {p.epsilon})")
    nu_ok = math.isfinite(p.nu)
    if not nu_ok:
        violations.append(f"nu must be finite (got {p.nu})")
    if not (p.lambda_ >= 0 and math.isfinite(p.lambda_)):
        violations.append(f"lambda must be finite and >= 0 (got {p.lambda_})")
    if not (p.temperature >= 0 and math.isfinite(p.temperature)):
        violations.append(f"temperature must be finite and >= 0 (got {p.temperature})")
    if not (p.r >= 0 and math.isfinite(p.r)):
        violations.append(f"r must be finite and >= 0 (got {p.r})")

    if omega_ok and 0.0 <= p.epsilon < 1.0:
        w1, _ = mode_frequencies(p)
        bound = coupling_bound(p)
        # omega1 >= omega2, so a finite omega1**2 bounds omega1*omega2 too
        if not math.isfinite(w1 * w1):
            violations.append(
                f"omega1**2 and omega1*omega2 must be finite (got omega1 = {w1:.12g})"
            )
        elif nu_ok and not abs(p.nu) <= bound:
            violations.append(
                f"|nu| <= omega1*omega2 violated (|{p.nu}| > {bound:.12g})"
            )

    warnings += _squeezing_warnings(p.r)
    if p.lambda_ == 0:
        warnings.append("lambda = 0: no dissipation, no steady state")

    return ValidationResult(ok=not violations, violations=tuple(violations),
                            warnings=tuple(warnings))


def _squeezing_warnings(r: float) -> list[str]:
    """:func:`validate`'s warning for an r beyond the supported squeezing range."""
    if not (math.isfinite(r) and r > _SQUEEZING_LIMIT):
        return []
    return [f"r = {r} is beyond the supported squeezing range r <= "
            f"{_SQUEEZING_LIMIT:.4f}: the initial state's rounding, up to "
            "8 cosh^2(2r) u, may pass the 1e-8 physicality tolerance"]


def require_valid(params: SystemParams) -> None:
    """Raise :class:`InvalidParameters` listing every violated constraint."""
    result = validate(params)
    if not result.ok:
        raise InvalidParameters("; ".join(result.violations))


def mode_frequencies(params: SystemParams) -> tuple[float, float]:
    """Return (omega1, omega2) = omega*(sqrt(1+epsilon), sqrt(1-epsilon)).

    omega1 >= omega2 > 0 for any valid parameter set.
    """
    p = params
    if not (p.omega > 0 and 0.0 <= p.epsilon < 1.0):
        raise InvalidParameters(
            f"mode frequencies need omega > 0 and 0 <= epsilon < 1 "
            f"(got omega={p.omega}, epsilon={p.epsilon})"
        )
    return p.omega * math.sqrt(1.0 + p.epsilon), p.omega * math.sqrt(1.0 - p.epsilon)


def coupling_bound(params: SystemParams) -> float:
    """Stability bound omega1*omega2 on |nu|, in exactly one float order.

    |nu| above it is invalid and |nu| equal to it is marginal; every check
    of either uses this value, so +-omega1*omega2 is marginal everywhere.
    """
    w1, w2 = mode_frequencies(params)
    return w1 * w2


def initial_squeezed_vacuum(r: float) -> np.ndarray:
    """Covariance matrix of a two-mode squeezed vacuum with squeezing r >= 0.

    Diagonal entries are cosh(2r); the (x1, x2) correlations are +sinh(2r)
    and the (p1, p2) correlations are -sinh(2r). The state is pure:
    det(sigma) = 1 and both symplectic eigenvalues equal 1. r = 0 gives the
    vacuum (identity matrix). An r whose cosh(2r) is beyond the float
    range (r above about 355) raises :class:`OutOfRange`.
    """
    if not r >= 0:
        raise InvalidParameters(f"squeezing r must be >= 0 (got {r})")
    try:
        ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    except OverflowError:
        ch = math.inf
    if ch == math.inf:  # 2r itself may be inf, which cosh takes without error
        raise OutOfRange(f"squeezing r = {r} puts cosh(2r) beyond the float range")
    return np.array([
        [ch, 0.0, sh, 0.0],
        [0.0, ch, 0.0, -sh],
        [sh, 0.0, ch, 0.0],
        [0.0, -sh, 0.0, ch],
    ])


# Largest max-abs asymmetry of a matrix accepted as a covariance matrix.
_SYMMETRY_TOL = 1e-12


def check_covariance(sigma) -> np.ndarray:
    """Validate a covariance matrix and return it as a fresh float array.

    Requires a real, finite 4x4 matrix that is symmetric within 1e-12 in
    max-abs. Positive definiteness is not enforced here; sub-vacuum and
    outright non-physical matrices are diagnosed by the measures module.
    Both tests run on the entries as Python floats, cheaper than numpy on so
    small an array; the max-abs asymmetry is the largest of six |a_ij - a_ji|.
    """
    arr = np.array(sigma, dtype=float)
    if arr.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4 (got shape {arr.shape})")
    r0, r1, r2, r3 = arr.tolist()
    # tested first and on its own: Python's max drops a NaN that is not first
    if not all(map(math.isfinite, r0 + r1 + r2 + r3)):
        raise ValueError("covariance matrix entries must be finite")
    asym = max(abs(r0[1] - r1[0]), abs(r0[2] - r2[0]), abs(r0[3] - r3[0]),
               abs(r1[2] - r2[1]), abs(r1[3] - r3[1]), abs(r2[3] - r3[2]))
    if not asym <= _SYMMETRY_TOL:
        raise ValueError(
            f"covariance matrix must be symmetric within {_SYMMETRY_TOL:g} "
            f"(max asymmetry {asym:g})"
        )
    return arr
