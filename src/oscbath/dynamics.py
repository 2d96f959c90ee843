"""Covariance-matrix dynamics: drift, diffusion, propagation, steady state.

Under Markovian damping the covariance matrix obeys the linear flow

    d(sigma)/dt = M sigma + sigma M^T + 2 D,

with drift matrix M (harmonic motion, position coupling, uniform damping
-lambda on the diagonal) and diagonal diffusion matrix D carrying the
thermal occupation factors coth(omega_i / 2T). When M is strictly stable
the solution has the closed form

    sigma(t) = e^{Mt} (sigma(0) - sigma_inf) (e^{Mt})^T + sigma_inf,

where sigma_inf is the unique solution of M S + S M^T = -2 D. Both the
closed form and an independent fixed-step Runge-Kutta integrator of the
differential form are provided; the integrator also covers the marginal
cases (lambda = 0 or |nu| = omega1*omega2) where no steady state exists.

All functions are pure; different time points or parameter sets may be
evaluated concurrently with no shared state.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SteadyStateUnavailable
from .model import (
    SystemParams,
    check_covariance,
    coupling_bound,
    mode_frequencies,
    require_valid,
)

__all__ = [
    "thermal_coth",
    "build_drift",
    "build_diffusion",
    "mat_exp",
    "steady_state",
    "steady_state_available",
    "propagate",
    "ode_oracle",
]


def thermal_coth(omega_i: float, temperature: float) -> float:
    """Thermal occupation factor coth(omega_i / (2*T)) = 2*nbar + 1.

    Returns exactly 1.0 at T = 0 (and whenever the argument is large enough
    to underflow); computed as 1 + 2/(e^{omega/T} - 1), which is
    overflow-free and accurate for small arguments as well.
    """
    if not omega_i > 0:
        raise ValueError(f"omega_i must be > 0 (got {omega_i})")
    if not temperature >= 0:
        raise ValueError(f"temperature must be >= 0 (got {temperature})")
    if temperature == 0.0:
        return 1.0
    x = omega_i / temperature
    if x > 700.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(x)


def build_drift(params: SystemParams) -> np.ndarray:
    """Drift matrix M of the covariance flow, in (x1, p1, x2, p2) ordering.

    Rows are (-lambda, 1, 0, 0), (-omega1^2, -lambda, -nu, 0),
    (0, 0, -lambda, 1), (-nu, 0, -omega2^2, -lambda). Strictly stable
    (all eigenvalue real parts equal to -lambda) whenever lambda > 0 and
    |nu| < omega1*omega2.
    """
    require_valid(params)
    w1, w2 = mode_frequencies(params)
    lam = params.lambda_
    nu = params.nu
    return np.array(
        [
            [-lam, 1.0, 0.0, 0.0],
            [-w1 * w1, -lam, -nu, 0.0],
            [0.0, 0.0, -lam, 1.0],
            [-nu, 0.0, -w2 * w2, -lam],
        ]
    )


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal of the diffusion matrix D as a length-4 vector.

    Entries are (lambda/omega1 * c1, lambda*omega1 * c1,
    lambda/omega2 * c2, lambda*omega2 * c2) with c_i = coth(omega_i / 2T);
    all nonnegative, and exactly zero when lambda = 0.
    """
    require_valid(params)
    w1, w2 = mode_frequencies(params)
    lam = params.lambda_
    c1 = thermal_coth(w1, params.temperature)
    c2 = thermal_coth(w2, params.temperature)
    return np.array([lam / w1 * c1, lam * w1 * c1, lam / w2 * c2, lam * w2 * c2])


# Pade-13 numerator coefficients and the largest scaled norm for which the
# approximant stays at double-precision accuracy.
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def _pade13(a: np.ndarray) -> np.ndarray:
    """Order-13 diagonal Pade approximant of e^a for one matrix or a stack."""
    b = _PADE13
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    )
    return np.linalg.solve(v - u, v + u)


def mat_exp(m: np.ndarray, t: float | np.ndarray = 1.0) -> np.ndarray:
    """Matrix exponential e^{m*t} by scaling and squaring.

    m*t is scaled by a power of two chosen from its 1-norm so that the
    order-13 diagonal rational (Pade) approximant is at full double
    precision, then the result is squared back up. Relative accuracy is
    around 1e-14 for the well-conditioned 4x4 drift matrices used here.

    ``t`` is a finite scalar, giving one n x n matrix, or a 1-D array of N
    finite times, giving an (N, n, n) stack evaluated in one batch: each
    slice is scaled and squared by its own count and equals the scalar call
    at that time bit for bit. A non-finite time raises ``ValueError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square (got shape {m.shape})")
    if not isinstance(t, float) and np.ndim(t) > 0:
        return _mat_exp_stack(m, np.asarray(t, dtype=float))
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite (got {t})")
    a = m * t
    norm = np.linalg.norm(a, 1)
    if norm == 0.0:
        return np.eye(a.shape[0])
    squarings = 0
    if norm > _THETA13:
        squarings = int(math.ceil(math.log2(norm / _THETA13)))
        a = a / (2.0 ** squarings)
    result = _pade13(a)
    for _ in range(squarings):
        result = result @ result
    return result


def _mat_exp_stack(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    if t.ndim != 1:
        raise ValueError(
            f"times must be a scalar or a 1-D array (got shape {t.shape})"
        )
    if not np.all(np.isfinite(t)):
        raise ValueError(f"times must be finite (got {t})")
    a = m * t[:, None, None]
    norms = np.abs(a).sum(-2).max(-1)
    # math.log2, not np.log2, so each count is the scalar path's exactly
    squarings = np.array(
        [math.ceil(math.log2(x / _THETA13)) if x > _THETA13 else 0
         for x in norms.tolist()],
        dtype=int,
    )
    result = _pade13(a / (2.0 ** squarings)[:, None, None])
    for k in range(squarings.max(initial=0)):
        sel = squarings > k
        result[sel] = result[sel] @ result[sel]
    result[norms == 0.0] = np.eye(m.shape[0])
    return result


def _kron_sum(m: np.ndarray) -> np.ndarray:
    """Kronecker sum kron(m, I) + kron(I, m), the matrix of X -> m X + X m^T
    on the row-major vec(X).

    Built by broadcasting; every term is the same product with an exact 1.0
    or 0.0 that ``np.kron`` forms, so the result equals the two-kron sum bit
    for bit.
    """
    n = m.shape[0]
    ident = np.eye(n)
    return (
        m[:, None, :, None] * ident[None, :, None, :]
        + ident[:, None, :, None] * m[None, :, None, :]
    ).reshape(n * n, n * n)


def steady_state_available(params: SystemParams) -> bool:
    """True iff the asymptotic covariance solve is accepted for ``params``.

    Requires lambda > 0 and |nu| strictly below omega1*omega2; marginal
    sets are rejected by :func:`steady_state` and :func:`propagate`.
    """
    return params.lambda_ > 0.0 and abs(params.nu) < coupling_bound(params)


_RESIDUAL_TOL = 1e-10


def steady_state(params: SystemParams) -> np.ndarray:
    """Asymptotic covariance matrix: the solution S of M S + S M^T = -2 D.

    The equation is vectorized to the 16x16 Kronecker-sum system
    (kron(M, I) + kron(I, M)) vec(S) = -2 vec(D) and solved by dense LU
    with partial pivoting; the result is symmetrized and its max-abs
    residual is verified to be below 1e-10 * max(1, max|2D|), a bound that
    scales with the size of the right-hand side.

    Raises :class:`SteadyStateUnavailable` for marginal parameter sets
    (lambda = 0 or |nu| = omega1*omega2) and whenever the linear system is
    singular or too ill-conditioned to meet the residual bound.
    """
    require_valid(params)
    if not steady_state_available(params):
        raise SteadyStateUnavailable(
            "steady state requires lambda > 0 and |nu| < omega1*omega2; "
            f"got lambda={params.lambda_}, nu={params.nu}"
        )
    m = build_drift(params)
    d = np.diag(build_diffusion(params))
    try:
        vec = np.linalg.solve(_kron_sum(m), -2.0 * d.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise SteadyStateUnavailable(
            f"steady-state linear system is singular: {exc}"
        ) from exc
    s = vec.reshape(4, 4)
    s = 0.5 * (s + s.T)
    residual = np.abs(m @ s + s @ m.T + 2.0 * d).max()
    bound = _RESIDUAL_TOL * max(1.0, 2.0 * np.abs(d).max())
    if residual > bound:
        raise SteadyStateUnavailable(
            f"steady-state residual {residual:g} exceeds {bound:g} "
            "(system near-singular)"
        )
    return s


def propagate(sigma0, params: SystemParams, t: float | np.ndarray) -> np.ndarray:
    """Closed-form covariance at finite time(s) t >= 0 from ``sigma0``.

    Evaluates e^{Mt} (sigma0 - sigma_inf) (e^{Mt})^T + sigma_inf and
    symmetrizes the result to suppress roundoff asymmetry. ``t`` is either
    a scalar, giving one 4x4 matrix, or a 1-D array of N times, giving an
    (N, 4, 4) stack from a single steady-state solve, drift build and
    stacked :func:`mat_exp` call; each slice equals the scalar call at
    that time bit for bit. Requires a steady state to exist; marginal
    parameter sets raise :class:`SteadyStateUnavailable` and must use
    :func:`ode_oracle`.
    """
    # the float test spares single-time calls the cost of np.ndim
    batched = not isinstance(t, float) and np.ndim(t) > 0
    if batched:
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or not np.all((t >= 0) & (t < math.inf)):
            raise ValueError(
                f"times must be a 1-D array of finite values >= 0 (got {t})"
            )
    elif not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0 (got {t})")
    sigma0 = check_covariance(sigma0)
    s_inf = steady_state(params)
    m = build_drift(params)
    e = mat_exp(m, t)
    s = e @ (sigma0 - s_inf) @ e.swapaxes(-1, -2) + s_inf
    return 0.5 * (s + s.swapaxes(-1, -2))


def ode_oracle(sigma0, params: SystemParams, t: float, dt: float = 1e-3) -> np.ndarray:
    """Integrate d(sigma)/dt = M sigma + sigma M^T + 2 D by classical RK4.

    Fixed-step fourth-order Runge-Kutta with global error O(dt^4).
    Deliberately independent of the closed form (no matrix exponential, no
    steady state), so the two routes cross-check each other; unlike
    :func:`propagate` it is valid for every parameter set, including
    lambda = 0 and marginal coupling.

    The flow is linear, so one RK4 step is a fixed affine map on vec(sigma);
    it is built once, composed over all steps of the interval and applied as
    a single matrix-vector product. The result is exactly symmetric.
    ``evolve_trajectory`` runs whole grids through the same core.

    t must be finite and >= 0 and dt in (0, t] (any t is fine when it is an
    integer multiple of dt; otherwise a final shorter step covers the
    remainder).
    """
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0 (got {t})")
    sigma0 = check_covariance(sigma0)
    require_valid(params)
    if t == 0.0:
        return sigma0
    if not 0.0 < dt <= t:
        raise ValueError(f"dt must be in (0, t] (got dt={dt}, t={t})")
    return _rk4_grid(sigma0, params, [t], dt)[0]


def _sym_rows(a: np.ndarray) -> np.ndarray:
    """Symmetrization projection P on the 16 rows of ``a``: rows (i, j) and
    (j, i) both become their mean, bit for bit the same."""
    b = a.reshape(4, 4, -1)
    return (0.5 * (b + b.swapaxes(0, 1))).reshape(a.shape)


def _rk4_map(lsum: np.ndarray, b: np.ndarray, h: float, n: int,
             remainder: float) -> tuple[np.ndarray, np.ndarray]:
    """Increment (K, C) of n >= 1 RK4 steps of size h, then one of
    ``remainder`` (if nonzero), for v' = lsum v + b: the steps take v to
    v + (K v + C).

    One step is K = P (hL) Phi and c = P h Phi b with
    Phi = sum_{j=0..3} (hL)^j / (j+1)!, the exact RK4 map of this linear
    flow minus the identity; P keeps the result exactly symmetric in place
    of a symmetrization after each step. Steps compose in increment form,
    K_k = K_(k-1) + (K K_(k-1) + K), C_k = C_(k-1) + (K C_(k-1) + c), which
    keeps the rounding relative to the small change per step, not to the
    state (composing R = I + K directly lets det(sigma) drift ~10x more at
    lambda = 0).
    """
    ident = np.eye(lsum.shape[0])

    def step(size):
        a = size * lsum
        phi = ident + a @ (0.5 * ident + a @ (ident / 6.0 + a / 24.0))
        # one step as a map on the columns of [K | C], c in the last column
        return _sym_rows(np.column_stack((a @ phi, size * (phi @ b))))

    g = kc = step(h)
    k = np.ascontiguousarray(kc[:, :-1])
    for _ in range(n - 1):
        g = g + (k @ g + kc)
    if remainder:
        kc = step(remainder)
        g = g + (kc[:, :-1] @ g + kc)
    return np.ascontiguousarray(g[:, :-1]), g[:, -1].copy()


def _rk4_grid(sigma0: np.ndarray, params: SystemParams, times,
              dt: float) -> np.ndarray:
    """RK4 states at each of the non-decreasing ``times``, from sigma0 at 0.

    Steps from t = 0 to times[0], then from each time to the next, each
    interval of length T with step h = min(dt, T): floor(T/h) whole steps
    plus one step for a remainder of at least 1e-12 * max(T, 1). M, D and
    L = M (+) M are built once; an interval's composed map is rebuilt only
    when its (h, steps, remainder) differs from the previous interval's, so
    a uniform grid builds it once and costs one matrix-vector product per
    interval. Returns an (N, 4, 4) stack of exactly symmetric matrices.
    """
    lsum = _kron_sum(build_drift(params))
    b = 2.0 * np.diag(build_diffusion(params)).reshape(-1)
    # the map keeps symmetric inputs exactly symmetric; make sure this one is
    v = (0.5 * (sigma0 + sigma0.T)).reshape(-1)
    out = np.empty((len(times), 4, 4))
    key = None
    t_prev = 0.0
    for i, t in enumerate(times):
        t = float(t)
        span = t - t_prev
        if span > 0.0:
            h = min(dt, span)
            n = math.floor(span / h + 1e-9)
            remainder = span - n * h
            if remainder < 1e-12 * max(span, 1.0):
                remainder = 0.0
            if key != (h, n, remainder):
                key = (h, n, remainder)
                k, c = _rk4_map(lsum, b, h, n, remainder)
            v = v + (k @ v + c)
        out[i] = v.reshape(4, 4)
        t_prev = t
    return out
