"""Covariance-matrix dynamics: drift, diffusion, propagation, steady state.

Under Markovian damping the covariance matrix obeys the linear flow

    d(sigma)/dt = M sigma + sigma M^T + 2 D,

with drift matrix M (harmonic motion, position coupling, uniform damping
-lambda on the diagonal) and diagonal diffusion matrix D carrying the
thermal occupation factors coth(omega_i / 2T). When M is strictly stable
the solution has the closed form

    sigma(t) = e^{Mt} (sigma(0) - sigma_inf) (e^{Mt})^T + sigma_inf,

where sigma_inf is the unique solution of M S + S M^T = -2 D. In the two
normal modes M is block-diagonal, so :func:`steady_state` solves for
sigma_inf and :func:`propagate` evolves sigma block by block, in closed
form with no matrix exponential; at lambda = 0 there is no steady state
and sigma_inf's blocks are 0, and at |nu| = omega1*omega2 the lower mode
moves freely. An independent fixed-step Runge-Kutta integrator of the
differential form cross-checks the closed form. :func:`mat_exp`, a Pade-13
exponential of one matrix at one time, is independent of both; the package
never calls it, and the tests use it as an oracle.

All functions are pure. The one shared state is a single slot holding the
last steady-state solve that passed its checks, keyed on the identity of
its :class:`SystemParams` object, so that :func:`propagate` reuses the
solve :func:`steady_state` just made for the same object. It is replaced
by a single assignment and read through a local reference, so different
time points or parameter sets may be evaluated concurrently, and no
result depends on it: a hit returns the solve the same object gave.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OutOfRange, SteadyStateUnavailable
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
    "propagate",
    "ode_oracle",
]


def thermal_coth(omega_i: float, temperature: float) -> float:
    """Thermal occupation factor coth(omega_i / (2*T)) = 2*nbar + 1.

    Returns exactly 1.0 at T = 0 (and whenever the argument is large enough
    to underflow); computed as 1 + 2/(e^{omega/T} - 1), which is accurate
    for small arguments as well. About 2T/omega_i for T >> omega_i, so it
    overflows only where omega_i/T is below about 1.1e-308; there it raises
    :class:`OutOfRange`.
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
    coth = 1.0 + 2.0 / math.expm1(x) if x > 0.0 else math.inf
    if coth == math.inf:
        raise OutOfRange(
            f"coth(omega_i / 2T) is beyond the float range "
            f"(omega_i = {omega_i:g}, T = {temperature:g})"
        )
    return coth


def build_drift(params: SystemParams) -> np.ndarray:
    """Drift matrix M of the covariance flow, in (x1, p1, x2, p2) ordering.

    Rows are (-lambda, 1, 0, 0), (-omega1^2, -lambda, -nu, 0),
    (0, 0, -lambda, 1), (-nu, 0, -omega2^2, -lambda). Strictly stable
    (all eigenvalue real parts equal to -lambda) whenever lambda > 0 and
    |nu| < omega1*omega2.
    """
    require_valid(params)
    return _drift(params)


def _drift(params: SystemParams) -> np.ndarray:
    """:func:`build_drift` without validation, for callers that validated.

    Raises :class:`OutOfRange` where 2*lambda, the diagonal of the Kronecker
    sum that RK4 builds from M, overflows.
    """
    w1, w2 = mode_frequencies(params)
    lam = params.lambda_
    _two_lambda(lam)
    nu = params.nu
    return np.array([
        [-lam, 1.0, 0.0, 0.0],
        [-w1 * w1, -lam, -nu, 0.0],
        [0.0, 0.0, -lam, 1.0],
        [-nu, 0.0, -w2 * w2, -lam],
    ])


def _two_lambda(lam: float) -> float:
    """2*lambda, the diagonal of M (+) M and of the steady-state residual;
    :class:`OutOfRange` where it overflows."""
    if 2.0 * lam == math.inf:
        raise OutOfRange(f"2*lambda is beyond the float range (lambda = {lam!r})")
    return 2.0 * lam


def build_diffusion(params: SystemParams) -> np.ndarray:
    """Diagonal of the diffusion matrix D as a length-4 vector.

    Entries are (lambda/omega1 * c1, lambda*omega1 * c1,
    lambda/omega2 * c2, lambda*omega2 * c2) with c_i = coth(omega_i / 2T);
    all nonnegative, and exactly zero when lambda = 0.
    """
    require_valid(params)
    return _diffusion(params)


def _diffusion(params: SystemParams) -> np.ndarray:
    """:func:`build_diffusion` without validation, for callers that validated."""
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
    """Order-13 diagonal Pade approximant of e^a."""
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


def mat_exp(m: np.ndarray, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{m*t} by scaling and squaring.

    m*t is scaled by a power of two chosen from its 1-norm so that the
    order-13 diagonal rational (Pade) approximant is at full double
    precision, then the result is squared back up. Relative accuracy is
    around 1e-14 for the well-conditioned 4x4 drift matrices used here.
    A non-finite time raises ``ValueError``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square (got shape {m.shape})")
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


def _normal_modes(params: SystemParams):
    """((cc, ss, cs), W-^2, W+^2) of V = [[w1^2, nu], [nu, w2^2]]: modes
    q+ = c x1 + s x2, q- = -s x1 + c x2 (and the same for p), and
    (cc, ss, cs) = (c^2, s^2, c s) from 2 theta without cancellation: with
    g = (w1^2 - w2^2)/2 >= 0 and h = hypot(g, nu), cs = nu/(2h),
    cc = (h + g)/(2h), ss = cs (nu/(h + g)); exactly (1/2, 1/2, +-1/2) at
    epsilon = 0, and (1/2, 1/2, 1/2), the limit nu -> 0+, where h = 0, so
    identical oscillators stay exactly symmetric. W-^2 = (b - |nu|)/W+^2
    (b + |nu|), b = w1 w2, never forms det V, which underflows first.
    Raises :class:`OutOfRange` where W+^2 underflows to 0 or overflows."""
    w1, w2 = mode_frequencies(params)
    nu = params.nu
    w1_sq, w2_sq = w1 * w1, w2 * w2
    g = 0.5 * (w1_sq - w2_sq)
    h = math.hypot(g, nu)
    # w1^2 + w2^2 overflows only from w1^2 = 2^1023 on, where both halves are exact
    hi_sq = (0.5 * (w1_sq + w2_sq) if w1_sq < 2.0 ** 1023 else 0.5 * w1_sq + 0.5 * w2_sq) + h
    if not 0.0 < hi_sq < math.inf:
        raise OutOfRange(f"the upper normal-mode frequency squared W+^2 leaves the "
                         f"float range (W+^2 = {hi_sq:g})")
    b = coupling_bound(params)
    lo_sq = (b - abs(nu)) / hi_sq * (b + abs(nu))
    if h == 0.0:
        return (0.5, 0.5, 0.5), lo_sq, hi_sq
    cs = nu / (2.0 * h)
    return ((h + g) / (2.0 * h), cs * (nu / (h + g)), cs), lo_sq, hi_sq


def _mode_block(wk_sq: float, wl_sq: float, lam: float, x: float, p: float):
    """(xx, xp, px, pp) of the steady block <(q_k, p_k) (q_l, p_l)> of the
    normal modes k and l, from the rotated diffusion entries divided by
    lambda (x, p); k = l gives a mode's own block, with xp = px.

    M is block-diagonal in the normal modes, M_k = [[-lambda, 1],
    [-W_k^2, -lambda]], so the block is the solution of
    M_k S + S M_l^T = -2 lambda diag(x, p). With Delta = W_k^2 - W_l^2,
    S2 = W_k^2 + W_l^2, q = 2p + (S2 + 4 lambda^2) x and
    den = Delta^2 + 8 lambda^2 S2 + 16 lambda^4, it is
    xx = 4 q g, xp, px = e +- q f and pp = 2 lambda e + S2 xx / 2, where
    g = lambda^2 / den, f = lambda Delta / den and
    e = lambda (xx - x) = 4 lambda g (2p - S2 x) - Delta f x, the last
    written without the cancellation of its first form. g and f are formed
    from Delta/lambda or lambda/Delta, whichever is at most 1, so neither
    overflows nor divides by 0, and lambda^2 may underflow. Where lambda^2
    or k = 8 S2 + 16 lambda^2 would overflow, the block is solved with time
    and x scaled by a power of two mu, which maps lambda, W^2, x, p to
    lambda/mu, W^2/mu^2, mu x, p/mu and the block's xx, pp to mu xx, pp/mu
    exactly: mu is near lambda where lambda >= W = max(W_k, W_l), and
    W/2^500 otherwise, so that W^2/mu^2 stays below 2^1000 and a small
    lambda/mu stays representable; where lambda/mu underflows to 0, it
    raises :class:`OutOfRange`.
    """
    lam_sq = lam * lam
    gap = wk_sq - wl_sq
    s2 = wk_sq + wl_sq
    k = 8.0 * s2 + 16.0 * lam_sq
    if lam > 2.0 ** 500 or k == math.inf:
        w = math.sqrt(max(wk_sq, wl_sq))
        mu = math.ldexp(1.0, math.frexp(lam)[1] if lam >= w else math.frexp(w)[1] - 500)
        if lam / mu == 0.0:
            raise OutOfRange(f"lambda/W underflows to 0 in the scaled mode solve "
                             f"(lambda = {lam:g}, W^2 = {max(wk_sq, wl_sq):g})")
        xx, xp, px, pp = _mode_block(
            wk_sq / mu / mu, wl_sq / mu / mu, lam / mu, mu * x, p / mu)
        return xx / mu, xp, px, pp * mu
    if abs(gap) <= lam:
        rho = gap / lam
        g = 1.0 / (rho * rho + k)
        f = rho * g
    else:
        tau = lam / gap
        f = tau / (1.0 + k * tau * tau)
        g = tau * f
    q = 2.0 * p + (s2 + 4.0 * lam_sq) * x
    xx = 4.0 * q * g
    e = 4.0 * lam * g * (2.0 * p - s2 * x) - gap * f * x
    return xx, e + q * f, e - q * f, 2.0 * lam * e + 0.5 * s2 * xx


def _rotate_blocks(rot, b):
    """A symmetric 4x4 matrix in blocks, (xx, xp, pp) of mode (or
    oscillator) 1, the same of 2, and (xx, xp, px, pp) of <(1) (2)>, rotated
    from the modes to the lab by rot = (c^2, s^2, c s), or from the lab to
    the modes by (c^2, s^2, -c s); floats or (N,) columns. Each quadrature
    block T goes to R T R^T, R = [[c, -s], [s, c]]."""
    cc, ss, cs = rot
    xx1, xp1, pp1, xx2, xp2, pp2, xx, xp, px, pp = b
    sx, sp, sq = cs * (xx + xx), cs * (xp + px), cs * (pp + pp)
    dx, dp, dq = cs * (xx1 - xx2), cs * (xp1 - xp2), cs * (pp1 - pp2)
    return (cc * xx1 + ss * xx2 - sx, cc * xp1 + ss * xp2 - sp, cc * pp1 + ss * pp2 - sq,
            ss * xx1 + cc * xx2 + sx, ss * xp1 + cc * xp2 + sp, ss * pp1 + cc * pp2 + sq,
            dx + cc * xx - ss * xx, dp + cc * xp - ss * px, dp - ss * xp + cc * px,
            dq + cc * pp - ss * pp)


# Each 4x4 entry's index in (s00, s01, s11, s22, s23, s33, s02, s03, s12, s13)
_FULL = (0, 1, 6, 7, 1, 2, 8, 9, 6, 8, 3, 4, 7, 9, 4, 5)


def _full(blocks) -> np.ndarray:
    """The symmetric 4x4 matrix of lab blocks, or the stack of columns of any shape."""
    a = np.array([blocks[i] for i in _FULL])
    return np.moveaxis(a, 0, -1).reshape(-1, 4, 4) if a.ndim > 1 else a.reshape(4, 4)


def _lyapunov_terms(s, m, m2, a1, a3, n, d):
    """The upper triangle of M S + S M^T + diag(d) in the layout of
    s = (s00, s01, s11, s22, s23, s33, s02, s03, s12, s13), for the M with
    rows (m, 1, 0, 0), (a1, m, n, 0), (0, 0, m, 1), (n, 0, a3, m) and
    m2 = 2 m. On S with (-lambda, -2 lambda, -w1^2, -w2^2, -nu) and d = 2 D
    it is the steady-state residual; on |S| with the magnitudes, the bound
    |M| |S| + |S| |M|^T + 2 |D| (Higham 2002, componentwise), the same
    float operations since negation is exact."""
    s00, s01, s11, s22, s23, s33, s02, s03, s12, s13 = s
    return (
        2.0 * (s01 + m * s00) + d[0],
        s11 + m2 * s01 + a1 * s00 + n * s02,
        s12 + s03 + m2 * s02,
        s13 + m2 * s03 + n * s00 + a3 * s02,
        d[1] + 2.0 * (m * s11 + a1 * s01 + n * s12),
        s13 + m2 * s12 + a1 * s02 + n * s22,
        m2 * s13 + a1 * s03 + n * (s23 + s01) + a3 * s12,
        2.0 * (s23 + m * s22) + d[2],
        s33 + m2 * s23 + n * s02 + a3 * s22,
        d[3] + 2.0 * (m * s33 + n * s03 + a3 * s23),
    )


# The residual is checked against 64 u times the largest entry of
# |M| |S| + |S| |M|^T + 2 |D|, the sums of the magnitudes of the terms each
# entry is formed from (u = 2**-53): evaluating it rounds by at most 5 u of
# that, a correctly rounded S adds u, and the rest is left to the closed
# form's own rounding.
_RESIDUAL_TOL = 2.0 ** -47


def steady_state(params: SystemParams) -> np.ndarray:
    """Asymptotic covariance matrix: the solution S of M S + S M^T = -2 D.

    Solved in closed form in the normal modes (Bartels-Stewart with the
    Schur form replaced by the known modes): M is block-diagonal there, so
    the equation splits into the 2x2 blocks (++), (--) and (+-), each solved
    exactly, and one rotation gives S, exactly symmetric, and at
    epsilon = 0 exactly symmetric under the swap (x1, p1) <-> (x2, p2).
    D is carried divided by lambda, which cancels from each mode's own
    block, so S keeps its finite thermal limit as lambda -> 0+ (down to
    5e-324). Its max-abs residual M S + S M^T + 2 D must be at most 2**-47
    (64 ulp of 1) times the largest entry of |M| |S| + |S| |M|^T + 2 |D|,
    the size of the terms it is formed from.

    At |nu| = omega1*omega2 the lower mode has W- = 0 and is held by the
    damping alone. Raises :class:`SteadyStateUnavailable` at lambda = 0,
    where no steady state exists, and for near-singular sets: those whose
    solution misses the residual bound. Raises :class:`OutOfRange` when D,
    W+^2, the solution or the residual leaves the float range (a residual
    or bound that is not finite, NaN included; it names a diffusion entry or
    a mode block that overflows), and when W-^2 + lambda^2 underflows to 0
    (omega1*omega2 subnormal and lambda below 1e-162).
    Each call returns a fresh array, which the caller may write into.
    """
    return _full(_steady_solve(params)[2])


# The four entries of 2 D, in the order _steady_solve forms them
_TWO_D_NAMES = tuple(f"2*lambda*coth(omega{i}/2T){op}omega{i}" for i in (1, 2) for op in "/*")

# (params, solve) of the last _steady_solve that passed its checks; the
# initial key is an object no caller passes
_solved = (object(), None)


def _steady_solve(params: SystemParams):
    """Validate ``params``, require a steady state and solve it: the
    :func:`_normal_modes`, sigma_inf's mode blocks in the layout of
    :func:`_rotate_blocks` and its checked lab blocks (s00, s01, s11, s22,
    s23, s33, s02, s03, s12, s13). The residual and its bound are
    :func:`_lyapunov_terms` on S and on |S|.

    The same ``params`` object as the last solve returns that solve again,
    which passed every check. The key is the object, not its value: sets
    that compare equal, such as nu = 0.0 and nu = -0.0, can differ in the
    signs of zeros. A refused set raises on every call."""
    global _solved
    solved = _solved
    if solved[0] is params:
        return solved[1]
    require_valid(params)
    lam = params.lambda_
    if lam == 0.0:
        raise SteadyStateUnavailable("steady state requires lambda > 0 (got lambda=0.0)")
    modes = rot, lo_sq, hi_sq = _normal_modes(params)
    lam2 = _two_lambda(lam)
    if lo_sq + lam * lam == 0.0:
        raise OutOfRange(f"W-^2 + lambda^2 underflows to 0 (W-^2 = {lo_sq:g}, lambda = {lam:g})")
    w1, w2 = mode_frequencies(params)
    c1, c2 = thermal_coth(w1, params.temperature), thermal_coth(w2, params.temperature)
    x1, p1, x2, p2 = c1 / w1, c1 * w1, c2 / w2, c2 * w2  # D / lambda
    cc, ss, cs = rot
    xx_hi, xp_hi, _, pp_hi = _mode_block(
        hi_sq, hi_sq, lam, cc * x1 + ss * x2, cc * p1 + ss * p2)
    xx_lo, xp_lo, _, pp_lo = _mode_block(
        lo_sq, lo_sq, lam, ss * x1 + cc * x2, ss * p1 + cc * p2)
    blocks = (xx_hi, xp_hi, pp_hi, xx_lo, xp_lo, pp_lo, *_mode_block(
        hi_sq, lo_sq, lam, cs * (x2 - x1), cs * (p2 - p1)))
    lab = _rotate_blocks(rot, blocks)
    w1_sq, w2_sq, nu = w1 * w1, w2 * w2, params.nu
    d = (lam2 * x1, lam2 * p1, lam2 * x2, lam2 * p2)  # 2 D, all >= 0
    res = _lyapunov_terms(lab, -lam, -lam2, -w1_sq, -w2_sq, -nu, d)
    # max drops a NaN that is not first
    residual = math.nan if math.isnan(sum(res)) else max(map(abs, res))
    # |s11|, |s33| and each 2 D are terms of some entry, so at most the
    # largest magnitude: a residual within that share needs no more terms
    bound = _RESIDUAL_TOL * max(abs(lab[2]), abs(lab[5]), *d)
    if not residual <= bound:
        bound = _RESIDUAL_TOL * max(_lyapunov_terms(
            map(abs, lab), lam, lam2, w1_sq, w2_sq, abs(nu), d))
    # NaN fails every comparison, so the test is written to fail on it
    if not residual <= bound < math.inf:
        if bound < residual < math.inf:
            raise SteadyStateUnavailable(
                f"steady-state residual {residual:g} exceeds {bound:g} (system near-singular)")
        for name, entry in zip(_TWO_D_NAMES, d):
            if entry == math.inf:
                raise OutOfRange(
                    f"steady state left the float range: diffusion entry {name} overflows "
                    f"(lambda = {lam:g}, T = {params.temperature:g})")
        if not all(map(math.isfinite, blocks)):
            raise OutOfRange(
                f"steady state left the float range: the normal-mode solve overflows "
                f"(lambda = {lam:g}, W+^2 = {hi_sq:g})")
        raise OutOfRange(
            f"steady state left the float range (residual {residual:g}, bound {bound:g})")
    solve = modes, blocks, lab
    _solved = params, solve
    return solve


def propagate(sigma0, params: SystemParams, t: float | np.ndarray) -> np.ndarray:
    """Closed-form covariance at finite time(s) t >= 0 from ``sigma0``.

    sigma(t) = e^{Mt} (sigma0 - sigma_inf) (e^{Mt})^T + sigma_inf, built in
    the normal modes with no e^{Mt} matrix (:func:`_sigma_t`) from sigma0's
    symmetric part and sigma_inf's mode blocks: exactly symmetric, and at
    epsilon = 0 exactly swap-symmetric wherever sigma0 is. ``t`` is a
    scalar, giving one 4x4 matrix from Python-float arithmetic, or a 1-D
    array of N times, giving an (N, 4, 4) stack from one steady-state solve
    and the same formula on (N,) columns (:func:`_propagate_grid` of one
    set); each slice equals the scalar call bit for bit. The solve is the
    one the last solve made, such as a :func:`steady_state` call just
    before, where that had the same ``params`` object. At t = 0 the result
    is sigma0's symmetric part exactly, and where e^{-lambda t} underflows
    to 0, sigma_inf exactly. Every set :func:`validate` accepts is taken:
    at lambda = 0 sigma_inf's blocks are 0 and no steady state is solved,
    and at |nu| = omega1*omega2 the lower mode moves freely (W- = 0). Where
    W-^2 underflows to 0 although |nu| < omega1*omega2, where the phase W t
    overflows while e^{-lambda t} > 0, and where a result leaves the float
    range, it raises :class:`OutOfRange`.
    """
    # the float test spares single-time calls the cost of np.ndim
    if not isinstance(t, float) and np.ndim(t) > 0:
        t = np.asarray(t, dtype=float)
        if t.ndim != 1 or not np.all((t >= 0) & (t < math.inf)):
            raise ValueError(f"times must be a 1-D array of finite values >= 0 (got {t})")
        return _propagate_grid([sigma0], [params], t)
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0 (got {t})")
    lab0, blocks, rot, w, _ = _start(sigma0, params)
    # Python floats where no rule of the grid path applies, else a grid of one
    t = float(t)
    damp = float(np.exp(-params.lambda_ * t))
    phase = (w[0] * t, w[1] * t)
    if t and damp and phase[1] < math.inf:
        s = _sigma_t(lab0, blocks, rot, w, [float(np.cos(x)) for x in phase],
                     [float(np.sin(x)) for x in phase], damp, t)
        if all(map(math.isfinite, s)):
            return _full(s)
    return _propagate_grid([sigma0], [params], np.array([t]))[0]


def _start(sigma0, params: SystemParams):
    """One set's checked inputs to :func:`_sigma_t`, as floats: sigma0's
    symmetric part as lab blocks, sigma_inf's mode blocks, the rotation,
    w = (W-, W+) and sigma_inf's lab blocks (0 at lambda = 0, with no solve)."""
    r0, r1, r2, r3 = check_covariance(sigma0).tolist()
    if params.lambda_ == 0.0:  # no damping, no diffusion: e^{-lambda t} = 1
        require_valid(params)
        (rot, lo_sq, hi_sq), blocks, lab_inf = _normal_modes(params), (0.0,) * 10, (0.0,) * 10
    else:
        (rot, lo_sq, hi_sq), blocks, lab_inf = _steady_solve(params)
    w = (math.sqrt(lo_sq), math.sqrt(hi_sq))
    if w[0] == 0.0 and abs(params.nu) != coupling_bound(params):
        raise OutOfRange(
            "the lower normal-mode frequency squared W-^2 = (b - |nu|)/W+^2 (b + |nu|) "
            f"underflows to 0 (b = omega1*omega2 = {coupling_bound(params):g}, "
            f"nu = {params.nu:g})")
    lab0 = (r0[0], 0.5 * r0[1] + 0.5 * r1[0], r1[1], r2[2], 0.5 * r2[3] + 0.5 * r3[2],
            r3[3], 0.5 * r0[2] + 0.5 * r2[0], 0.5 * r0[3] + 0.5 * r3[0],
            0.5 * r1[2] + 0.5 * r2[1], 0.5 * r1[3] + 0.5 * r3[1])  # symmetric part
    return lab0, blocks, rot, w, lab_inf


def _propagate_grid(sigma0s, params_seq, times: np.ndarray) -> np.ndarray:
    """:func:`propagate` of k sets at N times (finite, >= 0) as one (k N, 4, 4)
    stack, rows i N to (i + 1) N for set i. Each set's floats are (k, 1)
    columns broadcast against the times, so every element takes a one-set
    call's operations in the same order, bit for bit, in one exp, cos and
    sin call over all sets. Raises the first set's :func:`_start` error,
    then :class:`OutOfRange` if any phase or result leaves the float range."""
    lam = np.array([[p.lambda_] for p in params_seq])
    lab0, blocks, rot, w, lab_inf = (np.array(part).T[..., None]
                                     for part in zip(*map(_start, sigma0s, params_seq)))
    t = times
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # checked below
        damp = np.exp(-lam * t)
        phase = w * t
        cos, sin = np.cos(phase), np.sin(phase)
        out = _full(_sigma_t(lab0, blocks, rot, w, cos, sin, damp, t))
        if damp[~(phase[1] < math.inf)].any():
            raise OutOfRange(
                f"propagated covariance left the float range (t up to {t.max():g}): "
                "the mode phase overflowed while e^(-lambda t) stayed above 0")
        out = out.reshape(damp.shape + (4, 4))  # (set, time, 4, 4)
        settled = damp == 0.0
        if settled.any():
            out[settled] = np.broadcast_to(_full(lab_inf)[:, None], out.shape)[settled]
        out[:, t == 0.0] = _full(lab0)[:, None]
        if not np.isfinite(out).all():
            # mode-basis values reach twice the lab ones: evaluate again with
            # sigma0 and sigma_inf scaled by 1/4, exact away from subnormals
            bad = ~np.isfinite(out).all(axis=(2, 3))
            rows = np.nonzero(bad)[0]
            lab0, blocks, rot, w = (part[:, rows, 0] for part in (lab0, blocks, rot, w))
            out[bad] = 4.0 * _full(_sigma_t(
                [0.25 * v for v in lab0], [0.25 * v for v in blocks], rot, w,
                cos[:, bad], sin[:, bad], damp[bad], np.broadcast_to(t, bad.shape)[bad]))
            if not np.isfinite(out).all():
                raise OutOfRange(
                    f"propagated covariance left the float range (t up to {t.max():g})")
    return out.reshape(-1, 4, 4)


def _flow(ek, el, a, b, c, d):
    """Entries 11, 12, 21, 22 of E_k [[a, b], [c, d]] E_l^T, E = [[c, s],
    [n, c]] given as (c, s, n): how the (k, l) mode block of sigma evolves."""
    ck, sk, nk = ek
    cl, sl, nl = el
    f00, f01, f10, f11 = ck * a + sk * c, ck * b + sk * d, nk * a + ck * c, nk * b + ck * d
    return (f00 * cl + f01 * sl, f00 * nl + f01 * cl,
            f10 * cl + f11 * sl, f10 * nl + f11 * cl)


def _sin_over(sk, wk, t):
    """sin(W t)/W from sk = sin(W t), or its limit t at W = 0; W a float or a column."""
    if isinstance(wk, float):
        return sk * (1.0 / wk) if wk else t
    return np.where(wk == 0.0, t, sk * (1.0 / wk))


def _sigma_t(lab0, blocks, rot, w, cos, sin, damp, t):
    """sigma(t)'s lab blocks from sigma0's, sigma_inf's mode blocks and the
    rotation of :func:`_steady_solve`, w = (W-, W+), the cos and sin of
    (W- t, W+ t), damp = e^{-lambda t} and t; only + - *, on floats or on
    columns that broadcast together. In the modes M_k = [[-lambda, 1],
    [-W_k^2, -lambda]], so block (k, l) of sigma - sigma_inf evolves to
    E_k (block) E_l^T, E_k = damp
    [[cos W_k t, sin W_k t / W_k], [-W_k sin W_k t, cos W_k t]], whose
    limit at W_k = 0 is damp [[1, t], [0, 1]]."""
    e_lo, e_hi = [(ck * damp, _sin_over(sk, wk, t) * damp, sk * -wk * damp)
                  for wk, ck, sk in zip(w, cos, sin)]
    m, b = _rotate_blocks((rot[0], rot[1], -rot[2]), lab0), blocks
    hi = _flow(e_hi, e_hi, m[0] - b[0], m[1] - b[1], m[1] - b[1], m[2] - b[2])
    lo = _flow(e_lo, e_lo, m[3] - b[3], m[4] - b[4], m[4] - b[4], m[5] - b[5])
    x = _flow(e_hi, e_lo, m[6] - b[6], m[7] - b[7], m[8] - b[8], m[9] - b[9])
    return _rotate_blocks(rot, (hi[0] + b[0], hi[1] + b[1], hi[3] + b[2], lo[0] + b[3],
                                lo[1] + b[4], lo[3] + b[5], x[0] + b[6], x[1] + b[7],
                                x[2] + b[8], x[3] + b[9]))


def ode_oracle(sigma0, params: SystemParams, t: float, dt: float = 1e-3) -> np.ndarray:
    """Integrate d(sigma)/dt = M sigma + sigma M^T + 2 D by classical RK4.

    Fixed-step fourth-order Runge-Kutta with global error O(dt^4).
    Deliberately independent of the closed form (no matrix exponential, no
    steady state, no normal modes), so the two routes cross-check each
    other on every parameter set, lambda = 0 and marginal coupling included.

    The flow is linear, so one RK4 step is a fixed affine map on vec(sigma);
    it is built once, composed over all steps of the interval and applied as
    a single matrix-vector product. The result is exactly symmetric (at
    t = 0, the symmetrized sigma0). ``evolve_trajectory`` fills whole grids
    by doubling in the same core, so its rows equal chained calls of this
    function to rounding.

    t must be finite and >= 0 and dt finite and > 0 (see
    :func:`check_step`), also at t = 0. The step is min(dt, t): floor(t/dt)
    whole steps, then one shorter step for any remainder.
    """
    check_step(dt)
    if not 0 <= t < math.inf:
        raise ValueError(f"time must be finite and >= 0 (got {t})")
    sigma0 = check_covariance(sigma0)
    require_valid(params)
    return _rk4_grid(sigma0, params, t, 0.0, 0, dt)[0]


def check_step(dt: float) -> None:
    """Reject an RK4 step ``dt`` that is not finite and > 0 (ValueError)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0 (got {dt})")


def _sym_rows(a: np.ndarray) -> np.ndarray:
    """Symmetrization projection P on the 16 rows of ``a``: rows (i, j) and
    (j, i) both become their mean, bit for bit the same."""
    b = a.reshape(4, 4, -1)
    return (0.5 * (b + b.swapaxes(0, 1))).reshape(a.shape)


def _rk4_step(lsum: np.ndarray, b: np.ndarray, size: float) -> np.ndarray:
    """Increment [K | C], as one (16, 17) array, of one RK4 step of ``size``
    for v' = lsum v + b: the step takes v to v + (K v + C).

    K = P (hL) Phi and C = P h Phi b with Phi = sum_{j=0..3} (hL)^j / (j+1)!,
    the exact RK4 map of this linear flow minus the identity; P keeps the
    result exactly symmetric in place of a symmetrization after each step.
    """
    ident = np.eye(lsum.shape[0])
    a = size * lsum
    phi = ident + a @ (0.5 * ident + a @ (ident / 6.0 + a / 24.0))
    # the step as a map on the columns of [K | C], C in the last column
    return _sym_rows(np.column_stack((a @ phi, size * (phi @ b))))


def _rk4_map(lsum: np.ndarray, b: np.ndarray, span: float, dt: float) -> np.ndarray:
    """Increment [K | C] of RK4 over an interval of length ``span`` > 0.

    The step is h = min(dt, span): n = floor(span/h) whole steps, then one
    step of the remainder if it is at least 1e-12 * max(span, 1). The n
    steps compose by :func:`_then` and repeated squaring: O(log n) products.
    """
    h = min(dt, span)
    n = math.floor(span / h + 1e-9)
    remainder = span - n * h
    g = kc = _rk4_step(lsum, b, h)
    for bit in bin(n)[3:]:  # the bits of n below its leading one
        g = _then(g, g)
        if bit == "1":
            g = _then(g, kc)
    if remainder >= 1e-12 * max(span, 1.0):
        g = _then(g, _rk4_step(lsum, b, remainder))
    return g


def _then(g: np.ndarray, kc: np.ndarray) -> np.ndarray:
    """The map [K_a | C_a] = ``g``, then [K_b | C_b] = ``kc``:
    K = K_a + (K_b K_a + K_b), C = C_a + (K_b C_a + C_b).

    This increment form keeps the rounding relative to the small change per
    step, not to the state (composing R = I + K lets det(sigma) drift ~10x
    more at lambda = 0).
    """
    return g + (kc[:, :-1] @ g + kc)


def _fill_by_doubling(states: np.ndarray, g: np.ndarray) -> None:
    """Fill ``states[1:]`` from ``states[0]`` by applying the map ``g`` of
    one interval once per row, v -> v + (K v + C), by doubling.

    A parallel prefix: with x_0 = states[0] and [K_m | C_m] the map of m
    intervals, round m = 1, 2, 4, ... gives x_m .. x_{2m-1} =
    x_j + (K_m x_j + C_m), j = 0 .. m-1, in one (m, 16) x (16, 16) product,
    so L intervals cost ceil(log2(L + 1)) products. [K_2m | C_2m] is
    [K_m | C_m] composed with itself by :func:`_then`.
    """
    length = len(states) - 1
    for i in range(length.bit_length()):
        if i:
            g = _then(g, g)
        m = 1 << i
        count = min(m, length + 1 - m)
        x = states[:count]
        y = states[m:m + count]
        np.matmul(x, g[:, :-1].T, out=y)  # then y = x + (K x + C)
        y += g[:, -1]
        y += x


def _rk4_grid(sigma0: np.ndarray, params: SystemParams, t_start: float,
              spacing: float, intervals: int, dt: float) -> np.ndarray:
    """RK4 states at t_start + k * spacing, k = 0 .. intervals, from sigma0
    at t = 0.

    At most two interval maps (:func:`_rk4_map`): one from 0 to t_start if
    t_start > 0, applied once, and one of the spacing, which fills the grid
    (:func:`_fill_by_doubling`; 9 products on the default 501-point grid).
    A spacing of 0 repeats the state at t_start. M, D and L = M (+) M are
    built even where no time moves. The rows equal chained one-interval
    calls (:func:`ode_oracle`) to rounding, not bit for bit.

    Returns an (intervals + 1, 4, 4) stack of exactly symmetric matrices;
    raises :class:`OutOfRange` if any entry overflowed, or before any map is
    built if t_start/dt or spacing/dt is beyond the float range.
    """
    t_start, spacing = float(t_start), float(spacing)
    t = max(t_start, spacing)
    if not math.isfinite(t / dt):
        raise OutOfRange(f"RK4 step count t/dt beyond the float range (t={t:g}, dt={dt:g})")
    lsum = _kron_sum(_drift(params))
    b = 2.0 * np.diag(_diffusion(params)).reshape(-1)
    # row 0 is sigma0, then the state at t_start if that is later, then one
    # row per grid interval; the maps keep symmetric inputs exactly
    # symmetric, so make sure sigma0 is
    first = int(t_start > 0.0)
    states = np.empty((first + intervals + 1, 16))
    states[0] = (0.5 * sigma0 + 0.5 * sigma0.T).reshape(-1)
    # a step beyond the stability limit can overflow; one check at the end
    with np.errstate(over="ignore", invalid="ignore"):
        if first:
            _fill_by_doubling(states[:2], _rk4_map(lsum, b, t_start, dt))
        if spacing > 0.0:
            _fill_by_doubling(states[first:], _rk4_map(lsum, b, spacing, dt))
        else:
            states[first + 1:] = states[first]
    out = states[first:].reshape(-1, 4, 4)
    if not np.isfinite(out).all():
        raise OutOfRange(
            f"RK4 covariance left the float range (dt={dt:g}, "
            f"t up to {t_start + intervals * spacing:g}); the step may exceed the "
            "integrator's stability limit, or an undamped flow grow by "
            "rounding over too many steps"
        )
    return out
