"""Shared test utilities: random physical states, caption parameter sets,
the census sampler of the parameter box, the exact-invariant oracle,
steady-state oracles (float and mpmath), RK4 oracles and the per-curve
polyline template."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oscbath import (
    OutOfRange, SystemParams, TimeGrid, build_diffusion, build_drift, coupling_bound,
    mode_frequencies, ode_oracle,
)
from oscbath.model import _SQUEEZING_LIMIT

# Parameter sets fixed by the four figure captions (omega = 1 throughout).
# Panels that sweep the temperature leave it free; 0.2 is the value the
# companion panels fix, and is used wherever a concrete set is needed.
FIG1A = SystemParams(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6,
                     temperature=0.2, r=1.0)
FIG2A = SystemParams(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6,
                     temperature=0.2, r=2.0)
FIG4 = SystemParams(omega=1.0, epsilon=0.5, nu=0.6, lambda_=0.6,
                    temperature=0.2, r=2.0)


def single_mode_rotations(theta1: float, theta2: float) -> np.ndarray:
    """Block-diagonal symplectic rotation of each mode in its (x, p) plane."""
    out = np.zeros((4, 4))
    for block, theta in ((0, theta1), (2, theta2)):
        c, s = math.cos(theta), math.sin(theta)
        out[block, block] = c
        out[block, block + 1] = s
        out[block + 1, block] = -s
        out[block + 1, block + 1] = c
    return out


def single_mode_squeezes(r1: float, r2: float) -> np.ndarray:
    return np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)])


def mode_mixer(theta: float) -> np.ndarray:
    """Orthogonal symplectic mixing of the two modes (beam-splitter-like)."""
    c, s = math.cos(theta), math.sin(theta)
    eye2 = np.eye(2)
    return np.block([[c * eye2, s * eye2], [-s * eye2, c * eye2]])


def swap_modes(sigma: np.ndarray) -> np.ndarray:
    """sigma with its two modes exchanged: (x1, p1, x2, p2) -> (x2, p2, x1, p1).

    The swap exchanges the block determinants I1 and I2 exactly and keeps
    I3 and I4, so the discord with mode 1 measured is
    ``report_from_data(invariants(swap_modes(sigma))).discord``.
    """
    order = [2, 3, 0, 1]
    return np.asarray(sigma, dtype=float)[np.ix_(order, order)]


def random_symplectic(rng: np.random.Generator, max_squeeze: float = 1.0) -> np.ndarray:
    s = single_mode_rotations(rng.uniform(0, 2 * math.pi),
                              rng.uniform(0, 2 * math.pi))
    s = s @ single_mode_squeezes(rng.uniform(-max_squeeze, max_squeeze),
                                 rng.uniform(-max_squeeze, max_squeeze))
    s = s @ mode_mixer(rng.uniform(0, 2 * math.pi))
    s = s @ single_mode_rotations(rng.uniform(0, 2 * math.pi),
                                  rng.uniform(0, 2 * math.pi))
    return s


def random_physical_cov(rng: np.random.Generator,
                        max_squeeze: float = 1.0) -> np.ndarray:
    """Random physical covariance matrix S T S^T in Williamson form.

    T = diag(a, a, b, b) with a, b >= 1 are the symplectic eigenvalues;
    with probability ~0.2 a mode sits exactly at the pure-state boundary,
    exercising the degenerate code paths.
    """
    a = 1.0 if rng.random() < 0.2 else 1.0 + rng.exponential(0.5)
    b = 1.0 if rng.random() < 0.2 else 1.0 + rng.exponential(0.5)
    s = random_symplectic(rng, max_squeeze=max_squeeze)
    sigma = s @ np.diag([a, a, b, b]) @ s.T
    return 0.5 * (sigma + sigma.T)


def random_valid_params(rng: np.random.Generator) -> SystemParams:
    """Random parameter set with lambda > 0 and |nu| strictly inside the bound."""
    omega = rng.uniform(0.5, 2.0)
    epsilon = rng.uniform(0.0, 0.9)
    bound = omega * omega * math.sqrt(1.0 - epsilon * epsilon)
    return SystemParams(
        omega=omega,
        epsilon=epsilon,
        nu=rng.uniform(-0.95, 0.95) * bound,
        lambda_=rng.uniform(0.1, 1.5),
        temperature=0.0 if rng.random() < 0.15 else rng.uniform(0.0, 2.0),
        r=rng.uniform(0.0, 2.0),
    )


def census_sets(rng: np.random.Generator, count: int, exponent: int):
    """``count`` (SystemParams, TimeGrid) pairs drawn over the parameter box
    with omega in [2**-exponent, 2**exponent], marginal sets and zeros
    included: omega log-uniform; lambda and T log-uniform from 2**-60 to
    2**exponent, exactly 0 in 10% of draws each; epsilon in [0, 0.999);
    |nu| = b U(0, 1) with b = omega1*omega2, exactly b in 10% of draws, with
    a random sign; r in [0, 4.579]; an 11-point grid from 0 to t_end,
    log-uniform in [1e-3, 1e3]/omega."""
    def rate():
        return 0.0 if rng.random() < 0.1 else 2.0 ** rng.uniform(-60.0, exponent)

    sets = []
    for _ in range(count):
        omega = 2.0 ** rng.uniform(-exponent, exponent)
        lam, temperature = rate(), rate()
        epsilon = rng.uniform(0.0, 0.999)
        bound = coupling_bound(SystemParams(omega, epsilon, 0.0, 1.0, 0.0, 0.0))
        nu = bound if rng.random() < 0.1 else bound * rng.uniform(0.0, 1.0)
        nu = -nu if rng.random() < 0.5 else nu
        r = rng.uniform(0.0, _SQUEEZING_LIMIT)
        t_end = 10.0 ** rng.uniform(-3.0, 3.0) / omega
        sets.append((SystemParams(omega, epsilon, nu, lam, temperature, r),
                     TimeGrid(0.0, t_end, 11)))
    return sets


def parse_csv(text: str):
    """Split CSV text into (metadata lines, header fields, data rows)."""
    meta, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


def template_points(curves):
    """The polyline text of each (n, 2) array of pixel coordinates by one
    ``%`` template per curve, "%.2f,%.2f" per point joined by spaces: the
    formatter that ``svgplot._points`` replaced, and its oracle."""
    return [" ".join(["%.2f,%.2f"] * len(c)) % tuple(np.asarray(c).ravel().tolist())
            for c in curves]


def cofactor_det(m):
    """Determinant of a square list of lists by cofactor expansion along the
    first row; exact for ints and Fractions."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** k * m[0][k] * cofactor_det([row[:k] + row[k + 1:] for row in m[1:]])
               for k in range(len(m)))


INVARIANT_NAMES = ("i1", "i2", "i3", "i4", "delta", "delta_tilde", "rad", "rad_tilde")


def exact_invariants(sigma) -> tuple[float, ...]:
    """(i1, i2, i3, i4, delta, delta_tilde, rad, rad_tilde) of a 4x4 float
    matrix, each correctly rounded from its exact value; for the first one
    beyond the float range, the ``OutOfRange`` that ``measures`` raises.

    The oracle for ``measures._exact_block_invariants``, sharing no code
    with it: every entry is num / den by ``as_integer_ratio``, all are put
    over the largest den (a power of two), the determinants are cofactor
    expansions of those integers, and each value is rounded by one int / int
    division, which CPython rounds correctly.
    """
    pairs = [x.as_integer_ratio() for x in np.asarray(sigma, dtype=float).ravel().tolist()]
    den = max(d for _, d in pairs)
    m = [[num * (den // d) for num, d in pairs[row:row + 4]] for row in range(0, 16, 4)]
    i1 = cofactor_det([row[0:2] for row in m[0:2]])
    i2 = cofactor_det([row[2:4] for row in m[2:4]])
    i3 = cofactor_det([row[2:4] for row in m[0:2]])
    i4 = cofactor_det(m)
    delta, delta_tilde = i1 + i2 + 2 * i3, i1 + i2 - 2 * i3
    values = (i1, i2, i3, i4, delta, delta_tilde, delta ** 2 - 4 * i4, delta_tilde ** 2 - 4 * i4)
    out = []
    for name, value, degree in zip(INVARIANT_NAMES, values, (2, 2, 2, 4, 2, 2, 4, 4)):
        try:
            out.append(value / den ** degree)
        except OverflowError:
            raise OutOfRange(
                f"exact {name} of the covariance matrix is beyond the float range") from None
    return tuple(out)


def kron_steady_state(params: SystemParams) -> np.ndarray:
    """Steady state by dense LU on the 16x16 Kronecker-sum system
    (kron(M, I) + kron(I, M)) vec(S) = -2 vec(D), symmetrized.

    The package solved it this way before its normal-mode closed form; the
    solve stays here as an oracle that shares no code with it.
    """
    m = build_drift(params)
    d = np.diag(build_diffusion(params))
    ident = np.eye(4)
    vec = np.linalg.solve(np.kron(m, ident) + np.kron(ident, m), -2.0 * d.reshape(-1))
    s = vec.reshape(4, 4)
    return 0.5 * (s + s.T)


def scipy_steady_state(params: SystemParams) -> np.ndarray:
    """Steady state by scipy's Bartels-Stewart ``solve_continuous_lyapunov``
    (skips the test when scipy is missing)."""
    linalg = pytest.importorskip("scipy.linalg")
    m = build_drift(params)
    return linalg.solve_continuous_lyapunov(m, -2.0 * np.diag(build_diffusion(params)))


def mpmath_steady_state(params: SystemParams, dps: int, lambda_=None) -> np.ndarray:
    """The Kronecker-sum solve of M S + S M^T = -2 D in ``dps`` digits, from
    the float mode frequencies of ``params`` (and ``lambda_`` in place of
    its lambda if given, as a float or a decimal string); skips the test
    when mpmath is missing."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        w1, w2 = (mpmath.mpf(w) for w in mode_frequencies(params))
        lam = mpmath.mpf(params.lambda_ if lambda_ is None else lambda_)
        nu, temp = mpmath.mpf(params.nu), mpmath.mpf(params.temperature)
        c1, c2 = (mpmath.coth(w / (2 * temp)) if temp else 1 for w in (w1, w2))
        m = mpmath.matrix([[-lam, 1, 0, 0], [-w1 ** 2, -lam, -nu, 0],
                           [0, 0, -lam, 1], [-nu, 0, -w2 ** 2, -lam]])
        d = [lam * c1 / w1, lam * c1 * w1, lam * c2 / w2, lam * c2 * w2]
        lsum = mpmath.matrix(16, 16)
        for i, j, k in np.ndindex(4, 4, 4):  # (M S)_ij and (S M^T)_ij
            lsum[4 * i + j, 4 * k + j] += m[i, k]
            lsum[4 * i + j, 4 * i + k] += m[j, k]
        rhs = mpmath.matrix([-2 * d[i] if i == j else 0 for i in range(4) for j in range(4)])
        return np.array(mpmath.lu_solve(lsum, rhs).tolist(), dtype=float).reshape(4, 4)


def rk4_reference(sigma0, params: SystemParams, t: float, dt: float) -> np.ndarray:
    """The per-step RK4 of earlier versions: four right-hand sides and one
    symmetrization per step, with ``ode_oracle``'s step and remainder rule."""
    m = build_drift(params)
    d2 = 2.0 * np.diag(build_diffusion(params))

    def rhs(s):
        return m @ s + s @ m.T + d2

    n = int(math.floor(t / dt + 1e-9))
    remainder = t - n * dt
    if remainder < 1e-12 * max(t, 1.0):
        remainder = 0.0
    s = np.array(sigma0, dtype=float)
    for h in [dt] * n + ([remainder] if remainder else []):
        k1 = rhs(s)
        k2 = rhs(s + (0.5 * h) * k1)
        k3 = rhs(s + (0.5 * h) * k2)
        k4 = rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = 0.5 * (s + s.T)
    return s


def chained_ode_oracle(sigma0, params: SystemParams, times, dt: float) -> np.ndarray:
    """(N, 4, 4) RK4 states at the non-decreasing ``times``: one
    ``ode_oracle`` call per interval, from t = 0 to times[0] and then from
    each time to the next; an interval of length 0 repeats the state."""
    s = np.asarray(sigma0, dtype=float)
    out = []
    t_prev = 0.0
    for t in times:
        s = ode_oracle(s, params, float(t) - t_prev, dt)
        out.append(s)
        t_prev = float(t)
    return np.array(out)
