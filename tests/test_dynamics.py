import math

import numpy as np
import pytest

from oscbath import (
    InvalidParameters,
    SteadyStateUnavailable,
    SystemParams,
    build_diffusion,
    build_drift,
    initial_squeezed_vacuum,
    invariants,
    mat_exp,
    mode_frequencies,
    ode_oracle,
    propagate,
    purity,
    steady_state,
    steady_state_available,
    thermal_coth,
)
from oscbath.dynamics import _THETA13, _kron_sum
from oscbath.sweep import FIGURE_IDS, figure_preset
from helpers import FIG1A, FIG4, random_valid_params

import dataclasses


def taylor_expm(a, terms=60):
    # brute-force series oracle, independent of the production path
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def rk4_reference(sigma0, params, t, dt):
    # the per-step RK4 of earlier versions: four right-hand sides and one
    # symmetrization per step, with ode_oracle's step and remainder rule
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


def rk4_sets():
    # two stable sets and the two marginal kinds that only RK4 can evolve
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

    def test_time_array_matches_scalar_calls(self):
        m = build_drift(FIG1A)
        times = np.linspace(0.0, 200.0, 801)
        # the grid spans squaring counts 0 (norm <= theta13) to at least 5
        norms = np.abs(m).sum(0).max() * times
        assert norms.max() > 2.0 ** 5 * _THETA13 and norms[1] < _THETA13
        stack = mat_exp(m, times)
        assert stack.shape == (801, 4, 4)
        for t, e in zip(times, stack):
            assert np.array_equal(e, mat_exp(m, float(t)))
        assert np.array_equal(stack[0], np.eye(4))

    def test_empty_time_array(self):
        assert mat_exp(build_drift(FIG1A), np.array([])).shape == (0, 4, 4)

    def test_two_dimensional_times_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            mat_exp(build_drift(FIG1A), np.zeros((2, 3)))

    def test_against_scipy_expm_on_every_preset_drift(self):
        expm = pytest.importorskip("scipy.linalg").expm
        times = np.linspace(0.0, 20.0, 41)
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for value in preset.values:
                m = build_drift(
                    dataclasses.replace(preset.params, **{preset.sweep: value}))
                for t, e in zip(times, mat_exp(m, times)):
                    ref = expm(m * t)
                    assert np.abs(e - ref).max() <= 1e-11 * np.abs(ref).max()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_exp(np.ones((2, 3)), 1.0)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        m = build_drift(FIG1A)
        with pytest.raises(ValueError, match="time must be finite"):
            mat_exp(m, t)
        with pytest.raises(ValueError, match="times must be finite"):
            mat_exp(m, np.array([0.0, t]))


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

    def test_marginal_coupling_rejected(self):
        with pytest.raises(SteadyStateUnavailable):
            steady_state(dataclasses.replace(FIG1A, nu=1.0))

    def test_availability_flag(self):
        assert steady_state_available(FIG1A)
        assert not steady_state_available(dataclasses.replace(FIG1A, lambda_=0.0))
        assert not steady_state_available(dataclasses.replace(FIG1A, nu=1.0))


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

    def test_marginal_parameters_rejected(self):
        for changes in (dict(lambda_=0.0), dict(nu=1.0)):
            marginal = dataclasses.replace(FIG1A, **changes)
            for t in (1.0, np.linspace(0.0, 1.0, 3)):
                with pytest.raises(SteadyStateUnavailable):
                    propagate(np.eye(4), marginal, t)

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


class TestOdeOracle:
    def test_time_zero_returns_initial(self):
        sigma0 = initial_squeezed_vacuum(1.0)
        assert np.array_equal(ode_oracle(sigma0, FIG1A, 0.0), sigma0)

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
        mu0 = purity(invariants(sigma0))
        s = ode_oracle(sigma0, params, 10.0, 1e-3)
        assert abs(purity(invariants(s)) - mu0) <= 1e-9

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
        with pytest.raises(ValueError):
            ode_oracle(np.eye(4), FIG1A, 1.0, 0.0)
        with pytest.raises(ValueError):
            ode_oracle(np.eye(4), FIG1A, 1.0, 2.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan, -1.0])
    def test_bad_time_rejected(self, t):
        with pytest.raises(ValueError, match="time must be finite and >= 0"):
            ode_oracle(np.eye(4), FIG1A, t)


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
