import dataclasses
import math
import time

import numpy as np
import pytest

from oscbath import (
    CorrelationReport,
    DEFAULT_GRID,
    FIGURE_IDS,
    InvalidParameters,
    NonPhysicalInput,
    OutOfRange,
    SystemParams,
    TimeGrid,
    Trajectory,
    UnknownFigure,
    coupling_bound,
    detect_sudden_death,
    evolve_trajectory,
    figure_preset,
    full_report,
    propagate,
    initial_squeezed_vacuum,
    steady_state,
    sweep_parameter,
    validate,
)
from oscbath.sweep import _evolve
from helpers import FIG1A, FIG2A, FIG4, chained_ode_oracle, random_valid_params

LAMBDA0 = dataclasses.replace(FIG1A, lambda_=0.0)
MARGINAL = dataclasses.replace(FIG4, nu=-coupling_bound(FIG4))

SMALL_GRID = TimeGrid(0.0, 10.0, 101)


def _core(sigma0, params, grid, integrator="closed"):
    """The trajectory core behind evolve_trajectory, from any sigma0."""
    return _evolve([(sigma0, params)], grid, integrator, 1e-3)[0]


@pytest.fixture
def no_propagation(monkeypatch):
    """Make both propagation routes of a trajectory fail if called."""
    import oscbath.sweep as sweep

    def fail(*args, **kwargs):
        raise AssertionError("propagated before the arguments were checked")

    monkeypatch.setattr(sweep, "_propagate_grid", fail)
    monkeypatch.setattr(sweep, "_rk4_grid", fail)


class TestTimeGrid:
    def test_times_are_uniform(self):
        grid = TimeGrid(0.0, 10.0, 5)
        assert np.array_equal(grid.times(), [0.0, 2.5, 5.0, 7.5, 10.0])
        assert grid.spacing == 2.5

    @pytest.mark.parametrize(
        "kwargs",
        [dict(t_start=-1.0, t_end=1.0, n_points=5),
         dict(t_start=1.0, t_end=1.0, n_points=5),
         dict(t_start=0.0, t_end=1.0, n_points=1),
         dict(t_start=0.0, t_end=math.inf, n_points=3),
         dict(t_start=math.inf, t_end=math.inf, n_points=3),
         dict(t_start=0.0, t_end=math.nan, n_points=3),
         dict(t_start=0.0, t_end=1.0, n_points=2 ** 53 + 1),
         dict(t_start=0.0, t_end=1.0, n_points=2 ** 62),
         dict(t_start=0.0, t_end=1.0, n_points=2 ** 63)],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)

    @pytest.mark.parametrize("n_points", [2.5, 3.0, True, "5", None])
    def test_non_integer_points_rejected(self, n_points):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            TimeGrid(0.0, 10.0, n_points)

    def test_numpy_integer_points_accepted(self):
        grid = TimeGrid(0.0, 10.0, np.int64(5))
        assert np.array_equal(grid.times(), TimeGrid(0.0, 10.0, 5).times())


class TestEvolveTrajectory:
    def test_rk4_overflow_raises_out_of_range(self):
        # dt = 1e299 is far beyond the RK4 stability limit; no bare
        # ValueError and no RuntimeWarning (an error in this suite)
        params = SystemParams(1.0, 0.0, 0.8, 0.6, 0.2, 1.0)
        with pytest.raises(OutOfRange, match="left the float range"):
            evolve_trajectory(params, TimeGrid(0.0, 1e300, 3), "rk4", 1e299)

    def test_rk4_huge_time_without_dissipation_raises_out_of_range(self):
        # 5e302 steps per interval, composed by repeated squaring: the
        # undamped map's unit eigenvalue rounds a hair above 1 and grows
        params = SystemParams(1.0, 0.0, 0.8, 0.0, 0.2, 1.0)
        start = time.perf_counter()
        with pytest.raises(OutOfRange, match="left the float range"):
            evolve_trajectory(params, TimeGrid(0.0, 1e300, 3), "rk4")
        assert time.perf_counter() - start < 10.0

    def test_rk4_huge_time_settles_at_steady_state(self):
        params = SystemParams(1.0, 0.0, 0.8, 0.6, 0.2, 1.0)
        traj = evolve_trajectory(params, TimeGrid(0.0, 1e300, 3), "rk4")
        s_inf = steady_state(params)
        for sigma in traj.sigmas[1:]:
            # the steady state's own residual bound
            assert np.abs(sigma - s_inf).max() <= 1e-10 * np.abs(s_inf).max()

    # Squeezing beyond the box (r <= 4.579) is refused by evolve_trajectory;
    # the trajectory core behind it still meets such states, which any
    # sigma0 given to propagate or ode_oracle can be, and raises an
    # OscbathError for them.

    def test_large_squeezing_raises_oscbath_error(self):
        # r = 50 puts i1*i2 near cosh(100)**4, whose square is inf, not an
        # OverflowError; the rounded invariants of this pure state then
        # give a negative squared eigenvalue
        params = SystemParams(1.0, 0.0, 0.8, 0.6, 0.2, 50.0)
        with pytest.raises(InvalidParameters, match="r <= 4.5790"):
            evolve_trajectory(params, TimeGrid(0.0, 10.0, 11))
        with pytest.raises(NonPhysicalInput, match="symplectic eigenvalue"):
            _core(initial_squeezed_vacuum(50.0), FIG1A, TimeGrid(0.0, 10.0, 11))

    @pytest.mark.parametrize("r", [400.0, 1000.0])
    def test_squeezing_beyond_float_range_raises_out_of_range(self, r):
        # cosh(2r) overflows for r above about 355
        params = SystemParams(1.0, 0.0, 0.8, 0.6, 0.2, r)
        with pytest.raises(InvalidParameters, match=f"r <= 4.5790.*got {r}"):
            evolve_trajectory(params, TimeGrid(0.0, 10.0, 11))
        with pytest.raises(OutOfRange, match=f"squeezing r = {r}"):
            initial_squeezed_vacuum(r)

    @pytest.mark.parametrize("integrator", ["closed", "rk4"])
    def test_squeezing_at_the_float_range_limit_raises_out_of_range(self, integrator):
        # r = 355 gives finite entries near 1.1e308: the closed form's mode
        # basis takes them past the maximum, and RK4's states stay finite but
        # their invariants overflow; no RuntimeWarning from the
        # symmetrization may come first
        reason = {"closed": "propagated covariance left the float range",
                  "rk4": "exact i1 .* beyond the float range"}[integrator]
        with pytest.raises(OutOfRange, match=reason):
            _core(initial_squeezed_vacuum(355.0), FIG1A, TimeGrid(0.0, 10.0, 11), integrator)

    def test_initial_record(self):
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, 10.0, 201))
        first = traj.records[0]
        assert first.t == 0.0
        assert first.report.purity == pytest.approx(1.0, abs=1e-10)
        assert first.report.log_negativity == pytest.approx(2.0, abs=1e-9)
        assert first.report.discord == pytest.approx(1.6198220928977025, abs=1e-6)
        assert len(traj.records) == 201
        assert traj.integrator == "closed"

    def test_discord_decays_but_survives_with_coupling(self):
        traj = evolve_trajectory(FIG1A, SMALL_GRID)
        discord = [rec.report.discord for rec in traj.records]
        assert discord[-1] < discord[0]
        assert discord[-1] > 0.0

    def test_discord_approaches_zero_without_coupling(self):
        params = dataclasses.replace(FIG1A, nu=0.0)
        traj = evolve_trajectory(params, SMALL_GRID)
        discord = {rec.t: rec.report.discord for rec in traj.records}
        assert discord[10.0] < discord[5.0]
        assert discord[10.0] < 1e-8

    def test_long_time_record_matches_steady_report(self):
        t_end = 40.0 / FIG1A.lambda_
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, t_end, 11))
        final = traj.records[-1].report
        ref = full_report(steady_state(FIG1A))
        assert final.purity == pytest.approx(ref.purity, abs=1e-7)
        assert final.log_negativity == pytest.approx(ref.log_negativity, abs=1e-7)
        assert final.discord == pytest.approx(ref.discord, abs=1e-7)

    def test_every_record_physical(self):
        traj = evolve_trajectory(FIG2A, SMALL_GRID)
        assert all(rec.report.physical for rec in traj.records)
        assert all(rec.data.nu_minus >= 1.0 - 1e-8 for rec in traj.records)

    def test_rk4_integrator_matches_closed(self):
        grid = TimeGrid(0.0, 2.0, 5)
        closed = evolve_trajectory(FIG1A, grid, integrator="closed")
        rk4 = evolve_trajectory(FIG1A, grid, integrator="rk4", dt=1e-3)
        for a, b in zip(closed.records, rk4.records):
            assert np.abs(a.sigma - b.sigma).max() <= 1e-7

    def test_closed_default_without_dissipation(self):
        params = dataclasses.replace(FIG1A, lambda_=0.0)
        traj = evolve_trajectory(params, TimeGrid(0.0, 10.0, 21))
        assert traj.integrator == "closed"
        purities = [rec.report.purity for rec in traj.records]
        assert max(purities) - min(purities) <= 1e-9
        with pytest.raises(ValueError, match="unknown integrator 'auto'"):
            evolve_trajectory(params, TimeGrid(0.0, 10.0, 21), "auto")

    def test_grid_times_match(self):
        traj = evolve_trajectory(FIG1A, SMALL_GRID)
        assert np.array_equal([rec.t for rec in traj.records], SMALL_GRID.times())

    def test_closed_records_are_propagate_of_grid(self):
        traj = evolve_trajectory(FIG4, SMALL_GRID, integrator="closed")
        expected = propagate(
            initial_squeezed_vacuum(FIG4.r), FIG4, SMALL_GRID.times()
        )
        assert np.array_equal([rec.sigma for rec in traj.records], expected)

    @pytest.mark.parametrize(
        "params, grid",
        [(LAMBDA0, DEFAULT_GRID),
         (FIG4, TimeGrid(0.75, 3.0, 41)),  # first interval starts at t = 0
         (FIG4, TimeGrid(0.0, 0.01, 21)),  # spacing below dt
         # linspace's spans differ in the last bits from the spacing
         (FIG4, TimeGrid(0.0, 10.0, 301)),
         (MARGINAL, DEFAULT_GRID),
         (FIG1A, TimeGrid(0.0, 10.0, 2001)),  # 2000 intervals by doubling
         # the spacing rounds to 0, while some grid times are 5e-324
         (FIG4, TimeGrid(0.0, 5e-324, 40))],
    )
    def test_rk4_records_are_chained_ode_oracle(self, record_property, params, grid):
        # the grid is filled by doubling, so rows agree with the chain of
        # one-interval ode_oracle calls to rounding, not bit for bit
        dt = 1e-3
        sigmas = evolve_trajectory(params, grid, integrator="rk4", dt=dt).sigmas
        chain = chained_ode_oracle(initial_squeezed_vacuum(params.r), params,
                                   grid.times(), dt)
        rel = (np.abs(sigmas - chain).max(axis=(1, 2))
               / np.abs(chain).max(axis=(1, 2)))
        record_property("max_rel_diff", float(rel.max()))
        assert rel.max() <= 1e-13, float(rel.max())
        assert np.array_equal(sigmas, sigmas.swapaxes(1, 2))

    @pytest.mark.parametrize("grid, spans, steps", [
        # 0.75 is 750 steps of 1e-3; the spacing 0.05625 is 56 steps and a
        # remainder of 2.5e-4
        (TimeGrid(0.75, 3.0, 41), [0.75, 0.05625], [1e-3, 1e-3, 2.5e-4]),
        # 300 spans that differ in the last bits: one map of the spacing
        (TimeGrid(0.0, 10.0, 301), [10.0 / 300], [1e-3, 1e-3 / 3]),
        (TimeGrid(0.0, 10.0, 2001), [0.005], [1e-3]),
    ])
    def test_rk4_builds_at_most_two_maps(self, monkeypatch, grid, spans, steps):
        # the step counts follow from the spans by ode_oracle's rule, which
        # TestRk4Map checks against per-step RK4
        import oscbath.dynamics as dynamics

        built, sizes = [], []  # the spans of the maps, their single steps
        rk4_map = dynamics._rk4_map
        monkeypatch.setattr(dynamics, "_rk4_map",
                            lambda *args: built.append(args[2]) or rk4_map(*args))
        rk4_step = dynamics._rk4_step
        monkeypatch.setattr(dynamics, "_rk4_step",
                            lambda *args: sizes.append(args[2]) or rk4_step(*args))
        evolve_trajectory(FIG4, grid, "rk4", dt=1e-3)
        assert built == spans
        assert sizes == pytest.approx(steps, rel=1e-9)

    def test_rk4_purity_conserved_on_every_row_at_lambda0(self):
        # the rk4 bench gate on lambda = 0 sets, over all 501 rows
        purity = evolve_trajectory(LAMBDA0, DEFAULT_GRID, "rk4", dt=1e-3).report.purity
        assert len(purity) == 501
        assert np.abs(purity - purity[0]).max() <= 1e-9

    def test_rk4_rows_match_closed_form_on_stable_sets(self):
        # the rk4 bench gate on stable sets: every row within 1e-7
        rng = np.random.default_rng(2024)
        for _ in range(4):
            params = random_valid_params(rng)
            traj = evolve_trajectory(params, DEFAULT_GRID, "rk4", dt=1e-3)
            closed = propagate(initial_squeezed_vacuum(params.r), params,
                               DEFAULT_GRID.times())
            assert np.abs(traj.sigmas - closed).max() <= 1e-7, params

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_step_rejected(self, no_propagation, dt):
        for integrator in ("closed", "rk4"):
            with pytest.raises(ValueError, match="dt must be finite"):
                evolve_trajectory(FIG1A, TimeGrid(0.0, 1.0, 3), integrator, dt)

    def test_unknown_integrator_raises_before_validation(self, no_propagation):
        invalid = dataclasses.replace(FIG1A, nu=5.0)
        with pytest.raises(ValueError, match="unknown integrator 'bogus'"):
            evolve_trajectory(invalid, SMALL_GRID, "bogus")

    def test_deterministic(self):
        a = evolve_trajectory(FIG1A, SMALL_GRID)
        b = evolve_trajectory(FIG1A, SMALL_GRID)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.sigma, rb.sigma)
            assert ra.report == rb.report

    def test_purity_starts_pure_and_settles(self):
        t_end = 40.0 / FIG1A.lambda_
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, t_end, 41))
        purities = {rec.t: rec.report.purity for rec in traj.records}
        assert purities[0.0] == pytest.approx(1.0, abs=1e-9)
        assert abs(purities[t_end] - purities[t_end / 2]) <= 1e-4


class TestSweepParameter:
    def test_order_and_values(self):
        temps = [0.1, 0.5, 1.0, 2.0]
        outcomes = sweep_parameter(FIG1A, "temperature", temps, SMALL_GRID)
        assert [o.value for o in outcomes] == temps
        assert all(o.trajectory is not None for o in outcomes)
        assert all(
            o.trajectory.params.temperature == o.value for o in outcomes
        )

    def test_discord_monotone_in_temperature(self):
        outcomes = sweep_parameter(FIG1A, "temperature", [0.1, 0.5, 1.0, 2.0],
                                   SMALL_GRID)
        curves = [
            [rec.report.discord for rec in o.trajectory.records]
            for o in outcomes
        ]
        for cold, hot in zip(curves, curves[1:]):
            for c, h in zip(cold[1:], hot[1:]):
                assert c >= h - 1e-9

    def test_invalid_value_collected_not_fatal(self):
        outcomes = sweep_parameter(FIG1A, "temperature", [0.5, -1.0, 1.0],
                                   SMALL_GRID)
        assert outcomes[0].error is None
        assert outcomes[1].trajectory is None
        assert "temperature" in outcomes[1].error
        invalid = dataclasses.replace(FIG1A, temperature=-1.0)
        assert outcomes[1].error == "; ".join(validate(invalid).violations)
        assert outcomes[2].error is None

    @pytest.mark.parametrize("dt", [math.nan, 0.0, -1.0])
    def test_bad_step_raises_before_any_value(self, dt):
        # even when no value is valid, so no trajectory would be evolved
        with pytest.raises(ValueError, match="dt must be finite"):
            sweep_parameter(FIG1A, "temperature", [-1.0, -2.0], SMALL_GRID, dt=dt)

    @pytest.mark.parametrize("values", [[5.0], [5.0, 0.3]])
    def test_unknown_integrator_raises_before_any_value(self, no_propagation, values):
        # nu = 5 fails validation; the integrator is checked first, so the
        # error does not depend on whether another value is valid
        with pytest.raises(ValueError, match="unknown integrator 'bogus'"):
            sweep_parameter(FIG1A, "nu", values, SMALL_GRID, integrator="bogus")

    def test_no_values(self):
        assert sweep_parameter(FIG1A, "nu", [], SMALL_GRID) == []

    def test_outcomes_own_their_times(self):
        outcomes = sweep_parameter(FIG1A, "temperature", [0.1, 0.5, 1.0], SMALL_GRID)
        outcomes[0].trajectory.times[1] = 99.0
        for outcome in outcomes[1:]:
            assert np.array_equal(outcome.trajectory.times, SMALL_GRID.times())

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter(FIG1A, "kappa", [1.0], SMALL_GRID)

    def test_marginal_coupling_value_stays_closed(self):
        # |nu| exactly at the bound validates and takes the closed form,
        # within RK4's error of the rk4 sweep
        grid = TimeGrid(0.0, 1.0, 3)
        closed = sweep_parameter(FIG1A, "nu", [0.5, 1.0], grid)
        rk4 = sweep_parameter(FIG1A, "nu", [0.5, 1.0], grid, "rk4")
        for a, b in zip(closed, rk4):
            assert a.error is None and a.trajectory.integrator == "closed"
            assert np.abs(a.trajectory.sigmas - b.trajectory.sigmas).max() <= 1e-9

    def test_steady_purity_increases_with_dissipation(self):
        params = dataclasses.replace(FIG2A, temperature=0.5)
        purities = []
        for lam in (0.3, 0.6, 0.9):
            p = dataclasses.replace(params, lambda_=lam)
            purities.append(full_report(steady_state(p)).purity)
        assert purities[0] < purities[1] < purities[2]


class TestDetectSuddenDeath:
    @staticmethod
    def _columns(en_values):
        n = len(en_values)
        report = CorrelationReport(
            purity=np.ones(n), log_negativity=np.array(en_values, dtype=float),
            discord=np.zeros(n), physical=np.ones(n, dtype=bool),
            zeta_branch=np.full(n, None, dtype=object),
        )
        return dict(params=FIG1A, integrator="closed",
                    times=np.arange(n, dtype=float), sigmas=None, data=None,
                    report=report)

    def _synthetic(self, en_values):
        grid = TimeGrid(0.0, float(len(en_values) - 1), len(en_values))
        return Trajectory(grid=grid, **self._columns(en_values))

    def test_constructed_crossing_pattern(self):
        report = detect_sudden_death(self._synthetic([1.0, 0.5, 0.0, 0.0, 0.2, 0.0]))
        assert report.death_times == (2.0, 5.0)
        assert report.revival_times == (4.0,)
        assert not report.asymptotically_entangled

    def test_always_entangled(self):
        report = detect_sudden_death(self._synthetic([1.0, 0.8, 0.5, 0.3, 0.2, 0.1]))
        assert report.death_times == ()
        assert report.revival_times == ()
        assert report.asymptotically_entangled

    def test_events_interleave(self):
        report = detect_sudden_death(
            self._synthetic([1.0, 0.0, 0.5, 0.0, 0.4, 0.0, 0.2])
        )
        events = sorted(
            [(t, "death") for t in report.death_times]
            + [(t, "revival") for t in report.revival_times]
        )
        kinds = [kind for _, kind in events]
        assert kinds == ["death", "revival"] * (len(kinds) // 2) + (
            ["death"] if len(kinds) % 2 else []
        )
        assert kinds[0] == "death"

    def test_hot_bath_kills_entanglement(self):
        params = dataclasses.replace(FIG2A, temperature=2.0)
        traj = evolve_trajectory(params, TimeGrid(0.0, 10.0, 201))
        report = detect_sudden_death(traj)
        assert len(report.death_times) >= 1
        assert not report.asymptotically_entangled

    def test_empty_trajectory_rejected(self):
        traj = Trajectory(grid=SMALL_GRID, **self._columns([]))
        with pytest.raises(ValueError):
            detect_sudden_death(traj)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        traj = self._synthetic([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="threshold must be finite"):
            detect_sudden_death(traj, threshold=threshold)

    @staticmethod
    def _loop_reference(traj, threshold):
        # the per-interval loop the boolean masks replaced
        deaths, revivals = [], []
        en = traj.report.log_negativity.tolist()
        ts = traj.times.tolist()
        for i in range(len(en) - 1):
            if en[i] > threshold >= en[i + 1]:
                deaths.append(ts[i + 1])
            elif en[i] <= threshold < en[i + 1]:
                revivals.append(ts[i + 1])
        return tuple(deaths), tuple(revivals), en[-1] > threshold

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_loop_on_seeded_sequences(self, seed):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 2, 3, 17, 200):
            # a few levels, so runs and exact ties with the threshold occur
            en = rng.choice([-0.5, 0.0, 0.0, 0.25, 1.0, math.nan], size=n)
            traj = Trajectory(grid=SMALL_GRID, **self._columns(en.tolist()))
            for threshold in (0.0, 0.25, -1.0):
                got = detect_sudden_death(traj, threshold=threshold)
                deaths, revivals, entangled = self._loop_reference(traj, threshold)
                assert got.death_times == deaths
                assert got.revival_times == revivals
                assert got.asymptotically_entangled is entangled
                assert all(type(t) is float
                           for t in got.death_times + got.revival_times)

    @pytest.mark.parametrize("en", [[1.0, 0.0], [0.0, 1.0], [math.nan, 1.0],
                                    [1.0, math.nan], [0.0, 0.0], [1.0, 1.0]])
    def test_two_point_trajectories_match_loop(self, en):
        traj = self._synthetic(en)
        got = detect_sudden_death(traj)
        assert (got.death_times, got.revival_times,
                got.asymptotically_entangled) == self._loop_reference(traj, 0.0)


class TestFigurePreset:
    def test_all_ids_resolve_and_validate(self):
        assert len(FIGURE_IDS) == 15
        for figure_id in FIGURE_IDS:
            preset = figure_preset(figure_id)
            assert preset.params.omega == 1.0
            for value in preset.values:
                swapped = dataclasses.replace(
                    preset.params, **{preset.sweep: value}
                )
                assert validate(swapped).ok, (figure_id, value)

    def test_fig1a(self):
        preset = figure_preset("fig1a")
        p = preset.params
        assert (p.epsilon, p.r, p.lambda_, p.nu) == (0.0, 1.0, 0.6, 0.8)
        assert preset.sweep == "temperature"
        assert preset.observable == "discord"
        assert preset.values == (0.1, 0.5, 1.0, 2.0)

    def test_fig3b(self):
        preset = figure_preset("fig3b")
        p = preset.params
        assert (p.temperature, p.r, p.epsilon, p.nu) == (0.5, 2.0, 0.0, 0.8)
        assert preset.sweep == "lambda_"
        assert preset.observable == "purity"

    def test_fig4c(self):
        preset = figure_preset("fig4c")
        p = preset.params
        assert (p.epsilon, p.r, p.lambda_, p.temperature) == (0.5, 2.0, 0.6, 0.2)
        assert preset.sweep == "nu"
        assert preset.observable == "purity"
        assert preset.values[-1] == pytest.approx(
            0.9 * math.sqrt(0.75), rel=1e-12
        )

    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            figure_preset("fig9")


class TestCouplingOscillations:
    def test_uncoupled_entanglement_decays_after_peak_coupled_oscillates(self):
        preset = figure_preset("fig4a")
        grid = TimeGrid(0.0, 10.0, 201)
        uncoupled = evolve_trajectory(
            dataclasses.replace(preset.params, nu=0.0), grid
        )
        strong = evolve_trajectory(
            dataclasses.replace(preset.params, nu=preset.values[-1]), grid
        )
        en = [rec.report.log_negativity for rec in uncoupled.records]
        peak = int(np.argmax(en))
        assert all(a >= b - 1e-12 for a, b in zip(en[peak:], en[peak + 1:]))
        assert not detect_sudden_death(uncoupled).revival_times
        # strong coupling produces death/revival oscillations instead
        assert detect_sudden_death(strong).revival_times


class TestCouplingResilience:
    def test_discord_survives_only_with_coupling(self):
        t_end = 40.0 / FIG4.lambda_
        sigma0 = initial_squeezed_vacuum(FIG4.r)
        survivors = {}
        for nu in (0.0, 0.3, 0.6):
            params = dataclasses.replace(FIG4, nu=nu)
            survivors[nu] = full_report(propagate(sigma0, params, t_end)).discord
        assert survivors[0.6] > 1e-6
        assert survivors[0.3] > 1e-6
        assert survivors[0.0] < survivors[0.3]
        assert survivors[0.0] <= 1e-8
