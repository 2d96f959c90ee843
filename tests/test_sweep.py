import dataclasses
import math

import numpy as np
import pytest

from oscbath import (
    CorrelationReport,
    DEFAULT_GRID,
    FIGURE_IDS,
    SystemParams,
    TimeGrid,
    Trajectory,
    UnknownFigure,
    detect_sudden_death,
    evolve_trajectory,
    figure_preset,
    full_report,
    ode_oracle,
    propagate,
    initial_squeezed_vacuum,
    steady_state,
    sweep_parameter,
    validate,
)
from helpers import FIG1A, FIG2A, FIG4

SMALL_GRID = TimeGrid(0.0, 10.0, 101)


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
         dict(t_start=0.0, t_end=math.nan, n_points=3)],
    )
    def test_invalid_grid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TimeGrid(**kwargs)


class TestEvolveTrajectory:
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

    def test_auto_falls_back_to_rk4_without_dissipation(self):
        params = dataclasses.replace(FIG1A, lambda_=0.0)
        traj = evolve_trajectory(params, TimeGrid(0.0, 10.0, 21))
        assert traj.integrator == "rk4"
        purities = [rec.report.purity for rec in traj.records]
        assert max(purities) - min(purities) <= 1e-9

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
        [(dataclasses.replace(FIG1A, lambda_=0.0), DEFAULT_GRID),
         (FIG4, TimeGrid(0.75, 3.0, 41)),  # first interval starts at t = 0
         (FIG4, TimeGrid(0.0, 0.01, 21))],  # spacing below dt
    )
    def test_rk4_records_are_chained_ode_oracle(self, params, grid):
        dt = 1e-3
        traj = evolve_trajectory(params, grid, integrator="rk4", dt=dt)
        s = initial_squeezed_vacuum(params.r)
        t_prev = 0.0
        for t, rec in zip(grid.times(), traj.records):
            step = float(t) - t_prev
            s = ode_oracle(s, params, step, min(dt, step))
            assert np.array_equal(rec.sigma, s), rec.t
            assert np.array_equal(rec.sigma, rec.sigma.T), rec.t
            t_prev = float(t)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -1.0, 0.0])
    def test_bad_step_rejected(self, dt):
        for integrator in ("closed", "rk4"):
            with pytest.raises(ValueError, match="dt must be finite"):
                evolve_trajectory(FIG1A, TimeGrid(0.0, 1.0, 3), integrator, dt)

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
        assert outcomes[2].error is None

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            sweep_parameter(FIG1A, "kappa", [1.0], SMALL_GRID)

    def test_marginal_coupling_value_falls_back_to_rk4(self):
        # |nu| exactly at the bound validates (with a warning) and the
        # auto integrator routes it through the rk4 path
        grid = TimeGrid(0.0, 1.0, 3)
        outcomes = sweep_parameter(FIG1A, "nu", [0.5, 1.0], grid)
        assert outcomes[0].trajectory.integrator == "closed"
        assert outcomes[1].error is None
        assert outcomes[1].trajectory.integrator == "rk4"

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
        return dict(params=FIG1A, log_base=math.e, integrator="closed",
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
