"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line after its assertions (run pytest with -s to
see them); a failed assertion is the FAIL signal. The expensive shared
computations (figure-preset trajectories, high-resolution integrator runs)
are module-scoped fixtures so the whole suite stays fast.
"""

import dataclasses
import math

import numpy as np
import pytest

from oscbath import (
    FIGURE_IDS,
    SystemParams,
    build_diffusion,
    build_drift,
    detect_sudden_death,
    evolve_trajectory,
    figure_preset,
    full_report,
    initial_squeezed_vacuum,
    invariants,
    mode_frequencies,
    ode_oracle,
    propagate,
    report_from_data,
    steady_state,
    thermal_coth,
)
from oscbath.cli import main
from helpers import (
    FIG1A,
    FIG2A,
    FIG4,
    random_physical_cov,
    random_valid_params,
    single_mode_rotations,
)

CROSS_CHECK_TIMES = (0.5, 1.0, 2.0, 5.0, 10.0)


def f_oracle(x):
    xp, xm = 0.5 * (x + 1.0), 0.5 * (x - 1.0)
    return xp * math.log(xp) - xm * math.log(xm) if xm > 0 else 0.0


@pytest.fixture(scope="module")
def preset_trajectories():
    """figure id -> list of (swept value, trajectory), deduplicated."""
    cache = {}
    out = {}
    for figure_id in FIGURE_IDS:
        preset = figure_preset(figure_id)
        curves = []
        for value in preset.values:
            params = dataclasses.replace(preset.params, **{preset.sweep: value})
            if params not in cache:
                cache[params] = evolve_trajectory(params, preset.grid)
            curves.append((value, cache[params]))
        out[figure_id] = curves
    return out


@pytest.fixture(scope="module")
def cross_method_sets():
    """Closed form vs RK4 (dt = 1e-4) at the caption parameter sets."""
    sets = {
        "fig1a": FIG1A,
        "fig2a": FIG2A,
        "fig4(nu=0.6)": FIG4,  # coupling from the fig4 sweep list
    }
    results = {}
    for name, params in sets.items():
        sigma0 = initial_squeezed_vacuum(params.r)
        diffs = {}
        s_rk = sigma0
        t_prev = 0.0
        for t in CROSS_CHECK_TIMES:
            s_rk = ode_oracle(s_rk, params, t - t_prev, 1e-4)
            diffs[t] = float(np.abs(propagate(sigma0, params, t) - s_rk).max())
            t_prev = t
        results[name] = diffs
    return results


def test_criterion_1_closed_form_vs_ode_oracle(cross_method_sets):
    worst = 0.0
    for name, diffs in cross_method_sets.items():
        for t, diff in diffs.items():
            assert diff <= 1e-7, (name, t, diff)
            worst = max(worst, diff)
    print(f"PASS criterion 1: closed form vs RK4 oracle agree to {worst:.2e} "
          f"(bound 1e-7) at t in {CROSS_CHECK_TIMES} for the three caption sets")


def test_criterion_2_lyapunov_residual_random_grid():
    rng = np.random.default_rng(20250801)
    worst = 0.0
    for _ in range(100):
        params = random_valid_params(rng)
        s = steady_state(params)
        m = build_drift(params)
        d = np.diag(build_diffusion(params))
        residual = float(np.abs(m @ s + s @ m.T + 2.0 * d).max())
        assert residual <= 1e-10, params
        worst = max(worst, residual)
    print(f"PASS criterion 2: steady-state residual <= {worst:.2e} "
          f"(bound 1e-10) on 100 random valid parameter sets")


def test_criterion_3_decoupled_steady_state():
    worst = 0.0
    for temperature in (0.0, 0.2, 1.0):
        for epsilon in (0.0, 0.5):
            params = dataclasses.replace(
                FIG1A, nu=0.0, epsilon=epsilon, temperature=temperature
            )
            w1, w2 = mode_frequencies(params)
            c1 = thermal_coth(w1, temperature)
            c2 = thermal_coth(w2, temperature)
            expected = np.diag([c1 / w1, c1 * w1, c2 / w2, c2 * w2])
            err = float(np.abs(steady_state(params) - expected).max())
            assert err <= 1e-10, (temperature, epsilon, err)
            worst = max(worst, err)
    print(f"PASS criterion 3: uncoupled steady state matches the analytic "
          f"thermal form to {worst:.2e} (bound 1e-10)")


def test_criterion_4_initial_state_measures():
    for r in (0.5, 1.0, 2.0):
        rep = full_report(initial_squeezed_vacuum(r))
        assert abs(rep.purity - 1.0) <= 1e-10, r
        assert abs(rep.log_negativity - 2.0 * r) <= 1e-9, r
        assert abs(rep.discord - f_oracle(math.cosh(2.0 * r))) <= 1e-6, r
    print("PASS criterion 4: initial-state purity = 1 (1e-10), "
          "log negativity = 2r (1e-9), discord = f(cosh 2r) (1e-6) "
          "for r in {0.5, 1, 2}")


def test_criterion_5_physicality_along_presets(preset_trajectories):
    worst = math.inf
    points = 0
    for figure_id, curves in preset_trajectories.items():
        for value, traj in curves:
            for rec in traj.records:
                assert rec.data.nu_minus >= 1.0 - 1e-8, (figure_id, value, rec.t)
                worst = min(worst, rec.data.nu_minus)
                points += 1
    print(f"PASS criterion 5: nu_minus >= 1 - 1e-8 at all {points} grid "
          f"points of all {len(preset_trajectories)} presets "
          f"(worst {worst - 1.0:+.2e})")


def test_criterion_6_unitary_purity_conservation():
    params = dataclasses.replace(FIG1A, lambda_=0.0)
    sigma0 = initial_squeezed_vacuum(params.r)
    mu0 = full_report(sigma0).purity
    drift = 0.0
    sigma = sigma0
    for _ in range(10):
        sigma = ode_oracle(sigma, params, 1.0, 1e-3)
        drift = max(drift, abs(full_report(sigma).purity - mu0))
    assert drift <= 1e-9
    print(f"PASS criterion 6: purity drift {drift:.2e} (bound 1e-9) over "
          f"t in [0, 10] with lambda = 0 on the RK4 path")


def test_criterion_7_temperature_trends(preset_trajectories):
    # discord curves from fig1a, entanglement curves from fig2a
    for figure_id, field in (("fig1a", "discord"), ("fig2a", "log_negativity")):
        curves = preset_trajectories[figure_id]
        values = [value for value, _ in curves]
        assert values == sorted(values)
        series = [
            [getattr(rec.report, field) for rec in traj.records[1:]]
            for _, traj in curves
        ]
        for cold, hot in zip(series, series[1:]):
            for c, h in zip(cold, hot):
                assert c >= h - 1e-9, (figure_id, field)
    # steady-state purity over the fig3a temperature list
    preset = figure_preset("fig3a")
    purities = [
        full_report(steady_state(
            dataclasses.replace(preset.params, temperature=value)
        )).purity
        for value in preset.values
    ]
    for colder, hotter in zip(purities, purities[1:]):
        assert colder >= hotter - 1e-9
    print("PASS criterion 7: discord (fig1a), log negativity (fig2a) and "
          "steady-state purity (fig3a) are non-increasing in temperature "
          "at every shared t > 0 (tolerance 1e-9)")


def test_criterion_8_dissipation_trends(preset_trajectories):
    lam_values = figure_preset("fig3b").values
    t_end = 40.0 / min(lam_values)
    base = figure_preset("fig3b").params
    purities = []
    for lam in lam_values:
        params = dataclasses.replace(base, lambda_=lam)
        sigma = propagate(initial_squeezed_vacuum(params.r), params, t_end)
        purities.append(full_report(sigma).purity)
    assert all(a < b for a, b in zip(purities, purities[1:])), purities

    t_probe = 1.0  # fixed small time on the fig1b grid
    discords = []
    for value, traj in preset_trajectories["fig1b"]:
        rec = min(traj.records, key=lambda r: abs(r.t - t_probe))
        assert rec.t == t_probe
        discords.append(rec.report.discord)
    assert all(a > b for a, b in zip(discords, discords[1:])), discords
    print(f"PASS criterion 8: steady purity strictly increasing in lambda "
          f"at t = {t_end:g} (fig3b) and discord at t = 1 strictly "
          f"decreasing in lambda (fig1b)")


def test_criterion_9_coupling_trends():
    nu_values = (0.0, 0.3, 0.6)
    reports = []
    for nu in nu_values:
        params = dataclasses.replace(FIG4, nu=nu)
        reports.append(full_report(steady_state(params)))
    ens = [rep.log_negativity for rep in reports]
    discords = [rep.discord for rep in reports]
    assert all(a <= b + 1e-12 for a, b in zip(ens, ens[1:])), ens
    assert all(a <= b + 1e-12 for a, b in zip(discords, discords[1:])), discords
    assert discords[0] <= 1e-8
    assert discords[-1] > 1e-6
    print(f"PASS criterion 9: steady-state log negativity {ens} and discord "
          f"{discords} non-decreasing in nu; discord(nu=0) <= 1e-8, "
          f"discord(nu=0.6) > 1e-6")


def test_criterion_10_sudden_death_exists():
    dead_runs = []
    for temperature in (1.0, 2.0, 4.0):
        params = dataclasses.replace(FIG2A, temperature=temperature)
        traj = evolve_trajectory(params)
        report = detect_sudden_death(traj)
        if report.death_times and not report.asymptotically_entangled:
            dead_runs.append((temperature, report.death_times[0]))
    assert dead_runs, "no sudden death found in the temperature scan"
    en_at_1 = full_report(
        propagate(initial_squeezed_vacuum(FIG2A.r), FIG2A, 1.0)
    ).log_negativity
    assert en_at_1 > 1e-9
    print(f"PASS criterion 10: permanent entanglement death at "
          f"T in {[t for t, _ in dead_runs]} (first deaths at "
          f"t <= {[d for _, d in dead_runs]}); at T = 0.2 entanglement "
          f"still alive at t = 1 (E_n = {en_at_1:.3f})")


def test_criterion_11_measure_self_consistency():
    rng = np.random.default_rng(20250802)
    worst_rel = 0.0
    worst_rot = 0.0
    for _ in range(1000):
        sigma = random_physical_cov(rng)
        data = invariants(sigma)
        root = math.sqrt(data.i4)
        rel = abs(data.nu_minus * data.nu_plus - root) / root
        assert rel <= 1e-9
        rel_p = abs(report_from_data(data).purity - 1.0 / root) * root
        assert rel_p <= 1e-9
        worst_rel = max(worst_rel, rel, rel_p)

        rot = single_mode_rotations(rng.uniform(0, 2 * math.pi),
                                    rng.uniform(0, 2 * math.pi))
        rotated = rot @ sigma @ rot.T
        rep_a = full_report(sigma)
        rep_b = full_report(0.5 * (rotated + rotated.T))
        for field in ("purity", "log_negativity", "discord"):
            shift = abs(getattr(rep_a, field) - getattr(rep_b, field))
            assert shift <= 1e-9, field
            worst_rot = max(worst_rot, shift)
    print(f"PASS criterion 11: on 1000 random physical states, spectrum "
          f"identities hold to {worst_rel:.2e} rel (bound 1e-9) and local "
          f"rotations shift measures by <= {worst_rot:.2e} (bound 1e-9)")


def test_criterion_12_csv_determinism(tmp_path):
    dir_a = tmp_path / "run_a"
    dir_b = tmp_path / "run_b"
    assert main(["figure", "fig1a", "--out", str(dir_a)]) == 0
    assert main(["figure", "fig1a", "--out", str(dir_b)]) == 0
    names = sorted(p.name for p in dir_a.glob("*.csv"))
    assert len(names) == 4
    assert names == sorted(p.name for p in dir_b.glob("*.csv"))
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name
    print(f"PASS criterion 12: two runs of figure fig1a produced "
          f"byte-identical CSV files ({', '.join(names)})")


def test_criterion_13_discord_outlives_entanglement(preset_trajectories):
    # The paper: discord persists where entanglement is gone. On every row
    # of every preset trajectory with log negativity 0 the discord is finite
    # and positive; with coupling nu > 0 it is at least 5e-4 (the smallest,
    # 6.6e-4, is on fig4a-c at nu = 0.3). nu = 0 is the limit case: the
    # modes only share the initial two-mode squeezing, and the discord left
    # after the entanglement has gone keeps decaying (2.3e-8 at its least).
    smallest = {True: math.inf, False: math.inf}
    rows = trajectories = 0
    for figure_id, curves in preset_trajectories.items():
        for value, traj in curves:
            separable = traj.report.log_negativity == 0
            discord = traj.report.discord[separable]
            assert np.isfinite(discord).all(), (figure_id, value)
            assert (discord > 0).all(), (figure_id, value)
            if discord.size:
                coupled = traj.params.nu > 0
                if coupled:
                    assert discord.min() >= 5e-4, (figure_id, value)
                smallest[coupled] = min(smallest[coupled], float(discord.min()))
                rows += discord.size
                trajectories += 1
    assert trajectories >= 45  # 48 of the 60 trajectories lose entanglement
    print(f"PASS criterion 13: discord > 0 on all {rows} rows with zero log "
          f"negativity in {trajectories} preset trajectories; at least "
          f"{smallest[True]:.2e} (bound 5e-4) with nu > 0, {smallest[False]:.2e} "
          f"at nu = 0 (the limit case)")
