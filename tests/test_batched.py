"""The batched trajectory path against the scalar measures, bit for bit."""

import dataclasses
import math

import numpy as np
import pytest

from oscbath import (
    DEFAULT_GRID,
    FIGURE_IDS,
    NonPhysicalInput,
    TimeGrid,
    TrajectoryRecord,
    evolve_trajectory,
    figure_preset,
    initial_squeezed_vacuum,
    invariants,
    report_from_data,
    sweep_parameter,
)
from oscbath.measures import (
    _dd_block_invariants,
    _exact_block_invariants,
    _invariants_stack,
    _report_columns,
)
from helpers import FIG1A, random_symplectic


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def fig1a_stacks():
    preset = figure_preset("fig1a")
    outcomes = sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid)
    return [o.trajectory.sigmas for o in outcomes]


# the sigma stacks behind `evolve`, `evolve --integrator rk4` and
# `evolve --lambda 0 --integrator rk4` (the CLI defaults are FIG1A)
EVOLVE_RUNS = {
    "closed": (FIG1A, "closed"),
    "rk4": (FIG1A, "rk4"),
    "lambda0_rk4": (dataclasses.replace(FIG1A, lambda_=0.0), "rk4"),
}


def evolve_stack(name):
    params, integrator = EVOLVE_RUNS[name]
    return evolve_trajectory(params, DEFAULT_GRID, integrator=integrator).sigmas


def near_pure_stack(count=4000, seed=6):
    """Symplectic transforms of squeezed vacua (r up to 5), each plus a
    positive perturbation of size 1e-16 to 10."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, 4, 4))
    for k in range(count):
        s = random_symplectic(rng)
        sigma = s @ initial_squeezed_vacuum(rng.uniform(0.0, 5.0)) @ s.T
        g = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-16.0, 1.0)
        sigma = sigma + g @ g.T
        out[k] = 0.5 * (sigma + sigma.T)
    return out


def accepted_against_exact(sigmas):
    """Assert every value the round test accepts is the exact path's, bit
    for bit; return the (N, 8) accepted mask."""
    values, accepted = _dd_block_invariants(sigmas)
    exact = np.array([_exact_block_invariants(s) for s in sigmas]).reshape(-1, 8)
    assert np.array_equal(bits(values)[accepted], bits(exact)[accepted])
    return accepted


class TestRoundTest:
    def test_fig1a_trajectories(self):
        for sigmas in fig1a_stacks():
            accepted = accepted_against_exact(sigmas)
            assert not accepted[0].all()  # t = 0 is a pure state
            assert accepted.all(axis=1).mean() > 0.9

    @pytest.mark.parametrize("name", sorted(EVOLVE_RUNS))
    def test_evolve_stacks(self, name):
        accepted = accepted_against_exact(evolve_stack(name))
        assert not accepted[0].all()
        if name == "lambda0_rk4":
            # the state stays pure: rad needs ~124 bits, beyond double-double
            assert not accepted.all(axis=1).any()
        else:
            assert accepted.all(axis=1).mean() > 0.9

    def test_near_pure_random_states(self):
        accepted_against_exact(near_pure_stack())

    def test_vacuum_exact_zeros(self):
        vacuum = np.eye(4)[None].copy()
        vacuum[0, 0, 2] = vacuum[0, 2, 0] = -0.0
        accepted = accepted_against_exact(vacuum)
        # i3 = (-0.0)*1 - 0*0 carries no error and is accepted as +0.0
        assert accepted[0, 2]
        sigmas = evolve_trajectory(dataclasses.replace(FIG1A, r=0.0),
                                   TimeGrid(0.0, 5.0, 51)).sigmas
        accepted_against_exact(sigmas)

    @pytest.mark.parametrize("exponent", [250, -250])
    def test_out_of_range_entries_fall_back(self, exponent):
        sigmas = evolve_stack("closed")[::50] * 2.0 ** exponent
        _, accepted = _dd_block_invariants(sigmas)
        assert not accepted.any()
        exact = [_exact_block_invariants(s) for s in sigmas]
        assert np.array_equal(bits(_invariants_stack(sigmas)), bits(exact))


def assert_same(a, b):
    """Dataclasses equal field for field; floats by their bits."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert type(x) is type(y), field.name
        if isinstance(x, float):
            assert bits(x) == bits(y), (field.name, x, y)
        else:
            assert x == y, field.name


def assert_rows_match_scalar(traj, rows=None):
    records = traj.records
    assert len(records) == len(traj.times)
    for k in range(len(records)) if rows is None else rows:
        rec = records[k]
        assert isinstance(rec, TrajectoryRecord)
        assert rec.t == traj.times[k] and rec.sigma is not None
        assert np.array_equal(rec.sigma, traj.sigmas[k])
        data = invariants(rec.sigma)
        assert_same(rec.data, data)
        assert_same(rec.report, report_from_data(data, base=traj.log_base))


class TestColumnsMatchScalar:
    def test_fig1a(self):
        preset = figure_preset("fig1a")
        for o in sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid):
            assert_rows_match_scalar(o.trajectory)

    @pytest.mark.parametrize("name", sorted(EVOLVE_RUNS))
    def test_evolve(self, name):
        params, integrator = EVOLVE_RUNS[name]
        traj = evolve_trajectory(params, DEFAULT_GRID, integrator=integrator)
        assert_rows_match_scalar(traj)
        if name == "lambda0_rk4":
            assert np.isnan(traj.report.discord).any()  # NaN rows match too

    def test_base_two(self):
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, 10.0, 101), log_base=2.0)
        assert_rows_match_scalar(traj)

    def test_sample_of_every_preset_trajectory(self):
        rng = np.random.default_rng(11)
        count = 0
        for fid in FIGURE_IDS:
            preset = figure_preset(fid)
            for o in sweep_parameter(preset.params, preset.sweep, preset.values,
                                     preset.grid):
                rows = sorted(rng.choice(len(o.trajectory.times), 8, replace=False))
                assert_rows_match_scalar(o.trajectory, rows=[0, *rows])
                count += 1
        assert count == 60

    def test_records_are_cached(self):
        traj = evolve_trajectory(FIG1A, TimeGrid(0.0, 1.0, 3))
        assert traj.records is traj.records


def scalar_error(sigma, base=math.e):
    with pytest.raises(Exception) as info:
        report_from_data(invariants(sigma), base=base)
    return info.type, str(info.value)


class TestErrorsMatchScalar:
    INDEFINITE = np.diag([1.0, -1.0, 1.0, 1.0])
    # complex symplectic spectrum with a clamped discriminant:
    # nu_plus * nu_minus contradicts det sigma
    INCONSISTENT = 1e-3 * np.array([[0.0, -3.0, -1.0, 0.0],
                                    [-3.0, -6.0, 6.0, 0.0],
                                    [-1.0, 6.0, 6.0, 3.0],
                                    [0.0, 0.0, 3.0, 4.0]])

    def stack(self, bad_rows):
        sigmas = evolve_stack("closed")[:20].copy()
        for k, sigma in bad_rows.items():
            sigmas[k] = sigma
        return sigmas

    @pytest.mark.parametrize("bad", ["INDEFINITE", "INCONSISTENT"])
    def test_lowest_bad_row_raises_its_scalar_error(self, bad):
        sigma = getattr(self, bad)
        kind, message = scalar_error(sigma)
        assert kind is NonPhysicalInput
        assert ("contradicts" in message) == (bad == "INCONSISTENT")
        other = self.INCONSISTENT if bad == "INDEFINITE" else self.INDEFINITE
        sigmas = self.stack({7: sigma, 12: other})
        with pytest.raises(kind) as info:
            _report_columns(_invariants_stack(sigmas))
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_slice_raises_check_covariance_error(self, bad):
        sigma = np.eye(4)
        sigma[1, 1] = bad
        kind, message = scalar_error(sigma)
        with pytest.raises(kind) as info:
            _invariants_stack(self.stack({5: sigma}))
        assert str(info.value) == message

    def test_asymmetric_slice(self):
        sigma = np.eye(4)
        sigma[0, 3] = 1e-6
        kind, message = scalar_error(sigma)
        assert kind is ValueError
        with pytest.raises(ValueError) as info:
            _invariants_stack(self.stack({3: sigma}))
        assert str(info.value) == message

    def test_bad_log_base(self):
        kind, message = scalar_error(initial_squeezed_vacuum(FIG1A.r), base=0.5)
        assert kind is ValueError
        with pytest.raises(ValueError) as info:
            evolve_trajectory(FIG1A, TimeGrid(0.0, 1.0, 11), log_base=0.5)
        assert str(info.value) == message
