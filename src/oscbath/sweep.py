"""Trajectories over time grids, parameter sweeps and sudden-death scans.

A trajectory starts from the two-mode squeezed vacuum fixed by the
parameter set, evolves the covariance matrix over a uniform time grid
(closed form when a steady state exists, RK4 stepping otherwise) and
computes the full correlation report at every grid point in one batched
pass. Sweeps rerun the same grid while one parameter steps through a list
of values; sudden-death scans locate the grid intervals where the
logarithmic negativity hits zero and where it revives.

Trajectories within a sweep are independent and may be computed
concurrently; results are assembled in input order and all outputs are
deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import _rk4_grid, propagate, steady_state_available
from .errors import OscbathError, UnknownFigure
from .measures import (
    CorrelationReport,
    SymplecticData,
    _invariants_stack,
    _report_columns,
)
from .model import (
    SystemParams,
    initial_squeezed_vacuum,
    mode_frequencies,
    require_valid,
    validate,
)

__all__ = [
    "TimeGrid",
    "TrajectoryRecord",
    "Trajectory",
    "SweepOutcome",
    "SuddenDeathReport",
    "FigurePreset",
    "check_step",
    "evolve_trajectory",
    "sweep_parameter",
    "detect_sudden_death",
    "figure_preset",
    "FIGURE_IDS",
    "DEFAULT_SWEEP_VALUES",
    "DEFAULT_GRID",
    "SUDDEN_DEATH_THRESHOLD",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform finite time grid: 0 <= t_start < t_end, n_points >= 2."""

    t_start: float
    t_end: float
    n_points: int

    def __post_init__(self):
        if not 0 <= self.t_start < math.inf:
            raise ValueError(f"t_start must be finite and >= 0 (got {self.t_start})")
        if not self.t_start < self.t_end < math.inf:
            raise ValueError(
                f"t_end must be finite and exceed t_start "
                f"(got {self.t_start}..{self.t_end})"
            )
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2 (got {self.n_points})")

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_points)

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_points - 1)


@dataclass(frozen=True)
class TrajectoryRecord:
    """State of the system at one grid time."""

    t: float
    sigma: np.ndarray
    data: SymplecticData
    report: CorrelationReport


@dataclass(frozen=True)
class Trajectory:
    """One evolution as columns, one row per grid time.

    ``times`` (N,) matches the grid exactly and ``sigmas`` is the (N, 4, 4)
    covariance stack. ``data`` and ``report`` are a :class:`SymplecticData`
    and a :class:`CorrelationReport` whose fields are (N,) arrays
    (``report.physical`` is boolean, ``report.zeta_branch`` an object array
    of "first", "second" or None); row k equals ``invariants(sigmas[k])``
    and ``report_from_data`` of it bit for bit. ``records`` is derived from
    the columns on first use.
    """

    params: SystemParams
    grid: TimeGrid
    log_base: float
    integrator: str
    times: np.ndarray
    sigmas: np.ndarray
    data: SymplecticData
    report: CorrelationReport

    @cached_property
    def records(self) -> tuple[TrajectoryRecord, ...]:
        """One :class:`TrajectoryRecord` of plain floats per grid time."""
        def rows(columns):
            return zip(*(getattr(columns, f.name).tolist()
                         for f in dataclasses.fields(columns)))

        return tuple(
            TrajectoryRecord(t=t, sigma=sigma, data=SymplecticData(*data),
                             report=CorrelationReport(*report))
            for t, sigma, data, report in zip(
                self.times.tolist(), self.sigmas, rows(self.data), rows(self.report)
            )
        )


@dataclass(frozen=True)
class SweepOutcome:
    """One swept value with its trajectory, or the validation error instead."""

    value: float
    trajectory: Trajectory | None
    error: str | None


@dataclass(frozen=True)
class SuddenDeathReport:
    """Zero crossings of the logarithmic negativity along one trajectory.

    Each recorded time is the first grid point after the crossing, so its
    uncertainty is one grid interval; deaths and revivals strictly
    alternate, starting with a death.
    """

    threshold: float
    grid_spacing: float
    death_times: tuple[float, ...]
    revival_times: tuple[float, ...]
    asymptotically_entangled: bool


SUDDEN_DEATH_THRESHOLD = 1e-9
DEFAULT_GRID = TimeGrid(0.0, 10.0, 501)

# Swept values used by the figure presets for each parameter. The nu list
# depends on the stability bound of the preset base and is computed in
# figure_preset. The epsilon list stays below 0.8 because the asymmetry
# panels fix nu = 0.6 and the coupling bound omega^2*sqrt(1 - epsilon^2)
# must stay above it.
DEFAULT_SWEEP_VALUES = {
    "temperature": (0.1, 0.5, 1.0, 2.0),
    "lambda_": (0.3, 0.6, 0.9, 1.2),
    "r": (0.5, 1.0, 1.5, 2.0),
    "epsilon": (0.0, 0.25, 0.5, 0.75),
}


def check_step(dt: float) -> None:
    """Reject an RK4 step ``dt`` that is not finite and > 0 (ValueError)."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be finite and > 0 (got {dt})")


def evolve_trajectory(
    params: SystemParams,
    grid: TimeGrid = DEFAULT_GRID,
    integrator: str = "auto",
    dt: float = 1e-3,
    log_base: float = math.e,
) -> Trajectory:
    """Evolve from the squeezed vacuum of ``params.r`` over ``grid``.

    integrator "closed" evaluates the whole grid with one
    :func:`~oscbath.dynamics.propagate` call (needs a steady state), "rk4"
    steps the whole grid with one call of the RK4 core behind
    :func:`~oscbath.dynamics.ode_oracle`, using step ``min(dt, interval)``
    (on a uniform grid the step map is built once and each interval is one
    matrix-vector product; every row equals the chained ``ode_oracle``
    calls from one grid time to the next bit for bit), and "auto" (default)
    picks "closed" whenever the steady state exists. A ``dt`` that is not
    finite and > 0 raises ``ValueError`` before any work, whichever
    integrator runs.

    The measures of all rows are computed in one batched pass: block
    invariants in double-double arithmetic kept where a round test proves
    them correctly rounded, the exact integer path for every other row, then
    the measures as arrays. Every row equals :func:`invariants` and
    :func:`report_from_data` of its matrix bit for bit, and a row that makes
    them raise raises the same error here (the lowest such row first).
    """
    check_step(dt)
    require_valid(params)
    if integrator == "auto":
        integrator = "closed" if steady_state_available(params) else "rk4"
    if integrator not in ("closed", "rk4"):
        raise ValueError(f"unknown integrator {integrator!r}")

    times = grid.times()
    sigma0 = initial_squeezed_vacuum(params.r)

    if integrator == "closed":
        sigmas = propagate(sigma0, params, times)
    else:
        sigmas = _rk4_grid(sigma0, params, times, dt)

    data, report = _report_columns(_invariants_stack(sigmas), log_base)
    return Trajectory(
        params=params,
        grid=grid,
        log_base=log_base,
        integrator=integrator,
        times=times,
        sigmas=sigmas,
        data=data,
        report=report,
    )


_PARAM_NAMES = tuple(f.name for f in dataclasses.fields(SystemParams))


def sweep_parameter(
    base: SystemParams,
    which: str,
    values,
    grid: TimeGrid = DEFAULT_GRID,
    integrator: str = "auto",
    dt: float = 1e-3,
    log_base: float = math.e,
) -> list[SweepOutcome]:
    """One trajectory per value of parameter ``which``, in input order.

    Values that produce an invalid parameter set (or fail during evolution)
    are reported in the outcome's ``error`` field without aborting the
    remaining values.
    """
    if which not in _PARAM_NAMES:
        raise ValueError(
            f"unknown parameter {which!r}; expected one of {_PARAM_NAMES}"
        )
    outcomes = []
    for value in values:
        value = float(value)
        params = dataclasses.replace(base, **{which: value})
        result = validate(params)
        if not result.ok:
            outcomes.append(
                SweepOutcome(value=value, trajectory=None,
                             error="; ".join(result.violations))
            )
            continue
        try:
            traj = evolve_trajectory(
                params, grid, integrator=integrator, dt=dt, log_base=log_base
            )
        except OscbathError as exc:
            outcomes.append(SweepOutcome(value=value, trajectory=None, error=str(exc)))
            continue
        outcomes.append(SweepOutcome(value=value, trajectory=traj, error=None))
    return outcomes


def detect_sudden_death(
    traj: Trajectory, threshold: float = SUDDEN_DEATH_THRESHOLD
) -> SuddenDeathReport:
    """Scan a trajectory for entanglement deaths and revivals.

    A death is the first grid interval on which the logarithmic negativity
    crosses from above ``threshold`` to at or below it; a revival is the
    reverse crossing. Crossing times are bracketed to one grid interval
    (the recorded time is the interval's right endpoint).
    """
    if not len(traj.times):
        raise ValueError("trajectory has no records")
    deaths = []
    revivals = []
    en = traj.report.log_negativity.tolist()
    ts = traj.times.tolist()
    for i in range(len(en) - 1):
        if en[i] > threshold >= en[i + 1]:
            deaths.append(ts[i + 1])
        elif en[i] <= threshold < en[i + 1]:
            revivals.append(ts[i + 1])
    return SuddenDeathReport(
        threshold=threshold,
        grid_spacing=traj.grid.spacing,
        death_times=tuple(deaths),
        revival_times=tuple(revivals),
        asymptotically_entangled=en[-1] > threshold,
    )


@dataclass(frozen=True)
class FigurePreset:
    """Base parameters, swept values and observable of one figure panel."""

    figure: str
    params: SystemParams
    sweep: str
    values: tuple[float, ...]
    observable: str
    grid: TimeGrid


# Panel letter -> swept parameter for the three four-panel figures.
_PANEL_SWEEP = {"a": "temperature", "b": "lambda_", "c": "r", "d": "epsilon"}

# Fixed parameters per figure family (omega = 1 everywhere). Panels of the
# same figure share the family entries except where the panel overrides.
_FIGURE_FIXED = {
    "fig1": dict(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6, temperature=0.2, r=1.0),
    "fig2": dict(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6, temperature=0.2, r=2.0),
    "fig3": dict(omega=1.0, epsilon=0.0, nu=0.8, lambda_=0.6, temperature=0.5, r=2.0),
    "fig4": dict(omega=1.0, epsilon=0.5, nu=0.6, lambda_=0.6, temperature=0.2, r=2.0),
}
# The (d) panels of figs 1-3 use a weaker coupling.
_PANEL_NU_OVERRIDE = {"fig1d": 0.6, "fig2d": 0.6, "fig3d": 0.6}

_FIGURE_OBSERVABLE = {"fig1": "discord", "fig2": "log_negativity", "fig3": "purity"}
_FIG4_OBSERVABLE = {"fig4a": "log_negativity", "fig4b": "discord", "fig4c": "purity"}

FIGURE_IDS = tuple(
    f"fig{n}{p}" for n in (1, 2, 3) for p in "abcd"
) + ("fig4a", "fig4b", "fig4c")


def _nu_sweep_values(base: SystemParams) -> tuple[float, ...]:
    w1, w2 = mode_frequencies(base)
    return (0.0, 0.3, 0.6, 0.9 * w1 * w2)


def figure_preset(which: str) -> FigurePreset:
    """Preset for one figure panel id (fig1a..fig1d, ..., fig4a..fig4c).

    Fixed parameters match the corresponding study; the swept value lists
    are this package's defaults (DEFAULT_SWEEP_VALUES, plus a coupling list
    capped at 90% of the stability bound).
    """
    if which not in FIGURE_IDS:
        raise UnknownFigure(
            f"unknown figure id {which!r}; expected one of {', '.join(FIGURE_IDS)}"
        )
    family = which[:4]
    fixed = dict(_FIGURE_FIXED[family])
    if which in _PANEL_NU_OVERRIDE:
        fixed["nu"] = _PANEL_NU_OVERRIDE[which]

    if family == "fig4":
        sweep = "nu"
        observable = _FIG4_OBSERVABLE[which]
    else:
        sweep = _PANEL_SWEEP[which[4]]
        observable = _FIGURE_OBSERVABLE[family]

    base = SystemParams(**fixed)
    if sweep == "nu":
        values = _nu_sweep_values(base)
    else:
        values = DEFAULT_SWEEP_VALUES[sweep]
    base = dataclasses.replace(base, **{sweep: values[0]})
    require_valid(base)
    return FigurePreset(
        figure=which,
        params=base,
        sweep=sweep,
        values=tuple(values),
        observable=observable,
        grid=DEFAULT_GRID,
    )
