"""Command-line interface: validate, evolve, steady, figure.

CSV is the canonical output format: UTF-8, comma separated, LF endings,
'#'-prefixed metadata comments, then a header row. Every metadata comment
records the complete parameter set, grid, integrator, log base and
threshold needed to reproduce the file. Floating values are printed with
12 significant digits (or as hex floats with --hex-floats for bit-exact
regression comparisons), -0.0 as 0.

A trajectory is formatted from whole columns: the ten float columns are
stacked once, and each row is one ``%`` template over its values (or one
join of ``float.hex`` strings), byte for byte the same as formatting every
value on its own. ``figure`` hands the time and observable columns to
:func:`~oscbath.svgplot.line_plot` as arrays. The argument parser is built
once, at import.

The library reports log negativity and discord in nats; ``--log-base 2``
converts them to bits at output, and ``--threshold`` is read in that unit.

Exit codes: 0 success, 1 domain error or unwritable output, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import OscbathError, SteadyStateUnavailable
from .measures import full_report
from .model import SystemParams, validate
from .dynamics import check_step, steady_state
from .svgplot import line_plot
from .sweep import (
    DEFAULT_GRID,
    FIGURE_IDS,
    SUDDEN_DEATH_THRESHOLD,
    TimeGrid,
    detect_sudden_death,
    evolve_trajectory,
    figure_preset,
    sweep_parameter,
)

__all__ = ["main", "build_parser"]

_COLUMNS = (
    "t", "purity", "log_negativity", "discord",
    "nu_minus", "nu_plus", "I1", "I2", "I3", "I4", "physical",
)


# one CSV row: ten float columns, then the physical flag
_ROW_TEMPLATE = ",".join(["%#.12g"] * 10 + ["%s"])


def _fmt(value: float, hex_floats: bool) -> str:
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    v = float(value) + 0.0
    return v.hex() if hex_floats else f"{v:#.12g}"


def _param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system parameters")
    group.add_argument("--omega", type=float, default=1.0,
                       help="base angular frequency (default 1)")
    group.add_argument("--epsilon", type=float, default=0.0,
                       help="frequency asymmetry, 0 <= epsilon < 1 (default 0)")
    group.add_argument("--nu", type=float, default=0.8,
                       help="position coupling constant (default 0.8)")
    group.add_argument("--lambda", dest="lambda_", type=float, default=0.6,
                       help="dissipation rate (default 0.6)")
    group.add_argument("--temp", dest="temperature", type=float, default=0.2,
                       help="bath temperature (default 0.2)")
    group.add_argument("--r", type=float, default=1.0,
                       help="initial squeezing (default 1)")


def _grid_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("time grid and integration")
    group.add_argument("--t-start", type=float, default=0.0)
    group.add_argument("--t-end", type=float, default=10.0)
    group.add_argument("--points", type=int, default=501)
    group.add_argument("--integrator", choices=("closed", "rk4"), default="closed")
    group.add_argument("--dt", type=float, default=1e-3,
                       help="rk4 step size (default 1e-3)")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number (got {text!r})")
    return value


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="logarithm base for entropic measures (default e)")
    parser.add_argument("--hex-floats", action="store_true",
                        help="print floats as C99 hex literals (bit-exact)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscbath",
        description="Covariance dynamics and Gaussian correlation measures "
                    "for two coupled oscillators in a thermal bath.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check a parameter set")
    _param_flags(p_val)

    p_evo = sub.add_parser("evolve", help="evolve one trajectory, emit CSV")
    _param_flags(p_evo)
    _grid_flags(p_evo)
    _output_flags(p_evo)
    p_evo.add_argument("--out", default="-",
                       help="output CSV path, '-' for stdout (default)")

    p_std = sub.add_parser("steady", help="steady-state matrix and measures")
    _param_flags(p_std)
    _output_flags(p_std)
    p_std.add_argument("--out", default="-",
                       help="output path, '-' for stdout (default)")

    p_fig = sub.add_parser("figure", help="run a figure preset: CSV per curve + SVG")
    p_fig.add_argument("figure", choices=FIGURE_IDS, metavar="FIGURE",
                       help=f"one of: {', '.join(FIGURE_IDS)}")
    _output_flags(p_fig)
    p_fig.add_argument("--out", required=True, help="output directory")

    for p in (p_evo, p_fig):  # steady reports no trajectory to scan
        p.add_argument("--threshold", type=_finite_float, default=SUDDEN_DEATH_THRESHOLD,
                       help="sudden-death threshold on log negativity (finite, "
                            "in the --log-base unit)")
    return parser


def _unit_factor(args) -> float:
    """Factor from nats to the unit of --log-base."""
    return 1.0 / math.log(2.0) if args.log_base == "2" else 1.0


def _params(args) -> SystemParams:
    return SystemParams(
        omega=args.omega,
        epsilon=args.epsilon,
        nu=args.nu,
        lambda_=args.lambda_,
        temperature=args.temperature,
        r=args.r,
    )


def _meta_params(params: SystemParams) -> str:
    # repr round-trips floats exactly, so the header suffices to re-run
    # the exact command
    return (
        f"omega={params.omega!r} epsilon={params.epsilon!r} nu={params.nu!r} "
        f"lambda={params.lambda_!r} temperature={params.temperature!r} "
        f"r={params.r!r}"
    )


def _trajectory_lines(traj, args, extra_meta: str = "") -> list[str]:
    hex_floats = args.hex_floats
    dt = getattr(args, "dt", 1e-3)
    meta = (
        f"# oscbath evolve {_meta_params(traj.params)} "
        f"t_start={traj.grid.t_start!r} t_end={traj.grid.t_end!r} "
        f"points={traj.grid.n_points} integrator={traj.integrator} "
        f"dt={dt!r} log_base={args.log_base} threshold={args.threshold!r} "
        f"float_format={'hex' if hex_floats else 'dec12'}"
    )
    if extra_meta:
        meta += " " + extra_meta
    lines = [meta, ",".join(_COLUMNS)]
    rep, data = traj.report, traj.data
    unit = _unit_factor(args)
    # + 0.0 normalizes -0.0 for the whole table, as _fmt does per value
    rows = (np.column_stack((
        traj.times, rep.purity, rep.log_negativity * unit, rep.discord * unit,
        data.nu_minus, data.nu_plus, data.i1, data.i2, data.i3, data.i4,
    )) + 0.0).tolist()
    flags = ["true" if p else "false" for p in rep.physical.tolist()]
    if hex_floats:
        lines.extend(",".join([*map(float.hex, row), flag])
                     for row, flag in zip(rows, flags))
    else:
        lines.extend(_ROW_TEMPLATE % (*row, flag) for row, flag in zip(rows, flags))
    return lines


def _write(texts: dict, where) -> int:
    """Write each text to its path, '-' for stdout; exit code 1 naming ``where`` on failure."""
    try:
        for path, text in texts.items():
            if path == "-":
                sys.stdout.write(text)
                sys.stdout.flush()  # a closed pipe fails here, not at exit
            else:
                Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot write to {where}: {exc}", file=sys.stderr)
        if path == "-":
            # what is left in the buffer would fail again when Python exits
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 1
    return 0


def _cmd_validate(args) -> int:
    result = validate(_params(args))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if result.ok:
        print("ok")
        return 0
    for violation in result.violations:
        print(violation, file=sys.stderr)
    return 1


def _cmd_evolve(args) -> int:
    params = _params(args)
    try:
        grid = TimeGrid(args.t_start, args.t_end, args.points)
        check_step(args.dt)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        traj = evolve_trajectory(params, grid, integrator=args.integrator, dt=args.dt)
    except SteadyStateUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --integrator rk4", file=sys.stderr)
        return 1
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _write({args.out: "\n".join(_trajectory_lines(traj, args)) + "\n"}, args.out)


def _cmd_steady(args) -> int:
    params = _params(args)
    try:
        s_inf = steady_state(params)
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = full_report(s_inf)
    unit = _unit_factor(args)
    hexf = args.hex_floats
    lines = [
        f"# oscbath steady {_meta_params(params)} log_base={args.log_base} "
        f"float_format={'hex' if hexf else 'dec12'}",
        "# steady-state covariance matrix, rows and columns (x1, p1, x2, p2)",
    ]
    for row in s_inf:
        lines.append(",".join(_fmt(v, hexf) for v in row))
    lines.append("# measures")
    lines.append(f"purity,{_fmt(report.purity, hexf)}")
    lines.append(f"log_negativity,{_fmt(report.log_negativity * unit, hexf)}")
    lines.append(f"discord,{_fmt(report.discord * unit, hexf)}")
    lines.append(f"zeta_branch,{report.zeta_branch or 'none'}")
    lines.append(f"physical,{'true' if report.physical else 'false'}")
    return _write({args.out: "\n".join(lines) + "\n"}, args.out)


def _cmd_figure(args) -> int:
    preset = figure_preset(args.figure)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1

    outcomes = sweep_parameter(preset.params, preset.sweep, preset.values, preset.grid)
    obs_col = preset.observable  # matches the CorrelationReport field name
    unit = _unit_factor(args)
    obs_unit = 1.0 if obs_col == "purity" else unit  # purity has no unit
    curves, files, printed = [], {}, []
    sweep_flag = preset.sweep.rstrip("_")
    for outcome in outcomes:
        if outcome.trajectory is None:
            print(f"skipping {preset.sweep}={outcome.value:g}: {outcome.error}",
                  file=sys.stderr)
            continue
        traj = outcome.trajectory
        label = f"{sweep_flag}={outcome.value:g}"
        csv_path = out_dir / f"{preset.figure}_{preset.sweep}={outcome.value:g}.csv"
        extra = (
            f"figure={preset.figure} sweep={preset.sweep} "
            f"value={outcome.value!r} observable={preset.observable}"
        )
        files[csv_path] = "\n".join(_trajectory_lines(traj, args, extra_meta=extra)) + "\n"
        curves.append((label, traj.times, getattr(traj.report, obs_col) * obs_unit))
        death = detect_sudden_death(traj, threshold=args.threshold / unit)
        if death.death_times:
            deaths = ", ".join(f"{t:g}" for t in death.death_times)
            revivals = ", ".join(f"{t:g}" for t in death.revival_times) or "none"
            printed.append(
                f"{preset.figure} {label}: entanglement deaths at t <= [{deaths}] "
                f"(interval {death.grid_spacing:g}), revivals [{revivals}], "
                f"asymptotically entangled: "
                f"{'yes' if death.asymptotically_entangled else 'no'}"
            )

    if not curves:
        print("error: no valid curves produced", file=sys.stderr)
        return 1
    files[out_dir / f"{preset.figure}.svg"] = line_plot(
        curves,
        xlabel="t",
        ylabel=preset.observable,
        title=f"{preset.figure}: {preset.observable} vs t "
              f"(sweep {sweep_flag})",
    )
    if _write(files, out_dir):
        return 1
    # stdout last, so that a closed pipe cannot keep the files from being written
    printed.append(f"wrote {len(curves)} CSV files and {preset.figure}.svg to {out_dir}")
    return _write({"-": "\n".join(printed) + "\n"}, "-")


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "evolve": _cmd_evolve,
        "steady": _cmd_steady,
        "figure": _cmd_figure,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
