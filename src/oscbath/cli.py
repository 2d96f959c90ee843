"""Command-line interface: validate, evolve, steady, figure.

CSV is the canonical output format: UTF-8, comma separated, LF endings,
'#'-prefixed metadata comments, then a header row. Every metadata comment
records the complete parameter set, grid, integrator, log base and
threshold needed to reproduce the file. Floating values are printed with
12 significant digits (or as hex floats with --hex-floats for bit-exact
regression comparisons).

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import OscbathError, SteadyStateUnavailable
from .measures import full_report
from .model import SystemParams, validate
from .dynamics import steady_state
from .svgplot import line_plot
from .sweep import (
    DEFAULT_GRID,
    FIGURE_IDS,
    SUDDEN_DEATH_THRESHOLD,
    TimeGrid,
    check_step,
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


def _fmt_all(values: list[float], hex_floats: bool) -> list[str]:
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    if hex_floats:
        return [(v + 0.0).hex() for v in values]
    return [f"{v + 0.0:#.12g}" for v in values]


def _fmt(value: float, hex_floats: bool) -> str:
    return _fmt_all([float(value)], hex_floats)[0]


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


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="logarithm base for entropic measures (default e)")
    parser.add_argument("--threshold", type=float, default=SUDDEN_DEATH_THRESHOLD,
                        help="sudden-death threshold on log negativity")
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

    return parser


def _log_base(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


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
    columns = [
        _fmt_all(c.tolist(), hex_floats)
        for c in (traj.times, rep.purity, rep.log_negativity, rep.discord,
                  data.nu_minus, data.nu_plus, data.i1, data.i2, data.i3, data.i4)
    ]
    columns.append(["true" if p else "false" for p in rep.physical.tolist()])
    lines.extend(map(",".join, zip(*columns)))
    return lines


def _write_text(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


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
        traj = evolve_trajectory(
            params, grid, integrator=args.integrator, dt=args.dt,
            log_base=_log_base(args),
        )
    except SteadyStateUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: rerun with --integrator rk4", file=sys.stderr)
        return 1
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_text(args.out, _trajectory_lines(traj, args))
    return 0


def _cmd_steady(args) -> int:
    params = _params(args)
    try:
        s_inf = steady_state(params)
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = full_report(s_inf, base=_log_base(args))
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
    lines.append(f"log_negativity,{_fmt(report.log_negativity, hexf)}")
    lines.append(f"discord,{_fmt(report.discord, hexf)}")
    lines.append(f"zeta_branch,{report.zeta_branch or 'none'}")
    lines.append(f"physical,{'true' if report.physical else 'false'}")
    _write_text(args.out, lines)
    return 0


def _cmd_figure(args) -> int:
    preset = figure_preset(args.figure)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        print(f"error: cannot write to {out_dir}: {exc}", file=sys.stderr)
        return 1

    log_base = _log_base(args)
    outcomes = sweep_parameter(
        preset.params, preset.sweep, preset.values, preset.grid,
        log_base=log_base,
    )
    obs_col = preset.observable  # matches the CorrelationReport field name
    curves = []
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
        _write_text(str(csv_path), _trajectory_lines(traj, args, extra_meta=extra))
        xs = traj.times.tolist()
        ys = getattr(traj.report, obs_col).tolist()
        curves.append((label, xs, ys))
        death = detect_sudden_death(traj, threshold=args.threshold)
        if death.death_times:
            deaths = ", ".join(f"{t:g}" for t in death.death_times)
            revivals = ", ".join(f"{t:g}" for t in death.revival_times) or "none"
            print(
                f"{preset.figure} {label}: entanglement deaths at t <= [{deaths}] "
                f"(interval {death.grid_spacing:g}), revivals [{revivals}], "
                f"asymptotically entangled: "
                f"{'yes' if death.asymptotically_entangled else 'no'}"
            )

    if not curves:
        print("error: no valid curves produced", file=sys.stderr)
        return 1
    svg = line_plot(
        curves,
        xlabel="t",
        ylabel=preset.observable,
        title=f"{preset.figure}: {preset.observable} vs t "
              f"(sweep {sweep_flag})",
    )
    (out_dir / f"{preset.figure}.svg").write_text(svg, encoding="utf-8", newline="\n")
    print(f"wrote {len(curves)} CSV files and {preset.figure}.svg to {out_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "evolve": _cmd_evolve,
        "steady": _cmd_steady,
        "figure": _cmd_figure,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
