"""Command-line interface: validate, evolve, steady, figure.

CSV is the canonical output format: UTF-8, comma separated, LF endings,
'#'-prefixed metadata comments, then a header row. Every metadata comment
records the complete parameter set, grid, integrator, log base and (for
figure) threshold needed to reproduce the file. Floating values are
printed with 12 significant digits (or as hex floats with --hex-floats for
bit-exact regression comparisons), -0.0 as 0.

Every command formats its floats a whole table at a time (``_csv_text``),
byte for byte the same as ``%#.12g`` (or ``float.hex``) of each value plus
0.0. Decimal digits are exact: for |x| in [1e-11, 1e12), x * 10**k with
10**k exact rounds to hi, and rounding hi half to even gives the 12
digits; only where hi sits on a half does TwoProd's low part decide. A
table is one array of uint64 words: each value's text is a 32-byte slot of four words
gathered from small tables (sign and prefix, two words of 3-digit chunks
with the point, exponent and separator), and the "true"/"false" flag of a
row is one more word written in place at its end. One tobytes() and one
translate() that drops the NUL bytes make the text. Decimal values
outside that range and non-finite values fall back to ``%``, and every
hex float is ``float.hex`` of its value, one at a time. ``figure`` hands
the time and observable columns to :func:`~oscbath.svgplot.line_plot` as
arrays. The argument parser is built once, at import.

The library reports log negativity and discord in nats; ``--log-base 2``
converts them to bits at output, and ``figure --threshold`` is read in
that unit.

Exit codes: 0 success, 1 domain error, unwritable output or too little
memory for the grid, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .errors import OscbathError
from .measures import _rint_product, full_report
from .model import _BOX_EXPONENT, _SQUEEZING_LIMIT, SystemParams, validate
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


# Whole-table CSV text. A table is one array of uint64 words: each value
# gets a 32-byte slot of four words, NUL where its layout has no character,
# and a row with flags ends in one more word, "true\n" or "false\n". The
# array becomes text through one tobytes() and one translate() that drops
# the NULs.

def _rows(strings, width):
    """ASCII strings or byte strings as a (len, width) uint8 table, NUL-padded."""
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(len(strings), width)


def _words(strings):
    """Byte strings of at most 8 bytes as uint64 words, NUL-padded."""
    return _rows(strings, 8).view(np.uint64).ravel()


# %#.12g of a value with decimal exponent X in [-11, 12] has layout X + 11.
# Word 0 holds the sign and, for fixed notation below 1, the "0.000" prefix;
# words 1-2 the 12 digits as four 4-byte chunks of 3 digits, each with the
# point after its 1st, 2nd or 3rd digit (variants 0-2) or nowhere (variant
# 3); word 3 the exponent "e+XX" and, in its last byte, the separator.
_POW10 = 10.0 ** np.arange(23)  # exact up to 10**22


def _dec_layout(x_exp):
    """(word 0, the four chunks' variants, word 3) of layout x_exp + 11."""
    variants = [3] * 4
    if -4 <= x_exp < 0:
        return b"\0" + b"0." + b"0" * (-x_exp - 1), variants, b"\0" * 7 + b","
    point = x_exp if 0 <= x_exp < 12 else 0  # the digit the point follows
    variants[point // 3] = point % 3
    suffix = b"e%+03d" % x_exp if point != x_exp else b""
    return b"", variants, suffix.ljust(7, b"\0") + b","


_DEC_PREFIX, _DEC_VARIANTS, _DEC_SUFFIX = zip(*map(_dec_layout, range(-11, 13)))
_DEC_PREFIX, _DEC_SUFFIX = _words(_DEC_PREFIX), _words(_DEC_SUFFIX)
# per chunk, the offset of its variant's row in the chunk table, by layout
_DEC_CHUNK_ROW = 1000 * np.array(_DEC_VARIANTS, np.int64).T


def _dec_chunks():
    """The (4 x 1000) chunk table, flat: the 4 bytes of each variant and
    chunk value, its 3 digits around the point."""
    table = np.zeros((4, 1000, 4), np.uint8)
    digits = np.arange(1000)[:, None] // np.array([100, 10, 1]) % 10 + ord("0")
    for variant in range(4):
        table[variant, :, :3] = digits
        if variant < 3:  # the digits after the point move up one byte
            table[variant, :, variant + 2:] = digits[:, variant + 1:]
            table[variant, :, variant + 1] = ord(".")
    return table.view(np.uint32).ravel()


_DEC_CHUNKS = _dec_chunks()
_MINUS = _words([b"-"])[0]
_FLAG_WORDS = _words([b"false\n", b"true\n"])


def _dec_slots(x, words):
    """Write the %#.12g slots of the 2-D x to the first 4 * x.shape[1] words
    of each row of ``words``; return where they must fall back to ``%``.

    For |x| in [1e-11, 1e12) the exponent X puts k = 11 - X in [0, 22], so
    10**k is exact, and q, |x| * 10**k rounded half to even from the exact
    product, holds the 12 digits. Other values (0 aside) fall back.
    """
    rows, cols = x.shape
    slots = words[:, :4 * cols].reshape(rows, cols, 4)
    chunks = words.view(np.uint32)[:, :8 * cols].reshape(rows, cols, 8)
    a = np.abs(x)
    fall = ~((a >= 1e-11) & (a < 1e12))
    a_in = np.where(fall, 1.0, a)
    # log10 can be one off only next to a power of ten (it reads 12.0 just
    # below 1e12), where the 12 digits round to that power: q then reads
    # 10**11, which is right, or 10**12, which the carry below handles
    k = 11 - np.clip(np.floor(np.log10(a_in)), -11.0, 11.0).astype(np.intp)
    q = _rint_product(a_in, _POW10[k])
    carry = q == 1e12
    q[carry] = 1e11
    q[a == 0] = 0.0  # k = 11, so 0.0 gets the layout of X = 0
    layout = 22 - k + carry
    slots[..., 0] = np.take(_DEC_PREFIX, layout) | _MINUS * (x < 0)
    slots[..., 3] = np.take(_DEC_SUFFIX, layout)
    q = q.astype(np.int64)
    above = 0
    for c, scale in enumerate((10 ** 9, 10 ** 6, 10 ** 3, 1)):
        upto = q // scale
        row = np.take(_DEC_CHUNK_ROW[c], layout)
        row += upto
        row -= 1000 * above
        chunks[..., 2 + c] = np.take(_DEC_CHUNKS, row)
        above = upto
    return fall & (a != 0)


def _csv_text(table, hex_floats, flags=None) -> str:
    """CSV rows of a 2-D float table: each value as ``%#.12g`` of value + 0.0
    (``float.hex`` with ``hex_floats``), then "true"/"false" from ``flags``
    if given, and a newline.

    Decimal values come from the exact-digit slots; the ones those reject
    (non-finite, and |x| outside [1e-11, 1e12)) and every hex value are
    formatted one at a time by ``%`` or ``float.hex`` and copied into their
    slots.
    """
    table = np.asarray(table, dtype=float)
    # -0.0 prints as 0.0 (where, not + 0.0, which flags a signalling NaN)
    x = np.where(table == 0, 0.0, table)
    rows, cols = x.shape
    words = np.empty((rows, 4 * cols + (flags is not None)), np.uint64)
    chars = words.view(np.uint8)
    slots = chars[:, :32 * cols].reshape(rows, cols, 32)
    if hex_floats:  # 31 bytes hold the longest float.hex, then the separator
        slots[..., :31] = _rows(list(map(float.hex, x.ravel().tolist())),
                                31).reshape(rows, cols, 31)
        slots[..., 31] = ord(",")
    else:
        fall = _dec_slots(x, words)
        if fall.any():
            where = np.nonzero(fall)
            slots[where + (slice(31),)] = _rows(
                [b"%#.12g" % v for v in x[where].tolist()], 31)
    if flags is None:
        chars[:, -1] = ord("\n")  # the last value's separator
    else:
        words[:, -1] = np.take(_FLAG_WORDS, np.asarray(flags, dtype=bool).view(np.uint8))
    return words.tobytes().translate(None, b"\0").decode("ascii")


def _param_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("system parameters")
    k = _BOX_EXPONENT  # validate's box
    group.add_argument("--omega", type=float, default=1.0,
                       help=f"base angular frequency, 2**-{k} <= omega <= 2**{k} (default 1)")
    group.add_argument("--epsilon", type=float, default=0.0,
                       help="frequency asymmetry, 0 <= epsilon < 1 (default 0)")
    group.add_argument("--nu", type=float, default=0.8,
                       help="position coupling constant (default 0.8)")
    group.add_argument("--lambda", dest="lambda_", type=float, default=0.6,
                       help=f"dissipation rate, 0 <= lambda <= 2**{k} (default 0.6)")
    group.add_argument("--temp", dest="temperature", type=float, default=0.2,
                       help=f"bath temperature, 0 <= temperature <= 2**{k} (default 0.2)")
    group.add_argument("--r", type=float, default=1.0,
                       help=f"initial squeezing, 0 <= r <= {_SQUEEZING_LIMIT:.4f} (default 1)")


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

    p_fig.add_argument("--threshold", type=_finite_float, default=SUDDEN_DEATH_THRESHOLD,
                       help="sudden-death threshold on log negativity (finite, "
                            "in the --log-base unit)")  # only figure scans for it
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


def _trajectory_csv(traj, args, extra_meta: str = "") -> str:
    hex_floats = args.hex_floats
    dt = getattr(args, "dt", 1e-3)
    threshold = getattr(args, "threshold", None)  # figure's only
    meta = (
        f"# oscbath evolve {_meta_params(traj.params)} "
        f"t_start={traj.grid.t_start!r} t_end={traj.grid.t_end!r} "
        f"points={traj.grid.n_points} integrator={traj.integrator} "
        f"dt={dt!r} log_base={args.log_base} "
        + ("" if threshold is None else f"threshold={threshold!r} ")
        + f"float_format={'hex' if hex_floats else 'dec12'}"
    )
    if extra_meta:
        meta += " " + extra_meta
    rep, data = traj.report, traj.data
    unit = _unit_factor(args)
    table = np.column_stack((
        traj.times, rep.purity, rep.log_negativity * unit, rep.discord * unit,
        data.nu_minus, data.nu_plus, data.i1, data.i2, data.i3, data.i4,
    ))
    return f"{meta}\n{','.join(_COLUMNS)}\n" + _csv_text(table, hex_floats, rep.physical)


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
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: not enough memory for {grid.n_points} time points", file=sys.stderr)
        return 1
    return _write({args.out: _trajectory_csv(traj, args)}, args.out)


def _cmd_steady(args) -> int:
    params = _params(args)
    try:
        s_inf = steady_state(params)
        report = full_report(s_inf)
    except OscbathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    unit = _unit_factor(args)
    hexf = args.hex_floats
    measures = _csv_text([[report.purity], [report.log_negativity * unit],
                          [report.discord * unit]], hexf).split()
    text = (
        f"# oscbath steady {_meta_params(params)} log_base={args.log_base} "
        f"float_format={'hex' if hexf else 'dec12'}\n"
        "# steady-state covariance matrix, rows and columns (x1, p1, x2, p2)\n"
        + _csv_text(s_inf, hexf)
        + "# measures\n"
        + "".join(f"{name},{value}\n" for name, value
                  in zip(("purity", "log_negativity", "discord"), measures))
        + f"zeta_branch,{report.zeta_branch or 'none'}\n"
        f"physical,{'true' if report.physical else 'false'}\n"
    )
    return _write({args.out: text}, args.out)


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
        files[csv_path] = _trajectory_csv(traj, args, extra_meta=extra)
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


# A negative value that argparse would take for an option ("-1e-3", "-inf")
_NEGATIVE = re.compile(r"-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)", re.I)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):  # joined to its option as "--opt=value"
        if _NEGATIVE.fullmatch(argv[i]) and re.fullmatch(r"--[\w-]+", argv[i - 1]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
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
