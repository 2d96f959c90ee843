"""oscbath benchmark: three seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload figures|rk4|scan --seed N \\
        --seconds S --trace 0|1

One process, one thread, closed loop: a single caller issues the next
call only after the previous one has returned and its output has been
checked. Only the public API of ``oscbath`` and ``oscbath.cli.main`` is
called, on the sources under ``src/``; BLAS is pinned to one thread in this
process's environment.

Times are reported at a reference machine speed: each measured time is
multiplied by the speed factor CAL_REF_S / (time of a fixed calibration
kernel measured next to it), which cancels the host's drifting speed (see
CAL_REF_S); the measured times are printed and saved as well.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced calls on the same inputs and
reports the per-layer metrics from the spans (see ``spans.py``); per-layer
counts and self times are given per benchmark call.

Every metric is printed as ``metric <name> = <value> <unit>``, followed by
the environment record; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
(environment, tail percentile, failures, layer breakdown) and the spans are
also written to ``.perfbench_out/``. Without ``src/oscbath`` the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import array
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

OUT_DIR = ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 15

# Machine-speed calibration. The host's speed drifts by tens of percent
# over seconds to minutes (neighbouring load), and the program and the
# calibration kernel slow down together. Interleaving the two and taking
# 1-second blocks, the scan workload's median latency spread 21-37%
# (quartile distance over median) as measured and 2-7% as a ratio to the
# kernel's time. Times are therefore reported at reference speed: each
# measured time is multiplied by CAL_REF_S / (the kernel's time measured
# next to it). CAL_REF_S is about the kernel's time on an idle Intel Xeon
# vCPU (Python 3.11, numpy 2.4, OpenBLAS 0.3.31 on one thread).
CAL_REPS = 30
CAL_EVERY_S = 0.05
CAL_REF_S = 0.95e-3

# Layers whose calls and self time are reported, and layers whose calls
# alone are (repeated rebuilds and wrappers).
TIMED_LAYERS = (
    "model.validate",
    "dynamics.mat_exp",
    "dynamics.ode_oracle",
    "dynamics.steady_state",
    "dynamics.propagate",
    "measures.invariants",
    "measures.report_from_data",
    "sweep.evolve_trajectory",
    "sweep.sweep_parameter",
    "cli.main",
    "svgplot.line_plot",
)
COUNTED_LAYERS = ("dynamics.build_drift", "measures.full_report")


class ProgramMissing(Exception):
    """The checkout holds no oscbath sources to benchmark."""


def pin_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program(root: Path):
    """Import oscbath from ``root/src``, never from an installed copy."""
    package = (root / "src" / "oscbath").resolve()
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no oscbath sources under {root / 'src'}")
    sys.path.insert(0, str(package.parent))
    import oscbath

    if Path(oscbath.__file__).resolve().parent != package:
        raise ProgramMissing(f"oscbath imported from {oscbath.__file__}")
    return oscbath


def calibrate() -> float:
    """Seconds a fixed kernel takes right now: small numpy products and
    solves, exact integer cross products of float entries and float math,
    the same mix as oscbath's hot loops, but independent of oscbath, so
    that no change to the program moves it."""
    import numpy as np

    b = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 0.9, 0.1, 0.0],
                  [0.0, 0.0, 0.9, 0.1], [0.1, 0.0, 0.0, 0.9]])
    ident = np.eye(4)
    start = time.perf_counter()
    for _ in range(CAL_REPS):
        a = ident
        for _ in range(6):
            a = a @ b
            a = 0.5 * (a + a.T)
        x = np.linalg.solve(a + ident, a)
        ratios = [value.as_integer_ratio() for value in x.ravel().tolist()]
        acc = 0
        for (p, q), (r, s) in zip(ratios, reversed(ratios)):
            acc += p * s - r * q
        math.sqrt(float(acc % 1000) + 1.0)
    return time.perf_counter() - start


class Speed:
    """The machine's current speed factor, CAL_REF_S / calibrate(),
    measured again once CAL_EVERY_S has passed since the last time."""

    def __init__(self):
        self._value = 1.0
        self._at = -math.inf

    def factor(self) -> float:
        if time.perf_counter() - self._at >= CAL_EVERY_S:
            self._value = CAL_REF_S / calibrate()
            self._at = time.perf_counter()
        return self._value


def setup_seconds(root: Path) -> tuple[float, float]:
    """Median time to import oscbath (numpy included) in a fresh
    interpreter, at reference speed and as measured.

    Each interpreter times its import, then runs the calibration kernel
    (once to warm up, then three times for the median), so the speed
    factor is measured in the same process right after the import. The
    first interpreter, which may compile bytecode, is not counted.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import oscbath; "
            "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
            "import run, statistics; run.calibrate(); "
            "print(t, statistics.median(run.calibrate() for _ in range(3)))")
    argv = [sys.executable, "-c", code, str(root / "src"), str(Path(__file__).parent)]
    scaled, measured = [], []
    for i in range(SETUP_REPEATS + 1):
        done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            seconds, cal = map(float, done.stdout.split())
            measured.append(seconds)
            scaled.append(seconds * CAL_REF_S / cal)
    return statistics.median(scaled), statistics.median(measured)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, seed: int) -> dict:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.machine()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "seed": seed,
    }


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest percentile up
    to p99 that has at least ten samples beyond it; the maximum if there
    are fewer than eleven samples.

    Above p99 the scan workload's tens of thousands of calls would report
    the tenth-largest host preemption (about 1 ms, with normal machine
    speed and no garbage collection during the call), not the program.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = min(n - 10, math.ceil(0.99 * n)) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class Calls:
    """Latencies, speed factors and outcomes of a series of calls, kept in
    flat arrays (24 bytes a call) so that peak_rss_mb stays the program's."""

    def __init__(self):
        self.raw = array.array("d")
        self.speed = array.array("d")
        self.items = array.array("q")
        self.bytes_written = 0
        self.failures = []

    def add(self, latency: float, speed: float, outcome) -> None:
        self.raw.append(latency)
        self.speed.append(speed)
        self.items.append(outcome.items)
        self.bytes_written += outcome.bytes_written
        if not outcome.ok:
            self.failures.append(outcome.reason)

    def __len__(self):
        return len(self.raw)

    def scaled(self) -> list[float]:
        """Latencies at the reference machine speed."""
        return [lat * speed for lat, speed in zip(self.raw, self.speed)]


def timed_call(workload, inp, tracer=None):
    """Call the program once; returns (latency, Outcome). The output is
    checked and cleaned up outside the timed region."""
    from workloads import Outcome

    outcome = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        if tracer is None:
            output = workload.call(inp)
        else:
            output = tracer.root(workload.call, inp)
    except Exception as exc:  # a call that raises counts as failed
        outcome = Outcome(False, 0, f"raised {exc!r}")
    finally:
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    if outcome is None:
        try:
            outcome = workload.check(inp, output)
        except Exception as exc:  # malformed output counts as failed
            outcome = Outcome(False, 0, f"check raised {exc!r}")
        finally:
            workload.cleanup(output)
    if not outcome.ok:
        outcome.reason = f"{inp!r}: {outcome.reason}"
    return latency, outcome


def run_calls(workload, seed: int, seconds: float, tracer=None):
    """Closed loop over whole input batches until ``seconds`` have passed.

    Returns the untraced Calls and, with a tracer, the traced ones; in that
    case every input runs once each way, in alternating order.
    """
    speed = Speed()
    warm = next(workload.inputs(seed))[0]
    timed_call(workload, warm)
    if tracer is not None:
        timed_call(workload, warm, tracer)
        tracer.reset()
    plain, traced = Calls(), Calls()

    def one(calls, inp, with_tracer=None):
        # A call longer than CAL_EVERY_S is bracketed by two calibrations.
        before = speed.factor()
        latency, outcome = timed_call(workload, inp, with_tracer)
        calls.add(latency, 0.5 * (before + speed.factor()), outcome)

    start = time.perf_counter()
    for batch in workload.inputs(seed):
        if len(plain) and time.perf_counter() - start >= seconds:
            break
        for inp in batch:
            if tracer is None:
                one(plain, inp)
            elif len(plain) % 2 == 0:
                one(plain, inp)
                one(traced, inp, tracer)
            else:
                one(traced, inp, tracer)
                one(plain, inp)
    return plain, traced


def end_to_end(plain: Calls, setup: tuple[float, float], block_calls: int):
    """End-to-end metrics of the untraced calls, at reference speed.

    items_per_s is the median over consecutive blocks of ``block_calls``
    calls of items completed per busy second.
    """
    scaled = plain.scaled()
    starts = range(0, max(len(plain) - block_calls, 0) + 1, block_calls)
    throughput = [
        sum(plain.items[i:i + block_calls]) / sum(scaled[i:i + block_calls])
        for i in starts
    ]
    tail_s, tail_pct, beyond = tail(scaled)
    metrics = {
        "setup_s": (setup[0], "s"),
        "items_per_s": (statistics.median(throughput), "1/s"),
        "call_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "call_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    extra = {
        "call_tail_percentile": tail_pct,
        "call_tail_samples_beyond": beyond,
        "call_samples": len(plain),
        "items_per_s_blocks": len(throughput),
        "speed_factor_median": statistics.median(plain.speed),
        "measured_setup_s": setup[1],
        "measured_call_p50_ms": 1e3 * statistics.median(plain.raw),
        "measured_call_tail_ms": 1e3 * tail(plain.raw)[0],
    }
    return metrics, extra


def per_layer(tracer, plain: Calls, traced: Calls):
    from spans import ROOT_SPAN

    summary = tracer.summary()
    n = len(traced)
    speed = statistics.median(traced.speed)
    counters = tracer.counters
    metrics = {}
    for layer in TIMED_LAYERS + COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (summary[layer][0] / n, "count/call")
        if layer in TIMED_LAYERS:
            metrics[f"{layer}.self_s"] = (summary[layer][2] * speed / n, "s/call")
    steady_calls = summary["dynamics.steady_state"][0]
    reports = summary["measures.report_from_data"][0]
    sweep_values = counters["sweep.values"]
    # Ratios over no attempts read 1 (nothing failed) or 0 (no branch taken).
    metrics.update({
        "dynamics.rk4_steps": (counters["dynamics.rk4_steps"] / n, "count/call"),
        "dynamics.steady_state.ok_ratio": (
            1.0 - tracer.errors["dynamics.steady_state"] / steady_calls
            if steady_calls else 1.0, "ratio"),
        "measures.discord_nan": (counters["measures.discord_nan"] / n, "count/call"),
        "measures.first_branch_share": (
            counters["measures.first_branch"] / reports if reports else 0.0,
            "ratio"),
        "sweep.ok_ratio": (
            counters["sweep.with_trajectory"] / sweep_values
            if sweep_values else 1.0, "ratio"),
        "cli.bytes_written": (traced.bytes_written / n, "bytes/call"),
        "trace.overhead_ratio": (
            sum(traced.scaled()) / sum(plain.scaled()), "ratio"),
    })
    root_total = summary[ROOT_SPAN][1]
    shares = sorted(
        ((self_s / root_total, label) for label, (_, _, self_s) in summary.items()),
        reverse=True,
    )
    breakdown = {label: round(share, 4) for share, label in shares}
    return metrics, breakdown


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            refs=None) -> dict:
    """Run one workload and return its full result record."""
    import workloads
    from spans import Tracer

    import oscbath

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        setup = None if trace else setup_seconds(root)
        workload = workloads.make(name, work_dir, refs)
        tracer = Tracer(oscbath) if trace else None
        plain, traced = run_calls(workload, seed, seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = plain.failures + traced.failures
    attempted = len(plain) + len(traced)
    result = {
        "workload": name,
        "trace": int(trace),
        "environment": environment(root, seed),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    if trace:
        metrics, breakdown = per_layer(tracer, plain, traced)
        result["self_time_share"] = breakdown
        tracer.write(out_dir / f"spans-{name}.npz")
    else:
        metrics, extra = end_to_end(plain, setup, workload.block_calls)
        result.update(extra)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return result


def report(result: dict) -> None:
    """Print every metric by name with its unit, then the result line."""
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"metric fail_ratio = {result['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    if "call_tail_percentile" in result:
        print(f"call_tail_ms is p{result['call_tail_percentile']:.1f} of "
              f"{result['call_samples']} calls, "
              f"{result['call_tail_samples_beyond']} beyond it")
        print(f"as measured, before the speed factor "
              f"{result['speed_factor_median']:.4g}: "
              f"setup_s = {result['measured_setup_s']:.6g} s, "
              f"call_p50_ms = {result['measured_call_p50_ms']:.6g} ms, "
              f"call_tail_ms = {result['measured_call_tail_ms']:.6g} ms")
    if "self_time_share" in result:
        top = list(result["self_time_share"].items())[:4]
        print("dominant layers by self time: "
              + ", ".join(f"{label} {share:.0%}" for label, share in top))
    for reason in result["failures"]:
        print(f"failed: {reason}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "rk4", "scan"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    pin_threads()
    try:
        import_program(root)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    (root / OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
