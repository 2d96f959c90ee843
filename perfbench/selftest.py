"""Tests of the benchmark itself, in a short mode (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV_KEYS = {"nproc", "cpu_model", "python", "numpy", "blas", "git_commit", "seed"}


def setUpModule():
    run.pin_threads()
    run.import_program(ROOT)


def bench(workload: str, trace: int, cwd: Path = ROOT, script: Path | None = None):
    script = script or ROOT / "perfbench" / "run.py"
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in (w["name"] for w in BENCH["workloads"]):
            for trace, spec in ((0, BENCH["end_to_end"]), (1, BENCH["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stdout)
                    self.assertEqual(
                        {k: v["unit"] for k, v in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in spec},
                    )
                    printed = {line.split()[1]: line.split()[4]
                               for line in lines if line.startswith("metric ")}
                    for metric in spec:
                        self.assertEqual(printed[metric["name"]], metric["unit"])
                    self.assertEqual(printed["fail_ratio"], "ratio")
                    env = json.loads(next(
                        line[len("environment "):] for line in lines
                        if line.startswith("environment ")))
                    self.assertLessEqual(ENV_KEYS, set(env))
                    if trace == 0:
                        self.assertTrue(any(
                            line.startswith("call_tail_ms is p") for line in lines))

    def test_fails_without_the_program(self):
        out = ROOT / run.OUT_DIR
        out.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("scan", 0, cwd=bare, script=bare / "perfbench" / "run.py")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class CorruptedReference(unittest.TestCase):
    def test_bad_reference_values_fail_the_matching_calls(self):
        import workloads

        refs = copy.deepcopy(workloads.load_refs())
        name, csv_ref = next(iter(refs["fig2b"]["csv"].items()))
        row = csv_ref["rows"]["100"].split(",")
        row[1] = repr(float(row[1]) * (1.0 + 1e-9))  # purity
        csv_ref["rows"]["100"] = ",".join(row)
        refs["fig4a"]["stdout"] = refs["fig4a"]["stdout"].replace("1.8", "1.82", 1)

        result = run.measure("figures", seed=5, seconds=0.0, trace=False,
                             root=ROOT, refs=refs)
        self.assertEqual(result["attempted"], 15)  # one pass over the presets
        self.assertEqual(result["failed"], 2, result["failures"])
        failed = sorted(reason.split(":")[0] for reason in result["failures"])
        self.assertEqual(failed, ["'fig2b'", "'fig4a'"])
        self.assertIn(f"{name} row 100", " ".join(result["failures"]))


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        import workloads

        def first(workload, seed):
            return list(itertools.islice(workload.inputs(seed), 40))

        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                workload = workloads.make(name, ROOT / run.OUT_DIR)
                self.assertEqual(first(workload, 9), first(workload, 9))
                self.assertNotEqual(first(workload, 9), first(workload, 10))


if __name__ == "__main__":
    unittest.main()
