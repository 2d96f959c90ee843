"""The benchmark harness in ``perfbench/`` against the package.

``perfbench/spans.py`` wraps oscbath functions by name and
``perfbench/workloads.py`` calls and checks the program through its public
API, so a change to either side that breaks ``run.py --trace 1`` or a
workload's output check shows up here: every traced name must resolve, and
the first block of each workload must pass its check with the tracer
installed.
"""

import itertools
import sys
from pathlib import Path

import pytest

import oscbath

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_first_block_passes_its_check(name, tmp_path):
    workload = workloads.make(name, tmp_path)
    batches = workload.inputs(SEED)
    inputs = list(itertools.islice(itertools.chain.from_iterable(batches),
                                   workload.block_calls))
    tracer = spans.Tracer(oscbath)  # raises if a traced name is gone
    tracer.install()
    try:
        for inp in inputs:
            output = tracer.root(workload.call, inp)
            try:
                outcome = workload.check(inp, output)
            finally:
                workload.cleanup(output)
            assert outcome.ok, f"{name} {inp}: {outcome.reason}"
    finally:
        tracer.uninstall()
    assert len(inputs) == workload.block_calls
    assert tracer.summary()[spans.ROOT_SPAN][0] == workload.block_calls
