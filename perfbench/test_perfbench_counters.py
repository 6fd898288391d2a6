"""Counter determinism: two traced runs of a workload give identical counts.

Runs each workload twice in-process on a small configuration (one corpus
instance, short passes) and compares every count field of the traced
run, plus the emitted circuit edges and OBDD nodes.
"""

import os
import shutil
import tempfile

import pytest

from run import LAYER_COUNTS, OUT, per_layer, put_kcmt_on_path

put_kcmt_on_path()

import corpus  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def traced_counts(workload, seed):
    tracer = Tracer()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=OUT)
    try:
        _, tally = workloads.run(workload, seed, 0.0, tracer, 1000, workdir)
    finally:
        shutil.rmtree(workdir)
    assert tally.failed == 0 and tally.attempted > 0
    metrics = per_layer(tracer, tally)
    counts = {name: metrics[name][0] for name in LAYER_COUNTS}
    counts["circuit_edges"], counts["obdd_nodes"] = tally.emitted
    return counts


@pytest.mark.parametrize("workload", ["compile", "query_warm", "query_cold"])
def test_traced_counters_repeat(workload, monkeypatch):
    monkeypatch.setattr(corpus, "OFFSETS", (0,))
    monkeypatch.setattr(workloads, "WARM_PASS", 200)
    monkeypatch.setattr(workloads, "COLD_PASS", 200)
    first = traced_counts(workload, seed=5)
    second = traced_counts(workload, seed=5)
    assert first == second
    assert first["theory.checks"] > 0 and first["circuit_edges"] > 0
