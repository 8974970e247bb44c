"""Determinism self-check of the benchmark: every per-layer count repeats
exactly across two traced passes with the same seed, and at threads 1 vs 2.

    python3 -m pytest -q bench/test_determinism.py    (about three minutes)
"""

import json

import pytest

from worker import ROOT, traced_pass  # first: puts ./src on sys.path

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SEED = 7

with open(ROOT / "BENCHMARK.json") as fh:
    COUNTS = [
        m["name"] for m in json.load(fh)["per_layer"] if m["unit"] in ("count", "bytes-computed")
    ]


def counts(name, threads):
    ops = workloads.BUILDERS[name](SEED)
    tracer, wall, attempted, failed = traced_pass(ops, threads)
    assert failed == 0 and attempted == len(ops)
    metrics = layer_metrics(tracer.spans, wall, wall, 0.0)
    return {k: metrics[k] for k in COUNTS}


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_counts_repeat_across_runs_and_thread_counts(name):
    default = workloads.THREADS[name]
    first = counts(name, default)
    assert counts(name, default) == first
    assert counts(name, 3 - default) == first
    assert first["util.stream.calls"] > 0
