"""The summary of scripts/bench_round.py on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_round.py"


@pytest.fixture(scope="module")
def bench_round():
    spec = importlib.util.spec_from_file_location("bench_round", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(before, after, before_digest="a", after_digest="a", rounds=(281, 281)):
    return [
        {
            "before": {"op": {"s": b, "digest": before_digest, "rounds": rounds[0]}},
            "after": {"op": {"s": a, "digest": after_digest, "rounds": rounds[1]}},
        }
        for b, a in zip(before, after)
    ]


def test_medians_ratio_and_same_bits(bench_round):
    out = bench_round.summarise(runs_of([1.0, 3.0, 2.0], [1.0, 0.5, 2.0]))["op"]
    assert out["before"]["s"] == 2.0 and out["after"]["s"] == 1.0
    assert out["after_over_before"] == 0.5
    assert out["same_bits"] and out["before"]["repeatable"] and out["after"]["repeatable"]


@pytest.mark.parametrize("digests,rounds", [(("a", "b"), (281, 281)), (("a", "a"), (281, 280))])
def test_a_moved_digest_or_count_is_not_the_same_bits(bench_round, digests, rounds):
    out = bench_round.summarise(runs_of([1.0, 1.0], [0.9, 0.9], *digests, rounds))["op"]
    assert not out["same_bits"]


def test_a_digest_that_changes_between_runs_is_not_repeatable(bench_round):
    runs = runs_of([1.0, 1.0], [0.9, 0.9])
    runs[1]["after"]["op"]["digest"] = "z"
    out = bench_round.summarise(runs)["op"]
    assert out["before"]["repeatable"] and not out["after"]["repeatable"]
