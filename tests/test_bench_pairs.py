"""The verdicts of scripts/bench_pairs.py on synthetic interleaved pairs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(before, after, ops=None):
    """Pairs whose runs carry one metric, wall_s, and the given op seconds."""
    ops = ops or [({}, {})] * len(before)
    return [
        {
            "before": {"metrics": {"wall_s": {"value": b}}, "op_seconds": ob},
            "after": {"metrics": {"wall_s": {"value": a}}, "op_seconds": oa},
        }
        for b, a, (ob, oa) in zip(before, after, ops)
    ]


BEFORE = [1.00, 1.10, 1.05, 0.95, 1.20, 1.02, 0.98, 1.08, 1.15, 1.01]


def verdict(bench_pairs, before, after, bound=0.24):
    return bench_pairs.summarise(pairs_of(before, after), {"wall_s": "lower"}, {"wall_s": bound})["wall_s"]


def test_a_clear_gain_holds(bench_pairs):
    out = verdict(bench_pairs, BEFORE, [0.8 * b for b in BEFORE])
    assert out["after_wins"] == 10 and out["gain_holds"] and out["within_bound"]


def test_eight_wins_of_ten_is_no_gain(bench_pairs):
    after = [0.8 * b for b in BEFORE]
    after[0] = after[1] = 2.0
    out = verdict(bench_pairs, BEFORE, after)
    assert out["after_wins"] == 8 and not out["gain_holds"]


def test_a_gain_inside_the_quartile_range_does_not_hold(bench_pairs):
    # the after runs win every pair by 0.01, less than the before spread
    out = verdict(bench_pairs, BEFORE, [b - 0.01 for b in BEFORE])
    assert out["after_wins"] == 10 and out["before_iqr"] > 0.01 and not out["gain_holds"]


def test_ties_count_for_neither_side(bench_pairs):
    out = verdict(bench_pairs, BEFORE, BEFORE)
    assert out["after_wins"] == 0 and not out["gain_holds"] and out["within_bound"]


@pytest.mark.parametrize("scale,inside", [(1.2, True), (1.3, False)])
def test_bound_is_a_fraction_of_the_before_median(bench_pairs, scale, inside):
    out = verdict(bench_pairs, BEFORE, [scale * b for b in BEFORE])
    assert out["within_bound"] is inside and not out["gain_holds"]


def test_higher_is_better_metrics_and_metrics_without_a_bound(bench_pairs):
    pairs = pairs_of(BEFORE, [1.5 * b for b in BEFORE])
    out = bench_pairs.summarise(pairs, {"wall_s": "higher"}, {})["wall_s"]
    assert out["after_wins"] == 10 and out["gain_holds"] and out["within_bound"] is None


def test_per_op_wins_compare_each_pair_on_its_median_pass(bench_pairs):
    ops = [({"a": [1.0, 1.2, 1.4], "b": [2.0]}, {"a": [0.9, 1.1, 9.0], "b": [2.5]})] * 9
    ops.append(({"a": [1.0], "b": [2.0]}, {"a": [], "b": [1.0]}))
    out = bench_pairs.op_medians(pairs_of(BEFORE, BEFORE, ops))
    assert out["a"]["after_wins"] == 9 and out["a"]["pairs"] == 9
    assert out["b"]["after_wins"] == 1 and out["b"]["pairs"] == 10
    assert out["b"]["after_over_before"] == pytest.approx(1.25)
