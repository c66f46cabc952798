"""The summary of tools/bench_pairs.py on synthetic benchmark results."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "throughput_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "latency_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25}]


def result(throughput, p90, attempted=10, failed=0):
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {"throughput_per_s": {"value": throughput, "unit": "1/s"},
                        "latency_ms_p90": {"value": p90, "unit": "ms"}}}


def test_medians_quartiles_and_wins():
    pairs = [(result(10, 60), result(11, 30)), (result(12, 64), result(12, 28)),
             (result(14, 70), result(13, 29)), (result(11, 59), result(15, 61)),
             (result(13, 66), result(14, 27))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["pairs"] == 5
    throughput, p90 = summary["metrics"]
    assert throughput["parent"] == (11, 12, 13)  # inclusive quartiles of 10..14
    assert throughput["change"] == (12, 13, 14)
    assert throughput["wins"] == 3  # higher is better; the tie at 12 is no win
    assert p90["parent"] == (60, 64, 66)
    assert p90["change"] == (28, 29, 30)
    assert p90["wins"] == 4  # lower is better; 61 > 59 loses
    assert not throughput["unresolved"] and not p90["unresolved"]
    assert summary["failed_share"] == {"parent": 0.0, "change": 0.0}


def test_a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_part():
    # change p90 quartiles (29, 30, 45.5): q3 - q1 = 16.5 > 0.25 x 30
    pairs = [(result(10, 60), result(11, 28)), (result(10, 60), result(11, 30)),
             (result(10, 60), result(11, 61))]
    _, p90 = bench_pairs.summarize(pairs, END_TO_END)["metrics"]
    assert p90["wins"] == 2 and p90["unresolved"]
    assert bench_pairs.format_summary(bench_pairs.summarize(pairs, END_TO_END))[2].endswith(
        "wins 2/3, unresolved: q3 - q1 above bound x median")
    pairs[2] = (result(10, 60), result(11, 59))  # every change run beats every parent run
    _, p90 = bench_pairs.summarize(pairs, END_TO_END)["metrics"]
    assert p90["change"][2] - p90["change"][0] > 0.25 * p90["change"][1]
    assert not p90["unresolved"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_above_the_parent_spread():
    parent = list(range(100, 110))  # inclusive q1 102.25, q3 106.75
    close = [(result(p, 50), result(p + 0.5, 50)) for p in parent]  # 10/10, gap 0.5 < 4.5
    throughput = bench_pairs.summarize(close, END_TO_END)["metrics"][0]
    assert throughput["wins"] == 10 and not throughput["gain"]
    far = [(result(p, 50), result(p + 5, 50)) for p in parent]
    far[3] = (result(103, 50), result(102, 50))  # 9/10 wins, median gap 109.5 - 104.5 > 4.5
    throughput = bench_pairs.summarize(far, END_TO_END)["metrics"][0]
    assert throughput["wins"] == 9 and throughput["gain"]
    assert bench_pairs.format_summary(bench_pairs.summarize(far, END_TO_END))[1].endswith(
        "wins 9/10, gain: >= 9/10 wins, median gap > parent q3 - q1")
    far[4] = (result(104, 50), result(103, 50))  # 8/10 wins is no gain
    assert not bench_pairs.summarize(far, END_TO_END)["metrics"][0]["gain"]
    nine = [(result(p, 50), result(p + 5, 50)) for p in parent[:9]]  # 9/9, but under ten pairs
    assert not bench_pairs.summarize(nine, END_TO_END)["metrics"][0]["gain"]


def test_failed_share_pools_every_run_of_a_side():
    pairs = [(result(1, 1, attempted=10, failed=1), result(1, 1, attempted=10)),
             (result(1, 1, attempted=30, failed=1), result(1, 1, attempted=30, failed=4))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["failed_share"] == {"parent": pytest.approx(0.05), "change": 0.1}


def test_one_pair_is_its_own_quartiles():
    summary = bench_pairs.summarize([(result(5, 9), result(6, 8))], END_TO_END)
    assert summary["metrics"][0]["parent"] == (5, 5, 5)
    lines = bench_pairs.format_summary(summary)
    assert lines[1] == ("throughput_per_s (1/s, higher is better): "
                        "parent 5 [5, 5] -> change 6 [6, 6], wins 1/1")
    assert lines[-1] == "failed share: parent 0 -> change 0"


def test_seeds_and_alternating_order():
    assert bench_pairs.parse_seeds("301-303,310") == [301, 302, 303, 310]
    assert bench_pairs.schedule([1, 2, 3]) == [(1, ("parent", "change")),
                                               (2, ("change", "parent")),
                                               (3, ("parent", "change"))]
