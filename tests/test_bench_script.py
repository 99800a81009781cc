"""The summary of ``scripts/bench.py``, on made-up run results."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(rate, p50, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "reports_per_s": {"value": rate, "unit": "1/s"},
            "report_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def test_summary_spreads_and_pairs_won():
    bench = load_bench()
    runs = [
        {"side": "parent", "seed": 1, "result": result(80, 10.0)},
        {"side": "change", "seed": 1, "result": result(170, 6.0)},
        {"side": "change", "seed": 2, "result": result(160, 10.5)},
        {"side": "parent", "seed": 2, "result": result(90, 10.0)},
        {"side": "parent", "seed": 3, "result": result(100, 11.0)},
        {"side": "change", "seed": 3, "result": result(180, 5.0)},
        # A run without its partner is not a pair.
        {"side": "parent", "seed": 4, "result": result(1, 99.0)},
    ]
    summary = bench.summarize(runs, {"reports_per_s": "higher", "report_p50_ms": "lower"})
    assert summary["all_correct"] and summary["failed"] == 0
    rate = summary["metrics"]["reports_per_s"]
    assert rate["parent"] == {"median": 90, "q1": 85.0, "q3": 95.0}
    assert rate["change"] == {"median": 170, "q1": 165.0, "q3": 175.0}
    assert rate["ratio"] == 170 / 90
    assert rate["change_better_pairs"] == 3 and rate["pairs"] == 3
    p50 = summary["metrics"]["report_p50_ms"]
    assert p50["change_better_pairs"] == 2
    assert p50["parent"]["median"] == 10.0 and p50["change"]["median"] == 6.0


def test_summary_counts_failed_runs():
    bench = load_bench()
    runs = [
        {"side": "parent", "seed": 1, "result": result(80, 10.0)},
        {"side": "change", "seed": 1, "result": result(80, 10.0, failed=2)},
    ]
    summary = bench.summarize(runs, {"reports_per_s": "higher"})
    assert not summary["all_correct"] and summary["failed"] == 2
    assert summary["metrics"]["reports_per_s"]["change_better_pairs"] == 0


def paired(parent_rates, change_rates):
    """One parent and one change run per seed, with the given rates."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent_rates, change_rates)):
        runs.append({"side": "parent", "seed": seed, "result": result(p, 100.0 / p)})
        runs.append({"side": "change", "seed": seed, "result": result(c, 100.0 / c)})
    return runs


BETTER = {"reports_per_s": "higher", "report_p50_ms": "lower"}


def test_claim_holds_on_nine_of_ten_with_a_tie():
    bench = load_bench()
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    # The last pair is a tie: it counts for neither side, so 9 of 10 are won.
    change = [120, 121, 122, 123, 124, 125, 126, 127, 128, 109]
    metrics = bench.summarize(paired(parent, change), BETTER)["metrics"]
    for name in BETTER:
        assert metrics[name]["change_better_pairs"] == 9
        assert metrics[name]["claim_holds"] is True


def test_claim_fails_on_two_ties():
    bench = load_bench()
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [120, 121, 122, 123, 124, 125, 126, 127, 108, 109]
    metrics = bench.summarize(paired(parent, change), BETTER)["metrics"]
    assert metrics["reports_per_s"]["change_better_pairs"] == 8
    assert metrics["reports_per_s"]["claim_holds"] is False


def test_claim_fails_when_the_gap_is_within_the_parent_spread():
    bench = load_bench()
    # Every pair is won, but by 1 against a parent interquartile range of 4.5.
    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    change = [p + 1 for p in parent]
    rate = bench.summarize(paired(parent, change), BETTER)["metrics"]["reports_per_s"]
    assert rate["change_better_pairs"] == 10
    assert rate["parent"]["q3"] - rate["parent"]["q1"] == 4.5
    assert rate["claim_holds"] is False


def test_claim_needs_ten_pairs():
    bench = load_bench()
    metrics = bench.summarize(paired([100] * 9, [200] * 9), BETTER)["metrics"]
    assert metrics["reports_per_s"]["change_better_pairs"] == 9
    assert metrics["reports_per_s"]["claim_holds"] is False


def test_worse_change_never_holds():
    bench = load_bench()
    parent = [200] * 10
    change = [100] * 10
    metrics = bench.summarize(paired(parent, change), BETTER)["metrics"]
    assert metrics["reports_per_s"]["claim_holds"] is False
    assert metrics["report_p50_ms"]["claim_holds"] is False
