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
