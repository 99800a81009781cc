#!/usr/bin/env python3
"""Compare two checkouts with alternating runs of ``perfbench/run.py``.

    python3 scripts/bench.py --parent ../parent --change . --workload chow --seeds 51 52 53

Each seed gives one pair: the command and run length that
``BENCHMARK.json`` declares run once in each checkout with that seed,
the parent first on even pairs and the change first on odd ones, so
that a drift of the machine falls on both sides.  Before every run
``src/milnorcalc/__pycache__`` is deleted in both checkouts, so that
neither side imports bytecode left by an earlier run and ``setup_s``
starts alike.  Stdout is one JSON object with every run and, for each
metric, the median and quartiles of each side, the ratio of the
medians, the number of pairs in which the change was better, and
``claim_holds``: whether a gain on that metric may be claimed.  Only
the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# A gain is claimed from at least this many pairs.
MIN_PAIRS = 10


def clear_bytecode(checkouts) -> None:
    for checkout in checkouts:
        shutil.rmtree(Path(checkout) / "src" / "milnorcalc" / "__pycache__", ignore_errors=True)


def run_once(benchmark: dict, checkout: Path, workload: str, seed: int) -> dict:
    """Run the benchmark command in one checkout and return its result object."""
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {checkout}: run.py exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles stay inside the range of the values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per-metric spread of each side and the pairs the change won.

    ``runs`` holds {"side", "seed", "result"} entries, one parent and one
    change run per seed; ``better`` maps a metric name to "higher" or
    "lower".  A tie counts as a pair not won.  A gain holds when at
    least ``MIN_PAIRS`` pairs ran, the change won at least nine tenths
    of them, and its median is better than the parent's by more than
    the parent's interquartile range.
    """
    by_seed: dict[int, dict[str, dict]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], {})[run["side"]] = run["result"]
    pairs = [sides for sides in by_seed.values() if set(sides) == set(SIDES)]
    summary = {}
    for name in pairs[0]["parent"]["metrics"] if pairs else ():
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        entry = {side: spread(values[side]) for side in SIDES}
        parent_median = entry["parent"]["median"]
        entry["ratio"] = entry["change"]["median"] / parent_median if parent_median else None
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            entry["change_better_pairs"] = won
            gap = sign * (entry["change"]["median"] - parent_median)
            entry["claim_holds"] = (
                len(pairs) >= MIN_PAIRS
                and 10 * won >= 9 * len(pairs)
                and gap > entry["parent"]["q3"] - entry["parent"]["q1"]
            )
        entry["pairs"] = len(pairs)
        summary[name] = entry
    return {
        "all_correct": all(run["result"]["correct"] for run in runs),
        "failed": sum(run["result"]["failed"] for run in runs),
        "metrics": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}
    runs = []
    for index, seed in enumerate(args.seeds):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            clear_bytecode(checkouts.values())
            result = run_once(benchmark, checkouts[side], args.workload, seed)
            runs.append({"side": side, "seed": seed, "result": result})
            print(f"{side} seed {seed}: {json.dumps(result['metrics'])}", file=sys.stderr)
    report = {"workload": args.workload, "seconds": benchmark["run_seconds"], "runs": runs}
    report.update(summarize(runs, better))
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
