#!/usr/bin/env python3
"""End-to-end benchmark of ``milnorcalc --json report``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop: each request goes through the
public entry point ``milnorcalc.cli.main`` in-process, with stdout
captured, and the next request is sent only after it returns.  Every
report passes through the correctness gate in ``gate.py``.  With
``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` a list of half the size is run
once untraced and once traced, and the object holds per-layer metrics
from ``tracer.py``.  The spans are written to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import gate
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SRC = ROOT / "src"

# Fresh interpreters started to time set-up, spread evenly over the
# timed list of a --trace 0 run; the median is reported.
SETUP_SAMPLES = 30
SETUP_COMMAND = [sys.executable, "-c", "import milnorcalc, milnorcalc.cli"]
# The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10


def load_cli():
    """Import ``milnorcalc.cli`` from this checkout's ``src``, or exit with an error."""
    if not (SRC / "milnorcalc" / "__init__.py").is_file():
        sys.exit(f"error: no milnorcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("milnorcalc.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported milnorcalc from {cli.__file__}, not from {SRC}")
    return cli


def start_interpreter() -> float:
    """Wall time for a fresh interpreter to import the package and CLI."""
    start = perf_counter()
    subprocess.run(SETUP_COMMAND, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return perf_counter() - start


def serve(cli, request: workloads.Request) -> tuple[float, int | None, str]:
    """Send one request; return its wall time, exit code and stdout.

    The exit code is None when the call raised; argparse rejects bad
    arguments by raising SystemExit, which counts the same way.
    """
    buffer = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(request.argv())
    except (Exception, SystemExit) as exc:
        print(f"error: {request.scene}: {exc!r}", file=sys.stderr)
        code = None
    return perf_counter() - start, code, buffer.getvalue()


def run_list(cli, requests, tracer: Tracer | None = None, setup_samples: int = 0):
    """Serve the list in a closed loop; return (wall, times, failures, setup).

    ``setup_samples`` fresh-interpreter starts are spread evenly between
    the requests, so that their median sees the same stretch of machine
    time as the reports.  Their times are returned in ``setup`` and are
    not part of ``wall``, the serving time of the list.
    """
    gc.collect()
    due = Counter(k * len(requests) // setup_samples for k in range(setup_samples))
    times, results, setup = [], [], []
    start = perf_counter()
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        elapsed, code, stdout = serve(cli, request)
        times.append(elapsed)
        results.append((code, stdout))
        for _ in range(due[index]):
            setup.append(start_interpreter())
    wall = perf_counter() - start - sum(setup)
    failures = 0
    for request, (code, stdout) in zip(requests, results):
        reason = gate.failure(request, code, stdout)
        if reason is not None:
            failures += 1
            if failures <= 5:
                print(f"failed: {request.scene} --m {request.m}: {reason}", file=sys.stderr)
    return wall, times, failures, setup


def tail(times: list[float]) -> tuple[float, int]:
    """Highest percentile with TAIL_BEYOND samples beyond it.

    Returns the percentile and the index of the sample that sits there.
    """
    order = sorted(range(len(times)), key=times.__getitem__)
    rank = len(order) - TAIL_BEYOND - 1
    if rank < 0:
        raise ValueError(f"{len(order)} samples are too few for a tail")
    return 100.0 * (rank + 1) / len(order), order[rank]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cli = load_cli()
    outdir = OUT / f"{args.workload}-seed{args.seed}"
    # A traced run serves its list twice, so each list is half as long.
    seconds = args.seconds / 2 if args.trace else args.seconds
    requests, warmup = workloads.build(args.workload, ROOT, outdir, args.seed, seconds)
    warmup_failure = gate.failure(warmup, *serve(cli, warmup)[1:])
    if warmup_failure is not None:
        print(f"failed: warm-up {warmup.scene}: {warmup_failure}", file=sys.stderr)

    samples = 0 if args.trace else SETUP_SAMPLES
    if samples:
        # The first start may write bytecode caches; users pay that once.
        start_interpreter()
    wall, times, failed, setup = run_list(cli, requests, setup_samples=samples)
    attempted = len(requests)
    reports_per_s = (attempted - failed) / wall
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, traced_failed, _ = run_list(cli, requests, tracer)
        finally:
            tracer.uninstall()
        attempted += len(requests)
        failed += traced_failed
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        layers = tracer.layer_metrics(len(requests))
        overhead = (len(requests) - traced_failed) / traced_wall - reports_per_s
        metrics = {
            name: metric(value, "ms" if name.endswith("_ms") else "count")
            for name, value in layers.items()
        }
        metrics["trace.overhead_reports_per_s"] = metric(overhead, "1/s")
        report_ms = layers["trace.report_ms"]
        print(
            f"{args.workload}: traced report {report_ms:.2f} ms; "
            f"groebner.total_milnor {100 * layers['groebner.total_milnor_ms'] / report_ms:.1f}%, "
            f"chow.mul {100 * layers['chow.mul_ms'] / report_ms:.1f}% of it"
        )
    else:
        percentile, tail_index = tail(times)
        print(
            f"{args.workload}: {attempted} reports in {wall:.2f} s; report_tail_ms is "
            f"p{percentile:.1f} of {len(times)} samples, from "
            f"{Path(requests[tail_index].scene).name} --m {requests[tail_index].m}"
        )
        metrics = {
            "reports_per_s": metric(reports_per_s, "1/s"),
            "report_p50_ms": metric(1000.0 * statistics.median(times), "ms"),
            "report_tail_ms": metric(1000.0 * times[tail_index], "ms"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": failed == 0 and warmup_failure is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
