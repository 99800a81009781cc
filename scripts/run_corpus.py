#!/usr/bin/env python3
"""Run a full class report over every scene in scenes/ and print a summary.

Useful as a quick end-to-end exercise of the whole pipeline: Groebner
Milnor numbers, class arithmetic, and all identity checks with both
product factor dimensions.
"""

import argparse
import sys
import time
from pathlib import Path

from milnorcalc import build_report, load_scene

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--m",
        type=int,
        nargs="+",
        default=[1, 2],
        help="product factor dimensions to check (default: 1 2)",
    )
    args = parser.parse_args()

    failures = 0
    for path in sorted(SCENES.glob("*.json")):
        name = path.stem
        start = time.perf_counter()
        scene, mu = load_scene(str(path))
        try:
            report = build_report(scene, mu, m_values=tuple(args.m))
        except ValueError as exc:
            # An --m below 1 or too large for the size budget of a class.
            parser.error(f"{name}: {exc}")
        elapsed = time.perf_counter() - start
        bad = sorted(k for k, c in report.checks.items() if not c.passed)
        failures += len(bad)
        status = "ok" if not bad else "FAIL " + ",".join(bad)
        print(
            f"{name:28s} euler={report.euler:5d}  "
            f"milnor={str(report.milnor_class):16s} {elapsed:6.2f}s  {status}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
