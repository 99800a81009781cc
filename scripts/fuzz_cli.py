#!/usr/bin/env python3
"""Fuzz the command line for a while, on the cases of the tier-1 fuzz test.

    python3 scripts/fuzz_cli.py SEED SECONDS [DIR]

The cases are drawn by Hypothesis from the mutators of
``tests/test_fuzz_cli.py`` (corpus scenes under ``report`` and ``check``,
edited ``milnor`` polynomials, the retired ``table`` with its old
bounds, which argparse refuses), in batches seeded from SEED, until
SECONDS have passed.  Each is held to that test's invariants
(``check_case``) and to its per-case deadline; an exception that
leaves ``main`` is a failure too.  All cases run in one child process
whose address space is limited to 1 GB, set on the child alone, so a
lost size limit ends as a MemoryError there.
Each failing case is written to DIR (default ``fuzz-failures``) as
``failure-N.json``: its argv, its scene text (a scene case's file is the
last argument), the problem and its traceback.  The last line of stdout
is a JSON object with the seed, the case count and the failure count.
Exit 0 when no case failed, 1 when some did, and 2 when the child did
not finish.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE = 1 << 30
# Cases drawn per Hypothesis run; a new run starts from a fresh seed and
# drops what the last one kept.
BATCH = 500


class CaseTimeout(BaseException):
    """Raised by the alarm in a case that ran past the deadline."""


class TimeUp(Exception):
    """Raised inside a batch once SECONDS have passed."""


def _on_alarm(signum, frame):
    raise CaseTimeout


def run_cases(seed: int, seconds: float, out_dir: Path) -> dict:
    """Run cases until ``seconds`` have passed, write each failure to
    ``out_dir``, and return the counts.  Meant for the child process."""
    from hypothesis import HealthCheck, Phase, Verbosity, given, seed as use_seed, settings

    import test_fuzz_cli as fuzz

    limit = fuzz.DEADLINE.total_seconds()
    stop = time.monotonic() + seconds
    counts = {"seed": seed, "cases": 0, "failures": 0}

    def record(case, problem):
        counts["failures"] += 1
        out_dir.mkdir(parents=True, exist_ok=True)
        argv, text = case
        failure = {"argv": list(argv), "scene": text, "problem": problem, "traceback": traceback.format_exc()}
        path = out_dir / f"failure-{counts['failures']}.json"
        path.write_text(json.dumps(failure, indent=2) + "\n", encoding="utf-8")

    def one(case):
        if time.monotonic() >= stop:
            raise TimeUp
        counts["cases"] += 1
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            fuzz.check_case(scene_path, case)
        except AssertionError as exc:
            record(case, f"invariant broken: {exc}")
        except CaseTimeout:
            record(case, f"over the deadline of {limit} s")
        except Exception as exc:
            record(case, "escaped main: " + "".join(traceback.format_exception_only(exc)).strip())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    quiet = settings(
        max_examples=BATCH,
        deadline=None,
        database=None,
        phases=[Phase.generate],
        verbosity=Verbosity.quiet,
        suppress_health_check=list(HealthCheck),
    )
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    with tempfile.TemporaryDirectory(prefix="fuzz-cli-") as tmp:
        scene_path = Path(tmp) / "scene.json"
        batch = 0
        while time.monotonic() < stop:
            try:
                use_seed(seed * 1_000_000 + batch)(quiet(given(fuzz.CASES)(one)))()
            except TimeUp:
                break
            batch += 1
    signal.signal(signal.SIGALRM, previous)
    return counts


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    seed, seconds = int(argv[0]), float(argv[1])
    out_dir = Path(argv[2] if len(argv) == 3 else "fuzz-failures").resolve()
    program = (
        "import json, sys; from pathlib import Path; import fuzz_cli; "
        "print(json.dumps(fuzz_cli.run_cases(int(sys.argv[1]), float(sys.argv[2]), Path(sys.argv[3]))))"
    )
    path = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "scripts"), os.environ.get("PYTHONPATH", "")]
    done = subprocess.run(
        [sys.executable, "-B", "-c", program, str(seed), str(seconds), str(out_dir)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE)),
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: the child exited {done.returncode}: {done.stderr.strip()}", file=sys.stderr)
        return 2
    print(lines[-1])
    return 1 if json.loads(lines[-1])["failures"] else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
