"""``scripts/fuzz_cli.py``: a short run, and the record of each failing case."""

import importlib.util
import json
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest

import test_fuzz_cli

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fuzz_cli.py"


def load_script():
    spec = importlib.util.spec_from_file_location("fuzz_cli", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_short_run_finds_nothing(tmp_path):
    out = tmp_path / "failures"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "7", "2", str(out)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(done.stdout.splitlines()[-1])
    assert summary["seed"] == 7 and summary["failures"] == 0
    assert summary["cases"] > 50
    assert not out.exists()


def test_a_bad_command_line_is_refused():
    done = subprocess.run([sys.executable, str(SCRIPT), "7"], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "usage: python3 scripts/fuzz_cli.py SEED SECONDS [DIR]\n"


def raises(argv):
    raise TypeError("boom")


def sleeps(argv):
    time.sleep(1)


@pytest.mark.parametrize(
    "main, problem",
    [
        (raises, "escaped main: TypeError: boom"),
        (lambda argv: 5, "invariant broken: "),
        (sleeps, "over the deadline of 0.05 s"),
    ],
)
def test_each_failing_case_is_written(tmp_path, monkeypatch, main, problem):
    # In process, with main replaced, so that every case fails one way.
    monkeypatch.setattr(test_fuzz_cli, "main", main)
    monkeypatch.setattr(test_fuzz_cli, "DEADLINE", timedelta(seconds=0.05))
    counts = load_script().run_cases(3, 0.3, tmp_path)
    assert counts["seed"] == 3
    assert counts["cases"] == counts["failures"] > 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"failure-{n}.json" for n in range(1, counts["failures"] + 1)
    )
    failure = json.loads((tmp_path / "failure-1.json").read_text(encoding="utf-8"))
    assert sorted(failure) == ["argv", "problem", "scene", "traceback"]
    assert failure["problem"].startswith(problem)
    assert failure["traceback"].startswith("Traceback")
