"""``scripts/run_corpus.py``: a full run over the corpus, and a refused ``--m``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-B", str(ROOT / "scripts" / "run_corpus.py"), *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )


def test_every_corpus_scene_reports_ok():
    done = run()
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 9 and all(line.endswith("  ok") for line in lines)


@pytest.mark.parametrize(
    "m, message",
    [
        ("0", "the product factor dimension must be at least 1"),
        ("4000", "the tangent class of P^2 x P^4000 may need 48060012 bits, more than the 40000000 a class may hold"),
    ],
)
def test_an_m_out_of_range_is_refused_with_usage(m, message):
    done = run("--m", "1", m)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("usage: ")
    assert done.stderr.endswith(f"error: cuspidal-cubic: {message}\n")
    assert "Traceback" not in done.stderr
