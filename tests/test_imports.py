"""What a fresh interpreter imports: a command loads only what it runs.

Each case starts a new interpreter without bytecode writing, imports
``milnorcalc`` and ``milnorcalc.cli``, runs at most one command through
``main``, and reports the exit code, the stdout and which of ``HEAVY``
are in ``sys.modules`` afterwards.  A bare interpreter holds none of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDENS = json.loads((ROOT / "perfbench" / "goldens" / "corpus.json").read_text(encoding="utf-8"))
# The Groebner engine, what it alone imports, and the module no command needs.
HEAVY = ("milnorcalc.groebner", "milnorcalc.linalg", "milnorcalc.polynomials", "fractions", "dataclasses")
CHILD = """
import contextlib, io, json, sys
import milnorcalc, milnorcalc.cli
argv, out = sys.argv[1:], io.StringIO()
with contextlib.redirect_stdout(out):
    code = milnorcalc.cli.main(argv) if argv else None
heavy = [name for name in json.loads(sys.stdin.read()) if name in sys.modules]
print(json.dumps({"code": code, "stdout": out.getvalue(), "heavy": heavy}))
"""
CONIC_TEXT = """scene: smooth-conic
ambient: P^2
degrees: (2)
fulton_johnson: 2H + 2H^2
milnor_class: 0
csm: 2H + 2H^2
euler: 2
checks:
  defect_codim1: pass
  euler_strata: pass  (strata give 2, classes give 2)
  lci_m1: pass
  localization_sum: pass
  pushdown_m1: pass
  self_intersection: pass
  verdier_m1: pass
"""


def run_fresh(*argv):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", CHILD, *argv],
        input=json.dumps(HEAVY), capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_a_bare_interpreter_holds_none_of_the_heavy_modules():
    done = subprocess.run(
        [sys.executable, "-B", "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert set(HEAVY).isdisjoint(json.loads(done.stdout))


def test_importing_the_package_and_the_cli_loads_no_engine():
    assert run_fresh() == {"code": None, "stdout": "", "heavy": []}


@pytest.mark.parametrize("scene", ["smooth-conic.json", "reducible-quadric-surface.json"])
def test_a_report_without_a_polynomial_loads_no_engine(scene):
    result = run_fresh("--json", "report", str(SCENES / scene))
    assert result == {"code": 0, "stdout": GOLDENS[f"{scene} --m 1"], "heavy": []}


def test_a_text_report_without_a_polynomial_loads_no_engine():
    result = run_fresh("report", str(SCENES / "smooth-conic.json"))
    assert result == {"code": 0, "stdout": CONIC_TEXT, "heavy": []}


def test_a_table_loads_no_engine():
    # The retired command: each old form exits 2 before any class is computed.
    for argv in (["table"], ["table", "--nmax", "4", "--dmax", "4"], ["--json", "table"]):
        assert run_fresh(*argv) == {"code": 2, "stdout": "", "heavy": []}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["report", "/nonexistent.json"], 2),
        (["report", str(SCENES / "smooth-conic.json"), "--m", "0"], 2),
        (["check", str(SCENES / "smooth-conic.json"), "--checks", "frobnicate"], 2),
    ],
    ids=["unreadable-file", "bad-m", "unknown-check"],
)
def test_a_command_that_fails_without_a_polynomial_loads_no_engine(argv, code):
    assert run_fresh(*argv) == {"code": code, "stdout": "", "heavy": []}


def test_an_obstruction_without_a_polynomial_loads_no_engine(tmp_path):
    # The curve-without-csm scene of scripts/compare_cli.py: exit code 3
    # is read from the error's type, with no import of the engine.
    curve = {"id": "c", "dim": 1, "chi_c": 0, "closure_chi": 0}
    path = tmp_path / "curve-without-csm.json"
    path.write_text(json.dumps({"ambient": [2], "degrees": [[3]], "strata": [curve], "mu": {"c": 1}}), encoding="utf-8")
    assert run_fresh("report", str(path)) == {"code": 3, "stdout": "", "heavy": []}


def test_a_polynomial_scene_loads_the_engine():
    result = run_fresh("--json", "report", str(SCENES / "nodal-cubic.json"))
    assert result == {"code": 0, "stdout": GOLDENS["nodal-cubic.json --m 1"], "heavy": list(HEAVY[:4])}
