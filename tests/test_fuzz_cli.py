"""Mutated inputs at the CLI boundary, run in process through main(argv).

A case takes a scene of ``scenes/`` and applies one to three mutations:
a dropped key, a value of another JSON type, a shifted int, an edited
character of a string, or an added key.  It runs the result under
``report``, ``--json report``, ``check`` or ``--json check``.  Other
cases run ``milnor`` on an edited corpus polynomial, or the retired
``table`` on its old bounds, which argparse refuses with exit 2 as an
unknown command.  Ints stay within 10^6.

Whatever the input, ``main`` returns 0 to 3, or argparse exits 2.  An
exit of 2 or 3 leaves stdout empty and writes one ``error:`` line to
stderr, in the user's terms: no traceback, and no Python type or
exception name.  Exits 0 and 1 write nothing to stderr.
"""

import contextlib
import copy
import io
import json
import re
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from milnorcalc.cli import main

SCENES = Path(__file__).resolve().parent.parent / "scenes"
CORPUS = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in sorted(SCENES.glob("*.json"))}
POLYNOMIAL_SCENES = sorted(name for name, data in CORPUS.items() if "polynomial" in data)
SCENE_FORMS = (("report",), ("--json", "report"), ("check",), ("--json", "check"))
# Every key a scene or a stratum may have, and one that neither may.
KEYS = ("name", "ambient", "degrees", "polynomial", "variables", "chart", "smooth", "strata", "mu")
KEYS += ("id", "dim", "chi_c", "closure_chi", "csm", "parents", "extra")
TEXT_CHARS = "xyzwq0123456789^*+-/() ,"
INTS = st.integers(-(10**6), 10**6)
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    # Copied, so that a mutation inside one never reaches a later case.
    st.sampled_from([1.5, "", "x", "1", "z", "x,y", [], [1], ["x"], [[1]], {}, {"a": 1}, {"1": "1"}]).map(
        copy.deepcopy
    ),
)
# Python's words for what went wrong, which a user's error line never holds.
INTERNALS = re.compile(
    r"Traceback|NoneType|object has no attribute|unhashable|not subscriptable|object is not"
    r"|\b[A-Z][A-Za-z]*(Error|Exception)\b|<class"
)


def _paths(node, prefix=()):
    """The path of every value in a JSON tree, the root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _edit_text(draw, text):
    at = draw(st.integers(0, len(text)))
    char = draw(st.sampled_from(TEXT_CHARS))
    kind = draw(st.sampled_from(["insert", "delete", "replace"])) if text else "insert"
    cut = at + 1 if kind != "insert" else at
    return text[:at] + ("" if kind == "delete" else char) + text[cut:]


def _mutate(draw, data):
    """Apply one mutation to ``data`` and return the result."""
    paths = list(_paths(data))
    kind = draw(st.sampled_from(["drop", "swap", "shift", "text", "key"]))
    wanted = {
        "drop": lambda v, p: p != (),
        "swap": lambda v, p: True,
        "shift": lambda v, p: isinstance(v, int) and not isinstance(v, bool),
        "text": lambda v, p: isinstance(v, str),
        "key": lambda v, p: isinstance(v, dict),
    }[kind]
    candidates = [p for p in paths if wanted(_at(data, p), p)]
    if not candidates:
        kind, candidates = "swap", paths
    path = draw(st.sampled_from(candidates))
    value = _at(data, path)
    if kind == "drop":
        del _at(data, path[:-1])[path[-1]]
        return data
    if kind == "key":
        value[draw(st.sampled_from(KEYS))] = draw(VALUES)
        return data
    if kind == "swap":
        new = draw(VALUES)
    elif kind == "shift":
        new = max(-(10**6), min(10**6, value + draw(st.one_of(st.integers(-3, 3), INTS))))
    else:
        new = _edit_text(draw, value)
    if not path:
        return new
    _at(data, path[:-1])[path[-1]] = new
    return data


@st.composite
def scene_cases(draw):
    data = copy.deepcopy(CORPUS[draw(st.sampled_from(sorted(CORPUS)))])
    for _ in range(draw(st.integers(1, 3))):
        data = _mutate(draw, data)
    return draw(st.sampled_from(SCENE_FORMS)), json.dumps(data)


@st.composite
def milnor_cases(draw):
    scene = CORPUS[draw(st.sampled_from(POLYNOMIAL_SCENES))]
    text = scene["polynomial"]
    for _ in range(draw(st.integers(0, 2))):
        text = _edit_text(draw, text)
    names = list(scene.get("variables", ["x", "y", "z", "w"][: scene["ambient"][0] + 1]))
    if draw(st.booleans()):
        names[draw(st.integers(0, len(names) - 1))] = draw(st.sampled_from(["x", "q", "", " ", "1"]))
    chart = draw(st.sampled_from([scene["chart"], *names, "q", "0"]))
    form = ("--json",) if draw(st.booleans()) else ()
    return (*form, "milnor", "--poly", text, "--vars", ",".join(names), "--chart", chart), None


@st.composite
def table_cases(draw):
    # The old options of the retired command, which argparse refuses whatever they hold.
    nmax, dmax = draw(st.sampled_from([-1, 0, 1, 3])), draw(st.sampled_from([-1, 0, 1, 3]))
    return ("table", "--nmax", str(nmax), "--dmax", str(dmax)), None


# Three scene cases to each milnor or table case.
CASES = st.one_of(scene_cases(), scene_cases(), scene_cases(), milnor_cases(), table_cases())
# The most time a case may take; scripts/fuzz_cli.py holds its cases to it too.
DEADLINE = timedelta(seconds=5)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            # argparse refuses the command line, after its usage.
            assert exc.code == 2
            return None, out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def check_case(scene_path, case):
    """Run one case through main and assert every invariant of its exit.
    A scene case carries the text of its file, written to ``scene_path``;
    the other cases carry None."""
    argv, text = case
    if text is not None:
        scene_path.write_text(text, encoding="utf-8")
        argv = (*argv, str(scene_path))
    code, out, err = run_main(argv)
    if code is None:
        assert out == "" and "error:" in err
        return
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not INTERNALS.search(err), err
    else:
        assert err == ""


@pytest.fixture(scope="module")
def scene_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "scene.json"


# Each class of escape found, one case of it, at a size that stays cheap
# if its limit is lost; tests/test_cli.py runs the full sizes in a child
# process under a memory limit.  A factor inside the box limit whose
# tangent class needs gigabytes (found by this test at P^72447):
@example(case=(("--json", "report"), json.dumps({"ambient": [7000], "degrees": [[4]], "smooth": True})))
# One default name per coordinate, built before the variable limit:
@example(case=(("report",), json.dumps({"ambient": [10**6], "degrees": [[1]], "polynomial": "x", "chart": "x"})))
@seed(20261019)
@settings(max_examples=200, deadline=DEADLINE, database=None)
@given(CASES)
def test_every_input_exits_in_the_users_terms(scene_path, case):
    check_case(scene_path, case)
