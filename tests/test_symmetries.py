"""Symmetries of the whole report, run in process through main(argv).

An input changed in a way that the mathematics cannot see gives the
same report: byte for byte when only the file's order and layout
change, with every class key permuted when the ambient's factors are,
and with every number kept when a polynomial scene's coordinates,
scale or chart change.  The relations need no second implementation of
any class; sympy only expands the changed polynomials.
"""

import contextlib
import importlib.util
import io
import json
import random
import sys
from pathlib import Path

import pytest

from milnorcalc.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
CORPUS = sorted(path.stem for path in SCENES.glob("*.json"))


def json_report(path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--json", "report", str(path), "--m", "1"])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def reordered(node):
    """``node`` with the keys of every object, ``strata`` and each
    ``parents`` list in reverse order."""
    if isinstance(node, list):
        return [reordered(value) for value in node]
    if not isinstance(node, dict):
        return node
    items = {key: reordered(value) for key, value in node.items()}
    for key in ("strata", "parents"):
        if key in items:
            items[key].reverse()
    return dict(reversed(items.items()))


@pytest.mark.parametrize("name", CORPUS)
def test_reordering_and_reindenting_a_scene_file_changes_no_byte(name, tmp_path):
    original = SCENES / f"{name}.json"
    data = json.loads(original.read_text(encoding="utf-8"))
    moved = tmp_path / f"{name}.json"
    moved.write_text(json.dumps(reordered(data), indent="\t", separators=(" ,", " :  ")), encoding="utf-8")
    assert json_report(moved) == json_report(original)


def test_swapping_the_factors_swaps_every_class_key(tmp_path):
    reports = []
    for ambient, degree in (([1, 2], [2, 3]), ([2, 1], [3, 2])):
        path = tmp_path / f"P{ambient[0]}xP{ambient[1]}.json"
        path.write_text(json.dumps({"ambient": ambient, "degrees": [degree], "smooth": True}), encoding="utf-8")
        reports.append(json.loads(json_report(path)))
    first, second = reports

    def swapped(classes):
        return {",".join(reversed(key.split(","))): value for key, value in classes.items()}

    classes = {field: swapped(first[field]) for field in ("fulton_johnson", "milnor_class", "csm")}
    assert second == {**first, "ambient": [2, 1], "degrees": [[3, 2]], **classes}
    assert second["euler"] == 24


def load_workloads():
    """``perfbench/workloads.py``, loaded by path without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("symmetries_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def default_variables(n):
    """The scene-file names of the coordinates of P^n."""
    return ["x", "y", "z", "w"][: n + 1] if n <= 3 else [f"x{i}" for i in range(n + 1)]


def one_node_scenes():
    """Seeded scenes of the ``milnor`` workload's family, one node at the
    origin of the chart of the last variable, in P^2 and P^3."""
    one_node_polynomial, rng = load_workloads().one_node_polynomial, random.Random(52)
    scenes = {}
    for n, d in ((2, 3), (2, 4), (3, 3)):
        a, b = ([rng.randint(1, 9) for _ in range(n)] for _ in range(2))
        polynomial = one_node_polynomial(n, d, a, b)
        scenes[f"one-node-P{n}-d{d}"] = {
            "ambient": [n], "degrees": [[d]], "polynomial": polynomial, "chart": default_variables(n)[-1]
        }
    return scenes


def polynomial_scenes():
    corpus = {name: json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8")) for name in CORPUS}
    return {**{name: data for name, data in corpus.items() if "polynomial" in data}, **one_node_scenes()}


POLYNOMIAL_SCENES = polynomial_scenes()


class PolynomialScene:
    """A polynomial scene, its variables as sympy symbols, and the numbers
    of its report: ``--json report --m 1`` less the chart it names."""

    def __init__(self, data, tmp_path):
        self.sympy = pytest.importorskip("sympy")
        self.data, self.tmp_path = data, tmp_path
        names = default_variables(data["ambient"][0])
        self.symbols = self.sympy.symbols(names)
        self.F = self.sympy.sympify(data["polynomial"].replace("^", "**"), locals=dict(zip(names, self.symbols)))
        self.chart = self.symbols[names.index(data["chart"])]
        self.numbers = self.report(self.F, self.chart)

    def report(self, F, chart):
        """The numbers of the report on F = 0 in the chart ``chart`` = 1;
        the report must name that chart."""
        text = str(self.sympy.expand(F)).replace("**", "^")
        path = self.tmp_path / f"scene-{len(list(self.tmp_path.iterdir()))}.json"
        path.write_text(json.dumps({**self.data, "polynomial": text, "chart": str(chart)}), encoding="utf-8")
        report = json.loads(json_report(path))
        assert report.pop("chart") == str(chart)
        return report


@pytest.fixture(scope="module", params=sorted(POLYNOMIAL_SCENES))
def scene(request, tmp_path_factory):
    return PolynomialScene(POLYNOMIAL_SCENES[request.param], tmp_path_factory.mktemp(request.param))


def test_there_are_six_polynomial_corpus_scenes():
    assert sum(name in CORPUS for name in POLYNOMIAL_SCENES) == 6


def test_permuting_the_variables_and_the_chart_keeps_every_number(scene):
    # Every rotation of the variables, and their reversal: each moves the
    # chart, so a chart read from the position of a variable is caught.
    symbols = scene.symbols
    images = [symbols[k:] + symbols[:k] for k in range(1, len(symbols))] + [symbols[::-1]]
    for image in images:
        renamed = dict(zip(symbols, image))
        F = scene.F.xreplace(renamed)
        assert scene.report(F, renamed[scene.chart]) == scene.numbers


def test_an_elementary_change_of_coordinates_keeps_every_number(scene):
    # x_i -> x_i + k x_j with x_i not the chart variable w leaves w, and
    # so each singular point's chart, where it was.
    rng = random.Random(str(scene.symbols) + scene.data["polynomial"])
    free = [s for s in scene.symbols if s != scene.chart]
    for _ in range(2):
        x_i = rng.choice(free)
        x_j = rng.choice([s for s in scene.symbols if s != x_i])
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        F = scene.F.xreplace({x_i: x_i + k * x_j})
        assert scene.report(F, scene.chart) == scene.numbers


@pytest.mark.parametrize("factor", [-1, 6])
def test_multiplying_the_equation_by_an_integer_keeps_every_number(scene, factor):
    assert scene.report(factor * scene.F, scene.chart) == scene.numbers


def test_every_chart_gives_the_same_numbers_once_it_holds_every_singular_point(scene):
    # x_i -> x_i + 2w for each x_i other than the chart variable w moves a
    # singular point p, with p_w = 1, to p_i - 2 in each x_i: no singular
    # point of a scene here has a coordinate 2, so each lands in every chart.
    w = scene.chart
    F = scene.F.xreplace({s: s + 2 * w for s in scene.symbols if s != w})
    for chart in scene.symbols:
        assert scene.report(F, chart) == scene.numbers
