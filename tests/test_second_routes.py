"""A ledger of second routes: for each number that ``report --json`` and
``milnor --json`` print, the tests that derive it without the ``src/``
function that computes it.

A route reaches its value by other means: a closed form, an oracle
written in the tests, sympy, another ideal, or the hand-worked Euler
numbers of the scene strata.  A test that only compares a value with a
literal is not a route.  A number with no route names its gap instead,
with the reason, and the count of gaps is pinned so that it can only
fall: a test that closes a gap lowers the pin.
"""

import ast
import functools
import json
import pathlib

from milnorcalc.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDENS = json.loads((ROOT / "perfbench" / "goldens" / "corpus.json").read_text(encoding="utf-8"))

TOTAL_MILNOR_ROUTES = [
    "tests/test_groebner.py::TestSympyOracle::test_total_matches_the_oracle",
    "tests/test_milnor_ideal.py::test_the_route_matches_each_polynomial_scene",
]

# The classes of the corpus reports, formed with sympy from the scene files.
REFERENCE_ROUTE = "tests/test_reference_report.py::test_every_class_matches_the_reference"

# Each number: a list of test ids (file::[class::]function, without
# parameters), or a gap, a string that says why no test derives it.
LEDGER = {
    "report": {
        "fulton_johnson": [
            "tests/test_charclasses.py::TestFultonJohnson::test_against_series_oracle",
            REFERENCE_ROUTE,
        ],
        "milnor_class": [REFERENCE_ROUTE],
        "csm": [REFERENCE_ROUTE],
        "euler": [
            "tests/test_cli.py::TestSmoothEuler::test_report_euler_matches_the_closed_form",
            "tests/test_charclasses.py::TestCorpusClasses::test_euler_agrees_with_strata_data",
            "tests/test_pencils.py::test_singular_members_match_the_euler_number_of_the_total_space",
            REFERENCE_ROUTE,
        ],
        "localization": [REFERENCE_ROUTE],
        "mu": "resolve_mu signs the total Milnor number onto one point; no test derives a point's local number (item 11)",
        "total_milnor": TOTAL_MILNOR_ROUTES,
    },
    "milnor": {
        "total_milnor": TOTAL_MILNOR_ROUTES
        + [
            "tests/test_milnor_ideal.py::test_one_power_is_not_enough_where_f_is_not_in_its_jacobian_ideal",
            "tests/test_milnor_ideal.py::test_the_route_matches_suspended_lines",
            "tests/test_milnor_ideal.py::test_the_route_counts_the_nodes_of_plane_curves",
            "tests/test_thom_sebastiani.py::test_suspended_lines_have_the_closed_form_total",
        ],
        "off_curve_dim": [
            "tests/test_groebner.py::TestMatrixCount::test_named_cases",
            "tests/test_groebner.py::test_matrix_count_matches_the_reference",
            "tests/test_thom_sebastiani.py::test_suspended_lines_have_the_closed_form_total",
        ],
    },
}

# Keys that are not computed numbers, and why.
NOT_NUMBERS = {
    "report": {
        "ambient": "the scene's own field, written back",
        "chart": "the scene's own field, written back",
        "degrees": "the scene's own field, written back",
        "name": "the scene file's name",
        "checks": "verdicts of identities between the numbers above (item 4)",
    },
    "milnor": {"chart": "the --chart argument, written back"},
}

GAPS = 1


@functools.cache
def defined_tests(path):
    """The ids of the test functions and methods that ``path`` defines."""
    ids = set()
    for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test"):
            ids.add(f"{path}::{node.name}")
        elif isinstance(node, ast.ClassDef) and node.name.startswith("Test"):
            ids.update(
                f"{path}::{node.name}::{method.name}"
                for method in node.body
                if isinstance(method, ast.FunctionDef) and method.name.startswith("test")
            )
    return ids


def test_every_key_of_report_json_is_in_the_ledger():
    keys = set().union(*(json.loads(text) for text in GOLDENS.values()))
    assert keys == LEDGER["report"].keys() | NOT_NUMBERS["report"].keys()


def test_every_key_of_milnor_json_is_in_the_ledger(capsys):
    assert main(["--json", "milnor", "--poly", "y^2*z - x^3", "--vars", "x,y,z", "--chart", "z"]) == 0
    keys = json.loads(capsys.readouterr().out).keys()
    assert keys == LEDGER["milnor"].keys() | NOT_NUMBERS["milnor"].keys()


def test_every_route_names_a_test_that_exists():
    for command, numbers in LEDGER.items():
        for key, routes in numbers.items():
            if isinstance(routes, str):
                continue
            assert routes, (command, key)
            for route in routes:
                assert route in defined_tests(route.split("::")[0]), (command, key, route)


def test_the_gaps_are_pinned():
    gaps = {(command, key) for command, numbers in LEDGER.items() for key, routes in numbers.items() if isinstance(routes, str)}
    assert len(gaps) == GAPS, sorted(gaps)
