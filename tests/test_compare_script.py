"""The comparison of ``scripts/compare_cli.py``, on made-up results."""

import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_compare():
    spec = importlib.util.spec_from_file_location("compare_script", ROOT / "scripts" / "compare_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(code=0, stdout="", stderr=""):
    return {"code": code, "stdout": stdout, "stderr": stderr}


def test_identical_results_have_no_difference():
    compare = load_compare()
    argvs = [["table"], ["milnor", "--poly", "x^2", "--vars", "x", "--chart", "x"]]
    results = [result(stdout="1\n2\n"), result(code=3, stderr="error: no\n")]
    assert compare.differences(argvs, results, [dict(r) for r in results]) == []


def test_each_differing_field_is_reported():
    compare = load_compare()
    argvs = [["report", "a.json"], ["table"], ["check", "b.json"]]
    parent = [
        result(stdout="euler: 1\nchecks:\n"),
        result(stdout="same\n"),
        result(code=0, stdout="ok\n"),
    ]
    change = [
        result(stdout="euler: 2\nchecks:\n"),
        result(stdout="same\n"),
        result(code=2, stderr="error: bad\n"),
    ]
    first, second = compare.differences(argvs, parent, change)
    assert first.splitlines()[0] == "$ milnorcalc report a.json"
    assert "    -euler: 1" in first.splitlines()
    assert "    +euler: 2" in first.splitlines()
    assert "exit code" not in first and "stderr" not in first
    assert second.splitlines()[0] == "$ milnorcalc check b.json"
    assert "  exit code: 0 -> 2" in second.splitlines()
    assert "    -ok" in second.splitlines()
    assert "    +error: bad" in second.splitlines()


def test_a_missing_result_is_an_error():
    compare = load_compare()
    with pytest.raises(ValueError, match="one result per invocation"):
        compare.differences([["table"]], [result()], [])


def test_every_scene_runs_every_form_at_every_m():
    compare = load_compare()
    argvs = compare.invocations(["a.json", "b.json"])
    reports = [
        argv for argv in argvs if argv[-3:-1] == ["a.json", "--m"] and argv[-1] in compare.M_VALUES
    ]
    assert len({tuple(argv) for argv in reports}) == len(reports) == 15
    assert ["--quiet", "check", "a.json", "--m", "3"] in reports
    assert ["--json", "milnor", "--poly", "x^2*y", "--vars", "x,y,z", "--chart", "z"] in argvs
    assert ["check", "a.json", "--checks", "frobnicate"] in argvs
    assert ["--json", "table"] in argvs


def test_a_checkout_runs_in_its_own_child():
    compare = load_compare()
    conic = str(ROOT / "scenes" / "smooth-conic.json")
    argvs = [["report", conic], ["check", conic, "--checks", "frobnicate"], ["frobnicate"]]
    report, bad_check, bad_command = compare.run_checkout(ROOT, argvs)
    assert report["code"] == 0 and "euler: 2" in report["stdout"].splitlines()
    assert bad_check == result(code=2, stderr="error: unknown check 'frobnicate'\n")
    assert bad_command["code"] == 2 and "invalid choice" in bad_command["stderr"]


def test_parser_rejections_come_before_the_scenes():
    compare = load_compare()
    argvs = compare.invocations(["a.json", "b.json"])
    first_scene = argvs.index(["report", "a.json", "--m", "1"])
    early = argvs[:first_scene]
    assert ["report"] in early and ["--help"] in early and ["report", "--help"] in early
    assert ["report", "a.json", "--m", "two"] in early
    assert ["milnor", "--vars", "x,y,z", "--chart", "z"] in early
    assert argvs[-1] == ["frobnicate"]


# A fragment of each message of the polynomial parser.
PARSER_MESSAGES = (
    "is listed more than once",
    "parentheses are not supported",
    "unexpected character",
    "expected '+' or '-' between terms",
    "expected an integer denominator",
    "denominator must be a positive integer",
    "implicit multiplication is not allowed",
    "expected a variable",
    "unknown variable",
    "negative exponent",
    "expected a positive integer exponent",
    "exponent must be a positive integer",
    "an integer with more than",
)


def test_milnor_cases_reach_every_parser_message():
    compare = load_compare()
    argvs = [["milnor", "--poly", p, "--vars", v, "--chart", c] for p, v, c in compare.MILNOR_CASES]
    errors = [r["stderr"] for r in compare.run_checkout(ROOT, argvs)]
    for message in PARSER_MESSAGES:
        assert any(message in error for error in errors), message
    assert "error: parentheses are not supported: expand products first (at position 4)\n" in errors


def test_milnor_cases_cover_the_groebner_engine():
    compare = load_compare()
    cases = compare.MILNOR_CASES
    argvs = compare.invocations(["a.json"])
    for poly, variables, chart in cases:
        assert ["--json", "milnor", "--poly", poly, "--vars", variables, "--chart", chart] in argvs
    # P^5: six variables, the widest layout.
    assert any(len(variables.split(",")) == 6 for _, variables, _ in cases)
    # A validation whose pure powers appear only after an S-pair.
    assert ("3*x^2*y + y^3 + z^3", "x,y,z", "z") in cases
    # A single exponent of 60 or more, and a coefficient of 20 to 99
    # digits, short of the int-string limit.
    assert any(int(e) >= 60 for poly, _, _ in cases for e in re.findall(r"\^(\d+)", poly))
    assert any(20 <= len(digits) < 100 for poly, _, _ in cases for digits in re.findall(r"\d+", poly))


LIMIT_MESSAGE = "error: exponents and degrees above 32767 are beyond the Groebner engine\n"


def test_over_limit_cases_are_listed_and_exit_2_in_this_checkout(tmp_path):
    # The limit is checked when the polynomial is parsed, before homogeneity.
    compare = load_compare()
    over = [case for case in compare.MILNOR_CASES if "^40000" in case[0]]
    assert ("x^40000 + y", "x,y,z", "z") in over and ("x^40000 + z^40000", "x,y,z", "z") in over
    scene = compare.INVALID_SCENES["over-limit-exponent"]
    assert scene["polynomial"] == "x^40000 + y^3"
    path = tmp_path / "over-limit-exponent.json"
    path.write_text(json.dumps(scene), encoding="utf-8")
    argvs = [["milnor", "--poly", p, "--vars", v, "--chart", c] for p, v, c in over] + [["report", str(path)]]
    assert compare.run_checkout(ROOT, argvs) == [result(code=2, stderr=LIMIT_MESSAGE)] * 3


def test_invalid_scenes_are_written_and_listed(tmp_path):
    compare = load_compare()
    paths = compare.scene_paths(ROOT, tmp_path)
    for name in compare.INVALID_SCENES:
        path = tmp_path / f"{name}.json"
        assert str(path) in paths
    assert f": {compare.LONG_DIGITS}\n" in (tmp_path / "long-number.json").read_text(encoding="utf-8")
    for name, text in compare.REPEATED_KEY_SCENES.items():
        path = tmp_path / f"{name}.json"
        assert str(path) in paths
        assert path.read_text(encoding="utf-8") == text + "\n"


def test_repeated_key_scenes_exit_2_in_this_checkout(tmp_path):
    compare = load_compare()
    paths = [tmp_path / f"{name}.json" for name in compare.REPEATED_KEY_SCENES]
    for path, text in zip(paths, compare.REPEATED_KEY_SCENES.values()):
        path.write_text(text, encoding="utf-8")
    results = compare.run_checkout(ROOT, [["report", str(path)] for path in paths])
    for result, key in zip(results, ("ambient", "p", "2")):
        assert result["code"] == 2
        assert f"the key {key!r} appears twice in one object" in result["stderr"]


# The exit code and message of each scene and polynomial that reaches an
# error no other input reaches; "{path}" stands for the scene file.
ERROR_SCENES = {
    "degree-on-a-point-factor": (
        2, "error: a multidegree must be nonzero on a factor P^n with n > 0: P^0 has no hypersurface\n",
    ),
    "polynomial-on-a-point": (
        2, "error: a multidegree must be nonzero on a factor P^n with n > 0: P^0 has no hypersurface\n",
    ),
    "polynomial-without-chart": (2, "error: a polynomial needs a chart variable\n"),
    "null-chart": (2, "error: chart must be a string\n"),
    "chart-without-polynomial": (2, "error: chart is only meaningful with a polynomial\n"),
    "duplicate-stratum-ids": (2, "error: duplicate stratum ids\n"),
    "unknown-parent": (2, "error: stratum 'p' lists unknown parent 'ghost'\n"),
    "text-dim": (2, "error: stratum 'p' dim: 'abc' is not an integer\n"),
    "fraction-dim": (2, "error: stratum 'p' dim: expected an integer\n"),
    "bool-dim": (2, "error: stratum 'p' dim: expected an integer\n"),
    "negative-ambient": (2, "error: factor dimensions must be nonnegative\n"),
    "two-closed-points": (
        2,
        "error: cannot place the computed vanishing cycles: the total Milnor number is 1,"
        " and the scene has 2 zero-dimensional strata, not one\n",
    ),
    "mu-with-two-degrees": (
        2, "error: nonzero mu needs a codimension-one scene, but this scene has 2 multidegrees\n",
    ),
    "curve-without-csm": (3, "error: stratum 'c' carries vanishing cycles but no csm class\n"),
    "dim-above-the-variety": (2, "error: stratum 'p': dim 5 is more than 1, the dim of the variety\n"),
    "point-under-a-point": (2, "error: stratum 'q': dim 0 is not below the dim of its parent 'p'\n"),
    # A self-parent and a cycle break the dim rule on some edge.
    "self-parent": (2, "error: stratum 'p': dim 0 is not below the dim of its parent 'p'\n"),
    "parent-cycle": (2, "error: stratum 'b': dim 1 is not below the dim of its parent 'a'\n"),
    "curve-with-point-class": (2, "error: stratum 'c': csm class is not effective and nonzero in codimension 1\n"),
    "closure-chi-mismatch": (2, "error: stratum 'p': closure_chi is 2 but the closure strata sum to 1\n"),
    "csm-degree-mismatch": (2, "error: stratum 'p': csm class has degree 2 but closure_chi is 1\n"),
    "csm-below-codimension": (2, "error: stratum 'p': csm class has a term in codimension 1, below 2\n"),
    "short-variables": (2, "error: variables must list one name per homogeneous coordinate\n"),
    "not-json": (
        2,
        "error: {path} is not valid JSON: Expecting property name enclosed in double quotes:"
        " line 2 column 1 (char 35)\n",
    ),
}
ERROR_POLYNOMIALS = {
    "0": (2, "error: zero polynomial\n"),
    "7": (2, "error: polynomial degree must be at least 1\n"),
}


def test_error_cases_are_listed_and_exit_with_their_message_in_this_checkout(tmp_path):
    compare = load_compare()
    paths = compare.scene_paths(ROOT, tmp_path)
    argvs = compare.invocations(paths)
    scenes = [str(tmp_path / f"{name}.json") for name in ERROR_SCENES]
    milnor = [["milnor", "--poly", poly, "--vars", "x,y,z", "--chart", "z"] for poly in ERROR_POLYNOMIALS]
    assert set(ERROR_SCENES) <= set(compare.INVALID_SCENES) | set(compare.MALFORMED_SCENES)
    for path in scenes:
        assert len([argv for argv in argvs if path in argv]) == 15
    assert all(argv in argvs and ["--json"] + argv in argvs for argv in milnor)
    expected = [
        result(code=code, stderr=message.format(path=path))
        for path, (code, message) in zip(scenes, ERROR_SCENES.values())
    ] + [result(code=code, stderr=message) for code, message in ERROR_POLYNOMIALS.values()]
    assert compare.run_checkout(ROOT, [["report", path] for path in scenes] + milnor) == expected


def test_layout_edge_scenes_are_written_and_run_in_every_form(tmp_path):
    compare = load_compare()
    paths = compare.scene_paths(ROOT, tmp_path)
    argvs = compare.invocations(paths)
    ambients = set()
    for name, data in compare.EDGE_SCENES.items():
        path = tmp_path / f"{name}.json"
        assert str(path) in paths
        assert json.loads(path.read_text(encoding="utf-8")) == data
        forms = [argv for argv in argvs if str(path) in argv]
        assert len({tuple(argv) for argv in forms}) == len(forms) == 15
        ambients.add(tuple(data["ambient"]))
    assert {(8, 1), (0, 3), (1, 1, 1, 1, 1), (7,)} <= ambients
    # The product factor P^m is added next to the narrowest and the widest field.
    assert {0, 8} <= {factors[-1] for factors in ambients if len(factors) > 1}
    assert any(len(data["degrees"]) == 2 and len(data["ambient"]) > 1 for data in compare.EDGE_SCENES.values())


def test_layout_edge_scenes_report_in_this_checkout(tmp_path):
    compare = load_compare()
    paths = [str(tmp_path / f"{name}.json") for name in compare.EDGE_SCENES]
    for path, data in zip(paths, compare.EDGE_SCENES.values()):
        pathlib.Path(path).write_text(json.dumps(data), encoding="utf-8")
    argvs = [["--json", "report", path, "--m", "3"] for path in paths]
    assert [r["code"] for r in compare.run_checkout(ROOT, argvs)] == [0] * len(paths)


def test_product_strata_scene_is_written_and_passes_in_this_checkout(tmp_path):
    compare = load_compare()
    paths = compare.scene_paths(ROOT, tmp_path)
    path = str(tmp_path / "strata-2-0-1.json")
    assert path in paths
    assert len([argv for argv in compare.invocations(paths) if path in argv]) == 15
    results = compare.run_checkout(ROOT, [["--json", "report", path, "--m", m] for m in compare.M_VALUES])
    for m, result in zip(compare.M_VALUES, results):
        report = json.loads(result["stdout"])
        assert result["code"] == 0
        assert report["ambient"] == [2, 0, 1] and report["milnor_class"]
        assert {entry["stratum"] for entry in report["localization"]} == {"curve", "point"}
        assert all(check["pass"] for check in report["checks"].values())
        assert {"euler_strata", f"lci_m{m}"} <= set(report["checks"])


def test_large_m_scenes_are_listed_and_pass_in_this_checkout(tmp_path):
    compare = load_compare()
    paths = compare.scene_paths(ROOT, tmp_path)
    large = compare.large_m_paths(paths)
    names = [pathlib.Path(path).name for path in large]
    assert set(names[:3]) == set(compare.LARGE_M_SCENES) and pathlib.Path(large[3]).parent.name == "chow"
    argvs = compare.invocations(paths, large)
    forms = [argv for argv in argvs if argv[-1] == compare.LARGE_M]
    assert forms == [argv for path in large for argv in (
        ["--json", "report", path, "--m", "9"], ["check", path, "--m", "9"],
    )]
    assert all(result["code"] == 0 for result in compare.run_checkout(ROOT, forms))


def test_boundary_scenes_are_pinned_and_run_in_this_checkout(tmp_path):
    compare = load_compare()
    assert compare.BOUNDARY_SCENES == {
        "degree-1e29.json": ({"ambient": [1], "degrees": [[10**29]], "smooth": True}, ["--json", "report"]),
        "degree-1e1500.json": ({"ambient": [3], "degrees": [["1" + "0" * 1500]], "smooth": True}, ["report"]),
    }
    argvs = compare.boundary_invocations(tmp_path)
    assert argvs == [
        ["--json", "report", str(tmp_path / "degree-1e29.json")],
        ["report", str(tmp_path / "degree-1e1500.json")],
    ]
    wide, long = compare.run_checkout(ROOT, argvs)
    assert wide["code"] == 0 and json.loads(wide["stdout"])["degrees"] == [[str(10**29)]]
    assert (long["code"], long["stdout"]) == (2, "") and "an integer of 4500 digits" in long["stderr"]


def test_many_strata_scenes_are_written_and_pass_in_this_checkout(tmp_path):
    compare = load_compare()
    argvs = compare.many_strata_invocations(tmp_path)
    scenes = compare.many_strata_scenes()
    assert [len(data["strata"]) for data in scenes.values()] == [301, 300]
    assert argvs == [
        argv
        for name in scenes
        for m in compare.M_VALUES
        for argv in (
            ["--json", "report", str(tmp_path / f"{name}.json"), "--m", m],
            ["check", str(tmp_path / f"{name}.json"), "--m", m],
        )
    ]
    for argv, result in zip(argvs, compare.run_checkout(ROOT, argvs)):
        assert result["code"] == 0, argv
        if argv[0] == "--json":
            report = json.loads(result["stdout"])
            assert all(check["pass"] for check in report["checks"].values())
            assert "euler_strata" in report["checks"] and len(report["localization"]) > 200


def test_warm_block_comes_last_and_is_answered_from_the_memo(tmp_path):
    # The block repeats inputs whose Milnor numbers were computed earlier
    # in the list, after every input that exits 2 or 3.
    compare = load_compare()
    # The whole list ends with the block; the script's docstring and the
    # README give its length.
    argvs = compare.all_invocations(tmp_path)
    warm = compare.warm_invocations(ROOT, tmp_path)
    assert argvs[-len(warm) :] == warm
    assert len(argvs) == 1637
    bare = str(tmp_path / "nodal-cubic-bare.json")
    assert json.loads(pathlib.Path(bare).read_text(encoding="utf-8")) == compare.NODAL_CUBIC
    corpus = sorted((ROOT / "scenes").glob("*.json"))
    milnor = [
        prefix + ["milnor", "--poly", poly, "--vars", variables, "--chart", chart]
        for poly, variables, chart in compare.WARM_MILNOR_CASES
        for prefix in ([], ["--json"])
    ]
    assert warm == (
        compare.scene_forms(bare)
        + [["--json", "report", str(scene), "--m", "1"] for scene in corpus]
        + milnor
    )
    assert len(compare.scene_forms(bare)) == 15
    assert {chart for _, _, chart in compare.WARM_MILNOR_CASES} == {"x", "y", "z"}
    # Cold, then warm in one child: every answer is the same.
    cold = compare.run_checkout(ROOT, warm)
    again = compare.run_checkout(ROOT, warm + warm)
    assert again[: len(warm)] == again[len(warm) :] == cold
    nodal, _, in_y, _, in_x, _, reordered, reordered_json = cold[-len(milnor) :]
    assert nodal == reordered == result(stdout="1\n")
    assert json.loads(reordered_json["stdout"]) == {"chart": "z", "off_curve_dim": 1, "total_milnor": 1}
    assert in_y == in_x == result(code=3, stderr="error: singularities outside the chart\n")
