"""Command-line interface, run in process through main(argv)."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

import milnorcalc.cli as cli
import milnorcalc.groebner as groebner
from milnorcalc.charclasses import CheckResult, build_report
from milnorcalc.chow import ChowClass
from milnorcalc.cli import main
from milnorcalc.groebner import MilnorResult, total_milnor_number
from milnorcalc.scenefile import load_scene

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENES = ROOT / "scenes"
GOLDENS = json.loads((ROOT / "perfbench" / "goldens" / "corpus.json").read_text(encoding="utf-8"))
NODAL = str(SCENES / "nodal-cubic.json")
CUSPIDAL = str(SCENES / "cuspidal-cubic.json")
CONIC = str(SCENES / "smooth-conic.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scene(tmp_path, data):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run_child(*argv):
    """main(argv) in a child process that limits its own address space to
    1 GB first: a budget that stops holding fails there, within the
    timeout, and never allocates in the test process.  Returns (code,
    stdout, stderr)."""
    program = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
        "from milnorcalc.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-B", "-c", program, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    return done.returncode, done.stdout, done.stderr


def assert_canonical(text):
    # canonical JSON re-serializes byte for byte
    body = text.rstrip("\n")
    assert json.dumps(json.loads(body), sort_keys=True, indent=2) == body
    return json.loads(body)


class TestReport:
    def test_text_output(self, capsys):
        code, out, err = run(capsys, "report", NODAL)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "scene: nodal-cubic"
        assert lines[1] == "ambient: P^2"
        assert lines[2] == "degrees: (3)"
        assert "total milnor number: 1 (chart z)" in lines
        assert "mu: node -> -1" in lines
        assert "fulton_johnson: 3H" in lines
        assert "milnor_class: -H^2" in lines
        assert "csm: 3H + H^2" in lines
        assert "euler: 1" in lines
        assert "  node: -H^2" in lines
        assert all(": FAIL" not in line for line in lines)
        assert any(line.startswith("  verdier_m1: pass") for line in lines)

    def test_json_output_is_canonical(self, capsys):
        code, out, err = run(capsys, "--json", "report", NODAL)
        assert code == 0
        payload = assert_canonical(out)
        assert payload["name"] == "nodal-cubic"
        assert payload["ambient"] == [2]
        assert payload["degrees"] == [[3]]
        assert payload["total_milnor"] == 1
        assert payload["chart"] == "z"
        assert payload["milnor_class"] == {"2": -1}
        assert payload["csm"] == {"1": 3, "2": 1}
        assert payload["euler"] == 1
        assert payload["mu"] == {"node": -1}
        assert payload["localization"] == [{"class": {"2": -1}, "stratum": "node"}]
        assert payload["checks"]["verdier_m1"] == {"pass": True}

    @pytest.mark.parametrize("key", sorted(GOLDENS), ids=lambda key: key.replace(".json --m ", "-m"))
    def test_json_matches_corpus_golden(self, key, capsys):
        # The goldens hold the byte-exact stdout of every corpus report
        # at m = 1, 2, 3; keys read "<scene file> --m <m>".  Each is served
        # twice: with no Milnor number kept, then with this one kept.
        scene_file, m = key.split(" --m ")
        total_milnor_number.cache_clear()
        for _ in range(2):
            code, out, err = run(capsys, "--json", "report", str(SCENES / scene_file), "--m", m)
            assert code == 0, err
            assert out == GOLDENS[key]

    def test_goldens_cover_the_corpus(self):
        expected = {f"{p.name} --m {m}" for p in SCENES.glob("*.json") for m in (1, 2, 3)}
        assert set(GOLDENS) == expected

    def test_m_flag_changes_check_names(self, capsys):
        code, out, _ = run(capsys, "--json", "report", NODAL, "--m", "3")
        payload = assert_canonical(out)
        assert "verdier_m3" in payload["checks"]
        assert "verdier_m1" not in payload["checks"]

    def test_quiet_suppresses_output(self, capsys):
        code, out, err = run(capsys, "--quiet", "report", NODAL)
        assert code == 0 and out == "" and err == ""

    def test_json_degrees_beyond_64_bits_are_strings(self, tmp_path, capsys):
        # The 64-bit rule holds for every integer, the degrees included.
        path = write_scene(tmp_path, {"ambient": [1], "degrees": [[10**29]], "smooth": True})
        code, out, _ = run(capsys, "--json", "report", path)
        payload = assert_canonical(out)
        assert code == 0
        assert payload["degrees"] == [[str(10**29)]]
        assert payload["csm"] == {"1": str(10**29)} and payload["euler"] == str(10**29)

    def test_failed_text_report_writes_nothing_to_stdout(self, tmp_path, capsys):
        # The header lines can be written, but the classes of degree
        # 10^1500 in P^3 have coefficients of 4,500 digits.
        path = write_scene(tmp_path, {"ambient": [3], "degrees": [["1" + "0" * 1500]], "smooth": True})
        code, out, err = run(capsys, "report", path)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (2, "")
        assert err == f"error: an integer of 4500 digits, over the {limit}-digit limit for writing it\n"

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "report", str(SCENES / "absent.json"))
        assert code == 2
        assert err.startswith("error: cannot read")

    def test_invalid_scene(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"ambient": [2]}', encoding="utf-8")
        code, _, err = run(capsys, "report", str(path))
        assert code == 2
        assert "missing field: degrees" in err

    def test_mu_on_complete_intersection_rejected(self, tmp_path, capsys):
        # Two multidegrees give no Milnor class, so this mu would be dropped.
        path = write_scene(tmp_path, {
            "ambient": [3],
            "degrees": [[2], [2]],
            "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}],
            "mu": {"p": -5},
        })
        for argv in (["report", path], ["check", path]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "nonzero mu needs a codimension-one scene" in err

    def test_m_below_one_rejected_on_complete_intersection(self, tmp_path, capsys):
        # Such a scene has no product checks, but --m is still checked.
        path = write_scene(tmp_path, {"ambient": [3], "degrees": [[2], [2]], "smooth": True})
        for command in ("report", "check"):
            for m in ("0", "-3"):
                code, out, err = run(capsys, command, path, "--m", m)
                assert code == 2 and out == ""
                assert err == "error: the product factor dimension must be at least 1\n"

    def test_m_below_one_rejected_before_milnor_numbers(self, tmp_path, monkeypatch, capsys):
        def engine(*args, **kwargs):
            raise AssertionError("the Milnor number was computed before --m was checked")

        monkeypatch.setattr(groebner, "total_milnor_number", engine)
        data = json.loads(pathlib.Path(NODAL).read_text())
        del data["strata"]
        code, out, err = run(capsys, "report", write_scene(tmp_path, data), "--m", "0")
        assert code == 2 and out == ""
        assert err == "error: the product factor dimension must be at least 1\n"

    def test_polynomial_scene_with_two_degrees_rejected(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3], [2]],
            "polynomial": "y^2*z - x^3 - x^2*z",
            "chart": "z",
        })
        code, out, err = run(capsys, "report", path)
        assert code == 2 and out == ""
        assert "this operation needs a codimension-one scene" in err

    # A conic with a second multidegree: with strata it used to report the
    # conic's Milnor number beside the class of a complete intersection.
    TWO_DEGREE_CONIC = {
        "ambient": [2],
        "degrees": [[2], [1]],
        "polynomial": "x^2 + y^2 + z^2",
        "chart": "z",
        "strata": [{"id": "a", "dim": 0, "chi_c": 2, "closure_chi": 2}],
    }

    def test_polynomial_scene_with_two_degrees_and_strata_rejected(self, tmp_path, capsys):
        code, out, err = run(capsys, "report", write_scene(tmp_path, self.TWO_DEGREE_CONIC))
        assert (code, out) == (2, "")
        assert err == "error: this operation needs a codimension-one scene\n"

    def test_two_degrees_rejected_before_milnor_numbers(self, tmp_path, monkeypatch, capsys):
        def engine(*args, **kwargs):
            raise AssertionError("the Milnor number was computed for a scene with two degrees")

        monkeypatch.setattr(groebner, "total_milnor_number", engine)
        without_strata = {k: v for k, v in self.TWO_DEGREE_CONIC.items() if k != "strata"}
        for data in (self.TWO_DEGREE_CONIC, without_strata):
            code, out, err = run(capsys, "report", write_scene(tmp_path, data))
            assert (code, out) == (2, "")
            assert err == "error: this operation needs a codimension-one scene\n"

    def test_repeated_variable_rejected(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3]],
            "polynomial": "x^3 + x^2*z + z^3",
            "variables": ["x", "x", "z"],
            "chart": "z",
        })
        code, out, err = run(capsys, "report", path)
        assert code == 2 and out == ""
        assert err == "error: bad polynomial: variable 'x' is listed more than once\n"

    def test_negative_multidegree_entry_rejected(self, tmp_path, capsys):
        path = write_scene(tmp_path, {"ambient": [2], "degrees": [[-3]], "smooth": True})
        code, out, err = run(capsys, "report", path)
        assert (code, out, err) == (2, "", "error: multidegree entries must be nonnegative\n")

    def test_negative_dim_rejected(self, tmp_path, capsys):
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3]],
            "strata": [{"id": "p", "dim": -4, "chi_c": 1, "closure_chi": 1}],
            "mu": {"p": 1},
        })
        code, out, err = run(capsys, "report", path)
        assert (code, out, err) == (2, "", "error: stratum 'p': dim must be nonnegative\n")

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_integer_over_the_digit_limit(self, tmp_path, capsys, quote):
        # As a JSON number the file is named; as a string, the field.
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        digits = quote + "9" * (limit + 1) + quote
        path.write_text(
            '{"ambient": [2], "degrees": [[3]], "mu": {"p": %s},'
            ' "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}]}' % digits,
            encoding="utf-8",
        )
        code, out, err = run(capsys, "report", str(path))
        where = "mu['p']" if quote else str(path)
        assert (code, out, err) == (2, "", f"error: {where}: an integer with more than {limit} digits\n")

    def test_csm_keys_naming_one_exponent_rejected(self, tmp_path, capsys):
        # Before, the last of "01" and "1" was kept silently.
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3]],
            "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"2": 1, "02": 5}}],
            "mu": {"p": 1},
        })
        code, out, err = run(capsys, "report", path)
        assert (code, out) == (2, "")
        assert err == "error: stratum 'p': exponent keys '2' and '02' name the same exponent\n"

    @pytest.mark.parametrize(
        "repeated, key",
        [
            ('"ambient": [3], "ambient": [2], "smooth": true', "ambient"),
            ('"mu": {"p": 1, "p": 2}, "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}]', "p"),
            (
                '"mu": {"p": 1}, "strata":'
                ' [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"2": 5, "2": 1}}]',
                "2",
            ),
        ],
        ids=["ambient", "mu", "csm"],
    )
    def test_repeated_key_rejected(self, tmp_path, capsys, repeated, key):
        # Before, the last value of a repeated key was kept silently and
        # each of these reported with exit 0.
        path = tmp_path / "repeated.json"
        path.write_text('{"ambient": [2], "degrees": [[3]], %s}' % repeated, encoding="utf-8")
        code, out, err = run(capsys, "report", str(path))
        assert (code, out, err) == (2, "", f"error: {path}: the key {key!r} appears twice in one object\n")

    def test_csm_key_over_the_digit_limit_is_not_echoed(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3]],
            "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"9" * 5000: 1}}],
            "mu": {"p": 1},
        })
        code, out, err = run(capsys, "report", path)
        assert (code, out) == (2, "")
        assert err == f"error: stratum 'p': an exponent key of 5000 characters, over the {limit}-digit limit\n"

    def test_polynomial_literal_over_the_digit_limit(self, tmp_path, capsys):
        limit = sys.get_int_max_str_digits()
        path = write_scene(tmp_path, {
            "ambient": [2],
            "degrees": [[3]],
            "polynomial": "y^2*z - x^3 - %s*x^2*z" % ("9" * (limit + 1)),
            "chart": "z",
        })
        code, out, err = run(capsys, "report", path)
        assert (code, out) == (2, "")
        assert err == f"error: bad polynomial: an integer with more than {limit} digits (at position 14)\n"


class TestCheck:
    def test_all_checks_pass(self, capsys):
        code, out, err = run(capsys, "check", NODAL)
        assert code == 0
        assert out.splitlines() == [
            "verdier_m1: pass",
            "defect_codim1: pass",
            "pushdown_m1: pass",
            "lci_m1: pass",
            "euler_strata: pass  (strata give 1, classes give 1)",
        ]

    def test_selected_checks(self, capsys):
        code, out, _ = run(capsys, "check", NODAL, "--checks", "verdier,lci", "--m", "2")
        assert code == 0
        assert out.splitlines() == ["verdier_m2: pass", "lci_m2: pass"]

    def test_aliases(self, capsys):
        code, out, _ = run(capsys, "check", NODAL, "--checks", "verdier_smooth,defect_codim1")
        assert code == 0
        assert out.splitlines() == ["verdier_m1: pass", "defect_codim1: pass"]

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "--json", "check", NODAL, "--checks", "pushdown")
        payload = assert_canonical(out)
        assert payload == {"pushdown_m1": {"pass": True}}

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "check", NODAL, "--checks", "frobnicate")
        assert code == 2
        assert "unknown check 'frobnicate'" in err

    def test_an_empty_selection_is_refused(self, capsys):
        # An empty name is unknown, as it is inside a list: it never selects all.
        for selection in ("", ","):
            assert run(capsys, "check", NODAL, "--checks", selection) == (2, "", "error: unknown check ''\n")

    def test_unknown_check_rejected_before_report(self, monkeypatch, capsys):
        def no_report(*args, **kwargs):
            raise AssertionError("build_report ran for a misspelt check name")

        monkeypatch.setattr(cli, "build_report", no_report)
        code, _, err = run(capsys, "check", NODAL, "--checks", "defect,frobnicate")
        assert code == 2
        assert "unknown check 'frobnicate'" in err

    def test_every_shipped_scene_passes(self, capsys):
        for path in sorted(SCENES.glob("*.json")):
            code, _, err = run(capsys, "--quiet", "check", str(path))
            assert code == 0, f"{path.name}: {err}"

    def test_failed_check_exits_one(self, monkeypatch, capsys):
        # The identity checks hold for arbitrary scene data, so a
        # doctored report stands in for an arithmetic regression.
        scene, mu = load_scene(NODAL)
        report = build_report(scene, mu)
        report.checks["verdier_m1"] = CheckResult(
            name="verdier_m1",
            passed=False,
            residual=ChowClass.point(report.scene.ambient),
        )
        monkeypatch.setattr(cli, "build_report", lambda *a, **k: report)
        code, out, _ = run(capsys, "check", NODAL)
        assert code == 1
        assert "verdier_m1: FAIL  residual: H^2" in out

    def test_failed_check_json(self, monkeypatch, capsys):
        scene, mu = load_scene(NODAL)
        report = build_report(scene, mu)
        report.checks["lci_m1"] = CheckResult(
            name="lci_m1",
            passed=False,
            residual=ChowClass.point(report.scene.ambient),
        )
        monkeypatch.setattr(cli, "build_report", lambda *a, **k: report)
        code, out, _ = run(capsys, "--json", "check", NODAL, "--checks", "lci")
        assert code == 1
        payload = assert_canonical(out)
        assert payload["lci_m1"]["pass"] is False
        assert payload["lci_m1"]["residual"] == {"2": 1}

    def test_euler_strata_can_fail(self, tmp_path, capsys):
        # Strata of the nodal cubic with a wrong node value: the classes
        # give euler 2 while the strata give 1.
        data = json.loads(pathlib.Path(NODAL).read_text())
        del data["polynomial"], data["chart"]
        data["mu"] = {"node": -2}
        path = tmp_path / "wrong-mu.json"
        path.write_text(json.dumps(data))
        detail = "(strata give 1, classes give 2)"
        code, out, _ = run(capsys, "report", str(path))
        assert code == 0
        assert f"  euler_strata: FAIL  {detail}" in out.splitlines()
        for name in ("euler_strata", "euler"):
            code, out, _ = run(capsys, "check", str(path), "--checks", name)
            assert code == 1
            assert out.splitlines() == [f"euler_strata: FAIL  {detail}"]
        code, out, _ = run(capsys, "--json", "check", str(path), "--checks", "euler_strata")
        assert code == 1
        assert assert_canonical(out) == {
            "euler_strata": {"pass": False, "detail": "strata give 1, classes give 2"}
        }
        # The default selection, all, runs euler_strata whenever the report has it.
        code, out, _ = run(capsys, "check", str(path))
        assert code == 1
        assert out.splitlines()[-1] == f"euler_strata: FAIL  {detail}"

    def test_all_checks_fail_on_strata_that_disagree_with_the_classes(self, tmp_path, capsys):
        # A curve stratum whose csm class has degree 2 while its chi_c is 1:
        # every scene rule holds, and only euler_strata can see the fault.
        curve = {"id": "c", "dim": 1, "chi_c": 1, "closure_chi": 1, "csm": {"1": 1, "2": 1}}
        path = write_scene(tmp_path, {"ambient": [2], "degrees": [[3]], "strata": [curve], "mu": {"c": 1}})
        code, out, _ = run(capsys, "report", path)
        assert code == 0 and "  euler_strata: FAIL  (strata give 1, classes give 2)" in out.splitlines()
        for argv in (["check", path], ["check", path, "--checks", "all"], ["--quiet", "check", path]):
            code, out, _ = run(capsys, *argv)
            assert code == 1
        code, out, _ = run(capsys, "--json", "check", path)
        assert code == 1
        payload = assert_canonical(out)
        assert sorted(payload) == ["defect_codim1", "euler_strata", "lci_m1", "pushdown_m1", "verdier_m1"]
        assert payload["euler_strata"] == {"pass": False, "detail": "strata give 1, classes give 2"}

    def test_check_needing_one_multidegree_is_not_passed(self, tmp_path, capsys):
        path = write_scene(tmp_path, {"ambient": [3], "degrees": [[2], [2]], "smooth": True})
        for selection, name in ((None, "all"), ("defect", "defect"), ("all", "all")):
            argv = ["check", path] + (["--checks", selection] if selection else [])
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert f"check {name!r} does not apply to this scene: it needs one multidegree" in err
            # "all" also applies through euler_strata, and says so.
            assert err.endswith(", or strata with chi_c on every stratum\n") == (name == "all")

    def test_euler_strata_needs_chi_c_data(self, tmp_path, capsys):
        data = json.loads(pathlib.Path(NODAL).read_text())
        del data["strata"]
        path = write_scene(tmp_path, data)
        code, out, err = run(capsys, "check", path, "--checks", "euler_strata")
        assert code == 2 and out == ""
        assert "check 'euler_strata' does not apply to this scene" in err
        assert "chi_c on every stratum" in err


class TestMilnor:
    def test_plain_total(self, capsys):
        code, out, _ = run(capsys, "milnor", "--poly", "y^2*z - x^3", "--vars", "x,y,z", "--chart", "z")
        assert code == 0
        assert out == "2\n"

    def test_json(self, capsys):
        code, out, _ = run(
            capsys, "--json", "milnor", "--poly", "y^2*z - x^3 - x^2*z",
            "--vars", "x,y,z", "--chart", "z",
        )
        payload = assert_canonical(out)
        assert payload == {"chart": "z", "off_curve_dim": 1, "total_milnor": 1}

    def test_json_integers_beyond_64_bits_are_strings(self, monkeypatch, capsys):
        # milnor passes cancel as report and check do, so all three share stored results.
        def engine(F, chart, cancel):
            return MilnorResult(2**63, "z", -(2**63))

        monkeypatch.setattr(groebner, "total_milnor_number", engine)
        code, out, _ = run(capsys, "--json", "milnor", "--poly", "x^2", "--vars", "x,y,z", "--chart", "z")
        payload = assert_canonical(out)
        assert code == 0
        assert payload == {"chart": "z", "off_curve_dim": -(2**63), "total_milnor": str(2**63)}

    def test_smooth_gives_zero(self, capsys):
        code, out, _ = run(capsys, "milnor", "--poly", "x^2 + y^2 + z^2", "--vars", "x,y,z", "--chart", "z")
        assert code == 0 and out == "0\n"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "x^2 +", "--vars", "x,y,z", "--chart", "z")
        assert code == 2
        assert err.startswith("error:")

    def test_degree_beyond_the_engine_exits_2(self, capsys):
        # Packed monomials hold exponents and degrees up to 32,767.
        code, out, err = run(capsys, "milnor", "--poly", "x^40000 + z^40000", "--vars", "x,z", "--chart", "z")
        assert (code, out) == (2, "")
        assert err == "error: exponents and degrees above 32767 are beyond the Groebner engine\n"

    def test_parentheses_are_named(self, capsys):
        code, _, err = run(
            capsys, "milnor", "--poly", "(y^2*z - x^3)*(y - z)", "--vars", "x,y,z", "--chart", "z"
        )
        assert code == 2
        assert "parentheses are not supported: expand products" in err
        assert "position 0" in err

    @pytest.mark.parametrize(
        "poly, position", [("2²*x^3 + y^3 + z^3", 1), ("x^² + y^2", 2), ("٣*x", 0)]
    )
    def test_non_ascii_digits_are_unexpected_characters(self, capsys, poly, position):
        code, out, err = run(capsys, "milnor", "--poly", poly, "--vars", "x,y,z", "--chart", "z")
        assert (code, out) == (2, "")
        assert err == f"error: unexpected character {poly[position]!r} (at position {position})\n"

    def test_literal_over_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        poly = "9" * (limit + 1) + "*x^2 + y^2 + z^2"
        code, out, err = run(capsys, "milnor", "--poly", poly, "--vars", "x,y,z", "--chart", "z")
        assert (code, out) == (2, "")
        assert err == f"error: an integer with more than {limit} digits (at position 0)\n"

    def test_unknown_chart(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "x^2 + y^2 + z^2", "--vars", "x,y,z", "--chart", "t")
        assert code == 2
        assert "chart 't' is not one of the variables x, y, z" in err
        assert "tuple.index" not in err

    def test_inhomogeneous(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "x^2 + y", "--vars", "x,y,z", "--chart", "z")
        assert code == 2
        assert "homogeneous" in err

    def test_non_isolated_is_a_math_error(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "x^2*y", "--vars", "x,y,z", "--chart", "z")
        assert code == 3
        assert "non-isolated singularities" in err

    def test_singular_outside_chart(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "y^2*z - x^3", "--vars", "x,y,z", "--chart", "y")
        assert code == 3
        assert "outside the chart" in err

    @pytest.mark.parametrize(
        "poly, chart",
        [
            # The singular locus is the whole line z = 0.
            ("z^2", "z"),
            # Two of the three nodes, (1:0:0) and (0:1:0), lie on z = 0.
            ("x*y*z", "z"),
            # The cusp at (0:0:1) lies on y = 0.
            ("y^2*z - x^3", "y"),
        ],
    )
    def test_singularities_on_the_removed_hyperplane(self, capsys, poly, chart):
        for json_flag in ([], ["--json"]):
            code, out, err = run(
                capsys, *json_flag, "milnor", "--poly", poly, "--vars", "x,y,z", "--chart", chart
            )
            assert (code, out, err) == (3, "", "error: singularities outside the chart\n")

    def test_chart_leaves_no_variable(self, capsys):
        # x^2 = 0 is empty in P^0.  Restricting the partials to x = 0
        # leaves no variable, and the quotient k is finite.
        code, out, err = run(capsys, "milnor", "--poly", "x^2", "--vars", "x", "--chart", "x")
        assert (code, out, err) == (0, "0\n", "")
        code, out, err = run(capsys, "--json", "milnor", "--poly", "x^2", "--vars", "x", "--chart", "x")
        assert code == 0 and err == ""
        assert assert_canonical(out) == {"chart": "x", "off_curve_dim": 0, "total_milnor": 0}

    def test_empty_vars(self, capsys):
        code, _, err = run(capsys, "milnor", "--poly", "x^2", "--vars", " , ", "--chart", "x")
        assert code == 2

    def test_repeated_variable_rejected(self, capsys):
        # A repeated name would leave a coordinate out of the polynomial
        # and be reported as a non-isolated singularity (exit 3).
        code, out, err = run(
            capsys, "milnor", "--poly", "y^2*z - x^3", "--vars", "x,y,z,z", "--chart", "z"
        )
        assert code == 2 and out == ""
        assert err == "error: variable 'z' is listed more than once\n"


class TestSizeBudget:
    """Inputs over a size limit exit 2 in the user's terms, before the
    classes or layouts of their size are built."""

    BOX = "the Chow ring of {} has more than 400000 coefficients, the most a class may hold"
    VARIABLES = "error: a polynomial in 20001 variables is over the limit of 1000 variables\n"

    def test_box_over_the_limit(self, tmp_path, capsys):
        # P^40 to the fourth, 2,825,761 positions: a MemoryError before.
        path = write_scene(tmp_path, {"ambient": [40, 40, 40, 40], "degrees": [[1, 1, 1, 1]], "smooth": True})
        code, out, err = run(capsys, "report", path)
        assert (code, out) == (2, "")
        assert err == "error: " + self.BOX.format("P^40 x P^40 x P^40 x P^40") + "\n"

    def test_product_box_over_the_limit(self, capsys):
        for command in ("report", "check"):
            code, out, err = run(capsys, command, NODAL, "--m", "99999999999")
            assert (code, out) == (2, "")
            assert err == "error: " + self.BOX.format("P^2 x P^99999999999") + "\n"

    def test_variables_over_the_limit(self, tmp_path, capsys):
        path = write_scene(tmp_path, {"ambient": [20000], "degrees": [[1]], "polynomial": "x0", "chart": "x0"})
        code, out, err = run(capsys, "report", path)
        assert (code, out, err) == (2, "", self.VARIABLES)
        names = ",".join(f"x{i}" for i in range(20001))
        code, out, err = run(capsys, "milnor", "--poly", "x0^2", "--vars", names, "--chart", "x0")
        assert (code, out, err) == (2, "", self.VARIABLES)

    def test_variables_over_the_limit_before_a_default_name(self, tmp_path):
        # One default name per coordinate used to come first: 10^20 + 1 of
        # them, a MemoryError under the child's limit.
        path = write_scene(tmp_path, {"ambient": [10**20], "degrees": [[1]], "polynomial": "x", "chart": "x"})
        count = 10**20 + 1
        message = f"error: a polynomial in {count} variables is over the limit of 1000 variables\n"
        assert run_child("report", path) == (2, "", message)

    def test_table_refused_before_its_loop(self):
        # P^1, P^2, ... used to be computed before P^400000 was refused.
        message = "error: " + self.BOX.format("P^400000") + "\n"
        assert run_child("table", "--nmax", "400000", "--dmax", "1") == (2, "", message)
        bits = "error: the tangent class of P^7000 may need 49014001 bits, more than the 40000000 a class may hold\n"
        assert run_child("--json", "table", "--nmax", "7000", "--dmax", "1") == (2, "", bits)

    def test_table_refused_over_its_steps(self):
        # Inside the box and bit limits, the first two would run for 20 s and
        # for minutes; 80 x 501 is just over the budget.
        for nmax, dmax in ((4000, 1), (1, 10**7), (80, 501)):
            steps = nmax * dmax * (nmax + 20)
            message = (
                f"error: a table with --nmax {nmax} and --dmax {dmax} takes {steps} steps, "
                "nmax * dmax * (nmax + 20), more than the 4000000 a table may take\n"
            )
            assert run_child("table", "--nmax", str(nmax), "--dmax", str(dmax)) == (2, "", message)

    def test_table_at_its_steps_budget_runs(self):
        # 80 x 500 x (80 + 20) is the budget exactly: about a second.
        assert run_child("--quiet", "table", "--nmax", "80", "--dmax", "500") == (0, "", "")

    def test_one_large_factor_refused_by_its_bits(self, tmp_path):
        # Inside the box limit, but with binomials of up to 72,448 bits at
        # each position: a MemoryError under the child's limit before.
        path = write_scene(tmp_path, {"ambient": [72447], "degrees": [[4]], "smooth": True})
        bits = "may need 5248712704 bits, more than the 40000000 a class may hold\n"
        assert run_child("--json", "report", path) == (2, "", "error: the tangent class of P^72447 " + bits)
        # --m 6400 on a plane curve ran before; 3,648 is the last m inside the budget.
        bits = "may need 122976012 bits, more than the 40000000 a class may hold\n"
        assert run_child("check", NODAL, "--m", "6400") == (2, "", "error: the tangent class of P^2 x P^6400 " + bits)


class TestStratumDims:
    """Two rules on stratum dims, each on a nodal-cubic scene that breaks no other rule."""

    def nodal(self, strata):
        data = json.loads(pathlib.Path(NODAL).read_text(encoding="utf-8"))
        return {**data, "strata": strata}

    def test_a_dim_above_the_curve_is_refused(self, tmp_path, capsys):
        strata = [{"id": "smooth_part", "dim": 5, "chi_c": 0, "closure_chi": 1}]
        strata.append({"id": "node", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": ["smooth_part"]})
        code, out, err = run(capsys, "report", write_scene(tmp_path, self.nodal(strata)))
        assert (code, out) == (2, "")
        assert err == "error: stratum 'smooth_part': dim 5 is more than 1, the dim of the variety\n"

    def test_a_child_with_its_parents_dim_is_refused(self, tmp_path, capsys):
        strata = [{"id": "smooth_part", "dim": 1, "chi_c": -1, "closure_chi": 1}]
        strata.append({"id": "arc", "dim": 1, "chi_c": 1, "closure_chi": 2, "parents": ["smooth_part"]})
        strata.append({"id": "node", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": ["arc"]})
        code, out, err = run(capsys, "--json", "check", write_scene(tmp_path, self.nodal(strata)))
        assert (code, out) == (2, "")
        assert err == "error: stratum 'arc': dim 1 is not below the dim of its parent 'smooth_part'\n"


class TestTable:
    def test_text_grid(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "chi of a smooth degree-d hypersurface in P^n"
        assert lines[1].split() == ["n\\d", "1", "2", "3", "4"]
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
        assert rows["2"] == ["2", "2", "0", "-4"]
        assert rows["3"] == ["3", "4", "9", "24"]
        assert rows["4"] == ["4", "4", "-6", "-56"]

    def test_json_values(self, capsys):
        code, out, _ = run(capsys, "--json", "table", "--nmax", "3", "--dmax", "5")
        payload = assert_canonical(out)
        assert payload["nmax"] == 3 and payload["dmax"] == 5
        assert payload["chi"]["1,4"] == 4
        assert payload["chi"]["2,3"] == 0
        assert payload["chi"]["3,5"] == 55
        assert len(payload["chi"]) == 15

    def test_json_integers_beyond_64_bits_are_strings(self, capsys):
        code, out, _ = run(capsys, "--json", "table", "--nmax", "20", "--dmax", "20")
        chi = assert_canonical(out)["chi"]
        assert code == 0
        assert chi["20,20"] == "-35710474784668660283687800"
        assert chi["2,2"] == 2

    def test_line_row_counts_points(self, capsys):
        # chi of d points in P^1 is d
        code, out, _ = run(capsys, "--json", "table", "--nmax", "1", "--dmax", "6")
        payload = assert_canonical(out)
        assert [payload["chi"][f"1,{d}"] for d in range(1, 7)] == [1, 2, 3, 4, 5, 6]

    def test_bad_bounds(self, capsys):
        code, _, err = run(capsys, "table", "--nmax", "0")
        assert code == 2
        assert "at least 1" in err


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_parser_is_built_once(self, monkeypatch, capsys):
        main(["table"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["report", NODAL], ["--json", "table"], ["--quiet", "check", CONIC]):
            main(argv)
        capsys.readouterr()
        assert built == []

    def test_calls_leak_nothing_into_later_calls(self, tmp_path, capsys):
        # Each call of a mixed sequence, run after the others on the
        # shared parser and Milnor memo, prints and returns what it does
        # in a fresh process.  The nodal cubic without strata shares its
        # polynomial and chart with NODAL, so its later calls read the
        # Milnor number that an earlier call computed.
        data = json.loads(pathlib.Path(NODAL).read_text())
        del data["strata"]
        bare = write_scene(tmp_path, data)
        sequence = [
            ["--json", "report", bare],
            ["--json", "report", NODAL],
            ["report", NODAL],
            ["--quiet", "check", NODAL],
            ["--json", "milnor", "--poly", "y^2*z - x^3 - x^2*z", "--vars", "x,y,z", "--chart", "z"],
            ["table"],
            ["report"],
            ["report", NODAL],
            ["report", bare],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        def fresh():
            cli._parser.cache_clear()
            total_milnor_number.cache_clear()

        alone = []
        for argv in sequence:
            fresh()
            alone.append(outcome(argv))
        fresh()
        together = [outcome(argv) for argv in sequence]
        assert together == alone
        assert alone[6][0] == 2 and "the following arguments are required: scene" in alone[6][2]
        assert alone[3] == (0, "", "")
        assert "total milnor number: 1 (chart z)" in alone[-1][1]
        assert json.loads(alone[0][1])["mu"] == {"singular_points": -1}


def run_into_closed_pipe(*argv, closed="stdout"):
    """``python -m milnorcalc.cli argv`` with the stream ``closed`` a pipe
    whose reading end is closed before the child starts, so that its first
    write fails as under ``| head`` once head has gone.  Returns the exit
    code and what the child wrote to its other stream."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write}
    try:
        done = subprocess.run(
            [sys.executable, "-B", "-m", "milnorcalc.cli", *argv], **streams, text=True, env=env, timeout=60
        )
    finally:
        os.close(write)
    return done.returncode, done.stdout if closed == "stderr" else done.stderr


class TestClosedStdout:
    # A reader that closes stdout early leaves no traceback, and the exit
    # code stays the command's own: 1 is kept for a failed check.
    def test_a_command_that_succeeds_exits_0(self):
        assert run_into_closed_pipe("table") == (0, "")
        assert run_into_closed_pipe("table", "--nmax", "60", "--dmax", "60") == (0, "")
        assert run_into_closed_pipe("--json", "report", str(SCENES / "one-nodal-quartic-surface.json"), "--m", "3") == (0, "")

    def test_a_failed_check_still_exits_1(self, tmp_path):
        # The euler-mismatch scene of scripts/compare_cli.py.
        curve = {"id": "c", "dim": 1, "chi_c": 1, "closure_chi": 1, "csm": {"1": 1, "2": 1}}
        path = write_scene(tmp_path, {"ambient": [2], "degrees": [[3]], "strata": [curve], "mu": {"c": 1}})
        assert run_into_closed_pipe("check", path) == (1, "")
        assert run_into_closed_pipe("--json", "check", path) == (1, "")


class TestClosedStderr:
    # A reader that closes stderr early leaves the error's exit code as it
    # is: neither 2 nor 3 turns into 1, the code of a failed check.
    def test_invalid_input_still_exits_2(self):
        assert run_into_closed_pipe("report", str(ROOT / "no-such-scene.json"), closed="stderr") == (2, "")
        assert run_into_closed_pipe("check", NODAL, "--checks", "frobnicate", closed="stderr") == (2, "")

    def test_an_obstruction_still_exits_3(self):
        argv = ("milnor", "--poly", "x*y*z", "--vars", "x,y,z", "--chart", "z")
        assert run_into_closed_pipe(*argv, closed="stderr") == (3, "")
        assert run_into_closed_pipe("--json", *argv, closed="stderr") == (3, "")
