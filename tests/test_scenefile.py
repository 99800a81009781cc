"""Scene file parsing: schema validation and round-trips."""

import json
import pathlib
import sys

import pytest

from milnorcalc import build_report, canonical_json, report_to_jsonable, scenefile, scenes
from milnorcalc.chow import AmbientSpace, ChowClass
from milnorcalc.scenefile import (
    SceneFileError,
    default_variables,
    load_scene,
    scene_from_dict,
)


SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"
CORPUS_NAMES = (
    "cuspidal-cubic",
    "fermat-quartic-surface",
    "four-nodal-quartic",
    "nodal-cubic",
    "one-nodal-quartic-surface",
    "reducible-quadric-surface",
    "smooth-conic",
    "smooth-cubic-curve",
    "smooth-quartic-curve",
)


def scene_dict(name):
    return json.loads((SCENES / f"{name}.json").read_text(encoding="utf-8"))


def nodal_dict():
    return scene_dict("nodal-cubic")


def user_mu_dict():
    return scene_dict("reducible-quadric-surface")


def smooth_dict():
    return scene_dict("smooth-conic")


class TestHappyPath:
    def test_polynomial_scene(self):
        scene, mu = scene_from_dict(nodal_dict())
        assert scene.name == "nodal-cubic"
        assert scene.ambient == AmbientSpace((2,))
        assert scene.multidegrees == ((3,),)
        assert scene.chart == "z"
        assert scene.defining_polynomial is not None
        assert mu is None
        assert [s.id for s in scene.strata] == ["smooth_part", "node"]

    def test_user_mu_scene(self):
        scene, mu = scene_from_dict(user_mu_dict())
        assert mu is not None
        assert mu.values == {"singular_line": -1}
        line = scene.index["singular_line"]
        assert line.csm_class == ChowClass(scene.ambient, {(2,): 1, (3,): 2})

    def test_smooth_scene(self):
        scene, mu = scene_from_dict(smooth_dict())
        assert scene.defining_polynomial is None
        assert mu is None

    def test_default_variables(self):
        assert default_variables(1) == ("x", "y")
        assert default_variables(3) == ("x", "y", "z", "w")
        assert default_variables(5) == ("x0", "x1", "x2", "x3", "x4", "x5")

    def test_explicit_variables(self):
        data = {
            "ambient": [2],
            "degrees": [[2]],
            "polynomial": "a^2 - b*c",
            "variables": ["a", "b", "c"],
            "chart": "c",
        }
        scene, _ = scene_from_dict(data)
        assert scene.defining_polynomial.variables == ("a", "b", "c")

    def test_integers_as_decimal_strings(self):
        data = user_mu_dict()
        data["ambient"] = ["3"]
        data["degrees"] = [["2"]]
        data["mu"] = {"singular_line": "-1"}
        data["strata"][1]["dim"] = "1"
        scene, mu = scene_from_dict(data)
        assert scene.ambient == AmbientSpace((3,))
        assert mu.values == {"singular_line": -1}

    def test_name_defaults_to_empty(self):
        data = nodal_dict()
        del data["name"]
        scene, _ = scene_from_dict(data)
        assert scene.name == ""


def expect_error(data, fragment):
    with pytest.raises(SceneFileError, match=fragment):
        scene_from_dict(data)


class TestSchemaErrors:
    def test_not_an_object(self):
        expect_error(["nope"], "JSON object")

    def test_unknown_scene_field_is_named(self):
        data = nodal_dict()
        data["colour"] = "blue"
        expect_error(data, "unknown scene field.*colour")

    def test_unknown_stratum_field_is_named(self):
        data = nodal_dict()
        data["strata"][0]["shade"] = 3
        expect_error(data, "unknown stratum field.*shade")

    def test_missing_ambient(self):
        data = nodal_dict()
        del data["ambient"]
        expect_error(data, "missing field: ambient")

    def test_missing_degrees(self):
        data = nodal_dict()
        del data["degrees"]
        expect_error(data, "missing field: degrees")

    def test_empty_ambient(self):
        data = nodal_dict()
        data["ambient"] = []
        expect_error(data, "nonempty list")

    def test_multidegree_length_mismatch(self):
        data = nodal_dict()
        data["degrees"] = [[3, 1]]
        expect_error(data, "match the ambient")

    def test_zero_multidegree(self):
        data = nodal_dict()
        data["degrees"] = [[0]]
        expect_error(data, "nonzero")

    def test_boolean_is_not_an_integer(self):
        data = nodal_dict()
        data["ambient"] = [True]
        expect_error(data, "expected an integer")

    def test_non_numeric_string(self):
        data = nodal_dict()
        data["degrees"] = [["three"]]
        expect_error(data, "not an integer")

    def test_negative_multidegree_entry(self):
        data = smooth_dict()
        data["degrees"] = [[-3]]
        expect_error(data, "multidegree entries must be nonnegative")

    def test_integer_string_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        data = user_mu_dict()
        data["mu"] = {"singular_line": "9" * (limit + 1)}
        with pytest.raises(SceneFileError) as err:
            scene_from_dict(data)
        assert str(err.value) == f"mu['singular_line']: an integer with more than {limit} digits"

    # Each field that takes a quoted integer, its message prefix, and a
    # text it loads; -10^30 + 1 is one that only a string can carry past 64 bits.
    @pytest.mark.parametrize(
        "path, context, good",
        [
            (("ambient", 0), "ambient", "3"),
            (("strata", 1, "dim"), "stratum 'singular_line' dim", "1"),
            (("strata", 1, "chi_c"), "stratum 'singular_line' chi_c", "2"),
            (("strata", 1, "csm", "2"), "stratum 'singular_line' csm['2']", "1"),
            (("mu", "singular_line"), "mu['singular_line']", "-" + "9" * 30),
        ],
        ids=["ambient", "dim", "chi_c", "csm", "mu"],
    )
    def test_quoted_integers_are_ascii_digits(self, path, context, good):
        # int() alone reads the first four: a space, an underscore, a plus
        # sign and an Arabic-Indic two.  A superscript two is a digit to
        # str.isdigit, but not an ASCII one.
        def with_value(value):
            data = user_mu_dict()
            target = data
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            return data

        for text in (" 1", "1_0", "+3", "٢", "²"):
            with pytest.raises(SceneFileError) as err:
                scene_from_dict(with_value(text))
            assert str(err.value) == f"{context}: {text!r} is not an integer"
        assert scene_from_dict(with_value(good)) == scene_from_dict(with_value(int(good)))


class TestPolynomialRules:
    def test_chart_required(self):
        data = nodal_dict()
        del data["chart"]
        expect_error(data, "needs a chart")

    def test_chart_must_name_a_variable(self):
        data = nodal_dict()
        data["chart"] = "t"
        expect_error(data, "chart must name a variable")

    def test_chart_without_polynomial(self):
        data = smooth_dict()
        data["chart"] = "z"
        expect_error(data, "only meaningful with a polynomial")

    @pytest.mark.parametrize("chart", [None, 5], ids=["null", "number"])
    @pytest.mark.parametrize("scene", ["nodal-cubic", "smooth-conic"], ids=["polynomial", "smooth"])
    def test_chart_must_be_a_string(self, scene, chart):
        # A format rule of the reader, before any rule between the fields.
        data = dict(scene_dict(scene), chart=chart)
        with pytest.raises(SceneFileError, match="^chart must be a string$"):
            scene_from_dict(data)

    def test_variables_without_polynomial(self):
        data = smooth_dict()
        data["variables"] = ["x", "y", "z"]
        expect_error(data, "only meaningful with a polynomial")

    def test_variable_count(self):
        data = nodal_dict()
        data["variables"] = ["x", "y"]
        expect_error(data, "one name per homogeneous coordinate")

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"polynomial": "x0", "variables": None}, "variables must list one name per homogeneous coordinate"),
            ({"polynomial": 5}, "polynomial must be a string"),
            ({"polynomial": "x0"}, "a polynomial in 1501 variables is over the limit of 1000 variables"),
            ({"polynomial": "x0", "chart": None}, "chart must be a string"),
        ],
    )
    def test_the_variable_limit_comes_after_the_format_rules(self, extra, message):
        # The limit is checked before any default name is built, and after
        # the format rules: a file that breaks one of them is refused by it.
        with pytest.raises(ValueError, match=f"^{message}$"):
            scene_from_dict({"ambient": [1500], "degrees": [[1]], "chart": "x0", **extra})

    def test_degree_mismatch(self):
        data = nodal_dict()
        data["degrees"] = [[4]]
        expect_error(data, "does not match")

    def test_inhomogeneous(self):
        data = nodal_dict()
        data["polynomial"] = "y^2*z - x^3 - x"
        expect_error(data, "not homogeneous")

    def test_zero_polynomial(self):
        data = nodal_dict()
        data["polynomial"] = "0"
        expect_error(data, "polynomial is zero")

    def test_parse_error_wrapped(self):
        data = nodal_dict()
        data["polynomial"] = "y^2*z - "
        expect_error(data, "bad polynomial")

    @pytest.mark.parametrize(
        "template",
        ["{}*y^2*z - x^3", "y^2*z - x^3/{}", "y^{}*z - x^3"],
        ids=["coefficient", "denominator", "exponent"],
    )
    def test_literal_over_the_digit_limit(self, template):
        limit = sys.get_int_max_str_digits()
        data = nodal_dict()
        data["polynomial"] = template.format("9" * (limit + 1))
        position = template.index("{")
        with pytest.raises(SceneFileError) as err:
            scene_from_dict(data)
        assert str(err.value) == (
            f"bad polynomial: an integer with more than {limit} digits (at position {position})"
        )

    def test_needs_single_factor(self):
        data = nodal_dict()
        data["ambient"] = [2, 1]
        data["degrees"] = [[3, 0]]
        expect_error(data, "single projective space")


class TestRouteRules:
    def test_some_route_required(self):
        data = nodal_dict()
        del data["polynomial"]
        del data["chart"]
        expect_error(data, "polynomial with a chart, or strata with mu, or smooth")

    def test_smooth_excludes_polynomial(self):
        data = nodal_dict()
        data["smooth"] = True
        expect_error(data, "smooth scene cannot carry a polynomial")

    def test_smooth_excludes_mu(self):
        data = smooth_dict()
        data["mu"] = {"curve": 1}
        expect_error(data, "smooth scene cannot carry mu")

    def test_polynomial_excludes_mu(self):
        # The polynomial would never run, so its mu could not be checked.
        data = nodal_dict()
        data["mu"] = {"node": -7}
        expect_error(data, "polynomial scene cannot carry mu")

    def test_mu_needs_strata(self):
        data = user_mu_dict()
        del data["strata"]
        expect_error(data, "mu values need strata")

    def test_mu_unknown_stratum(self):
        data = user_mu_dict()
        data["mu"] = {"phantom": 1}
        expect_error(data, "unknown stratum 'phantom'")

    def test_mu_must_be_a_map(self):
        data = user_mu_dict()
        data["mu"] = [1, 2]
        expect_error(data, "mu must be a map")


class TestStratumRules:
    def test_id_required(self):
        data = nodal_dict()
        del data["strata"][0]["id"]
        expect_error(data, "string id")

    def test_dim_required(self):
        data = nodal_dict()
        del data["strata"][0]["dim"]
        expect_error(data, "missing dim")

    def test_chi_required_in_files(self):
        data = nodal_dict()
        del data["strata"][1]["chi_c"]
        expect_error(data, "missing chi_c")

    def test_closure_chi_required_in_files(self):
        data = nodal_dict()
        del data["strata"][1]["closure_chi"]
        expect_error(data, "missing closure_chi")

    def test_negative_dim(self):
        data = user_mu_dict()
        data["strata"][1]["dim"] = -4
        expect_error(data, "stratum 'singular_line': dim must be nonnegative")

    def test_parents_must_be_ids(self):
        data = nodal_dict()
        data["strata"][1]["parents"] = [0]
        expect_error(data, "parents must be a list of ids")

    def test_unknown_parent_is_a_scene_error(self):
        # Poset-level validation is wrapped into the file error type.
        data = nodal_dict()
        data["strata"][1]["parents"] = ["ghost"]
        expect_error(data, "ghost")

    def test_duplicate_ids(self):
        data = nodal_dict()
        data["strata"][1]["id"] = "smooth_part"
        expect_error(data, "duplicate")


class TestCsmMaps:
    def test_wrong_key_length(self):
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"2,0": 1}
        expect_error(data, "wrong length")

    def test_non_integer_key(self):
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"two": 1}
        expect_error(data, "bad exponent key")

    def test_exponent_outside_ring(self):
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"4": 1}
        expect_error(data, "outside the ring")

    @pytest.mark.parametrize("key", [" 1", "+1", "-1", "1 ", "", "²", "٣", "1.0"])
    def test_key_parts_are_ascii_digits(self, key):
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"2": 1, key: 2}
        with pytest.raises(SceneFileError) as err:
            scene_from_dict(data)
        assert str(err.value) == f"stratum 'singular_line': bad exponent key {key!r}"

    @pytest.mark.parametrize(
        "csm, first, second",
        [({"0": 1, "01": 5, "1": 2}, "01", "1"), ({"3": 2, "2": 1, "002": 4}, "2", "002")],
    )
    def test_keys_naming_one_exponent_rejected(self, csm, first, second):
        data = user_mu_dict()
        data["strata"][1]["csm"] = csm
        with pytest.raises(SceneFileError) as err:
            scene_from_dict(data)
        assert str(err.value) == (
            f"stratum 'singular_line': exponent keys {first!r} and {second!r} name the same exponent"
        )

    def test_keys_naming_one_exponent_on_a_product(self):
        data = {
            "ambient": [1, 2],
            "degrees": [[1, 1]],
            "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"1,2": 1, "01,2": 1}}],
            "mu": {"p": 1},
        }
        expect_error(data, "exponent keys '1,2' and '01,2' name the same exponent")

    def test_key_over_the_digit_limit_is_named_by_its_length(self):
        limit = sys.get_int_max_str_digits()
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"9" * (limit + 1): 1}
        with pytest.raises(SceneFileError) as err:
            scene_from_dict(data)
        assert str(err.value) == (
            f"stratum 'singular_line': an exponent key of {limit + 1} characters,"
            f" over the {limit}-digit limit"
        )

    def test_must_be_a_map(self):
        data = user_mu_dict()
        data["strata"][1]["csm"] = [1, 2]
        expect_error(data, "csm must be a map")

    def test_degree_must_match_closure_chi(self):
        data = user_mu_dict()
        data["strata"][1]["csm"] = {"3": 9}
        expect_error(data, "csm class has degree 9 but closure_chi is 2")


class TestCorpusRoundTrip:
    def test_every_corpus_scene_parses(self):
        for name in CORPUS_NAMES:
            scene, _ = load_scene(str(SCENES / f"{name}.json"))
            assert scene.name == name

    def test_written_files_reload_identically(self, tmp_path):
        for name in CORPUS_NAMES:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(scene_dict(name), indent=2) + "\n", encoding="utf-8")
            direct_scene, direct_mu = scene_from_dict(scene_dict(name))
            loaded_scene, loaded_mu = load_scene(str(path))
            assert loaded_scene == direct_scene
            assert loaded_mu == direct_mu

    def test_checked_in_scene_files_match_corpus(self):
        # scenes/ holds exactly the nine corpus scenes, one file each.
        assert sorted(p.stem for p in SCENES.glob("*.json")) == list(CORPUS_NAMES)


class TestLoadScene:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SceneFileError, match="cannot read"):
            load_scene(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SceneFileError, match="not valid JSON"):
            load_scene(str(path))

    def test_integer_literal_over_the_digit_limit(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        data = user_mu_dict()
        data["mu"] = {"singular_line": "DIGITS"}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data).replace('"DIGITS"', "9" * (limit + 1)), encoding="utf-8")
        with pytest.raises(SceneFileError) as err:
            load_scene(str(path))
        assert str(err.value) == f"{path}: an integer with more than {limit} digits"

    # Each was settled silently before: json.load kept the last value.
    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"ambient": [2], "ambient": [3], "degrees": [[3]], "smooth": true}', "ambient"),
            (
                '{"ambient": [2], "degrees": [[3]], "mu": {"p": 1, "p": 2},'
                ' "strata": [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}]}',
                "p",
            ),
            (
                '{"ambient": [2], "degrees": [[3]], "mu": {"p": 1}, "strata":'
                ' [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"2": 5, "2": 1}}]}',
                "2",
            ),
        ],
        ids=["ambient", "mu", "csm"],
    )
    def test_repeated_key_rejected(self, tmp_path, text, key):
        path = tmp_path / "repeated.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SceneFileError) as err:
            load_scene(str(path))
        assert str(err.value) == f"{path}: the key {key!r} appears twice in one object"

    def test_repeated_key_over_the_digit_limit_is_named_by_its_length(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        key = "9" * (limit + 1)
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"ambient": [2], "degrees": [[3]], "mu": {"p": 1}, "strata":'
            ' [{"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1, "csm": {"%s": 1, "%s": 1}}]}' % (key, key),
            encoding="utf-8",
        )
        with pytest.raises(SceneFileError) as err:
            load_scene(str(path))
        assert str(err.value) == f"{path}: a key of {limit + 1} characters appears twice in one object"


class TestSceneMemo:
    """``load_scene`` keeps the scene of each text it read, and nothing else."""

    @pytest.fixture(autouse=True)
    def cold(self, monkeypatch):
        # Every call of scene_from_dict and validate_scene is counted.
        scenefile._scene_of_text.cache_clear()
        self.built, self.validated = [], []
        build, validate = scenefile.scene_from_dict, scenes.validate_scene

        def counting_build(data):
            self.built.append(data.get("name"))
            return build(data)

        def counting_validate(scene):
            self.validated.append(scene.name)
            return validate(scene)

        monkeypatch.setattr(scenefile, "scene_from_dict", counting_build)
        monkeypatch.setattr(scenes, "validate_scene", counting_validate)

    def write(self, path, data):
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    def test_a_second_load_is_served_from_the_memo(self):
        path = str(SCENES / "nodal-cubic.json")
        scene, mu = load_scene(path)
        assert self.built == self.validated == ["nodal-cubic"]
        again, again_mu = load_scene(path)
        assert again is scene and again_mu is mu
        assert self.built == self.validated == ["nodal-cubic"]

    def test_a_kept_scene_cannot_be_changed(self):
        # The memo hands one scene to every load of a file, so its maps are read-only.
        path = str(SCENES / "nodal-cubic.json")
        scene, mu = load_scene(path)
        first = canonical_json(report_to_jsonable(build_report(scene, mu)))
        for kept in (scene.index, scene.upsets):
            # A read-only map has no ``clear``, and refuses item assignment and deletion.
            with pytest.raises(AttributeError):
                kept.clear()
            with pytest.raises(TypeError):
                kept["node"] = kept["smooth_part"]
            with pytest.raises(TypeError):
                del kept["node"]
        again, again_mu = load_scene(path)
        assert again is scene and sorted(again.index) == ["node", "smooth_part"]
        assert canonical_json(report_to_jsonable(build_report(again, again_mu))) == first

    def test_a_rewritten_file_is_read_again(self, tmp_path):
        path = self.write(tmp_path / "scene.json", nodal_dict())
        nodal, _ = load_scene(path)
        self.write(tmp_path / "scene.json", smooth_dict())
        smooth, _ = load_scene(path)
        assert self.built == self.validated == ["nodal-cubic", "smooth-conic"]
        assert smooth == scene_from_dict(smooth_dict())[0]
        assert smooth != nodal
        # The first text is still kept, under the same path.
        self.write(tmp_path / "scene.json", nodal_dict())
        assert load_scene(path)[0] is nodal

    def test_an_error_is_never_kept(self, tmp_path):
        data = smooth_dict()
        data["degrees"] = [[0]]
        path = self.write(tmp_path / "scene.json", data)
        messages = []
        for _ in range(2):
            with pytest.raises(SceneFileError) as err:
                load_scene(path)
            messages.append(str(err.value))
        assert len(self.built) == 2 and messages[0] == messages[1]
        self.write(tmp_path / "scene.json", smooth_dict())
        assert load_scene(path)[0] == scene_from_dict(smooth_dict())[0]

    def test_a_lowered_digit_limit_refuses_a_kept_scene(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        data = user_mu_dict()
        data["mu"] = {"singular_line": "DIGITS"}
        path = tmp_path / "long.json"
        path.write_text(json.dumps(data).replace('"DIGITS"', "9" * (limit + 1)), encoding="utf-8")
        sys.set_int_max_str_digits(limit + 1)
        try:
            scene, mu = load_scene(str(path))
        finally:
            sys.set_int_max_str_digits(limit)
        assert mu.values["singular_line"] == 10 ** (limit + 1) - 1
        with pytest.raises(SceneFileError) as err:
            load_scene(str(path))
        assert str(err.value) == f"{path}: an integer with more than {limit} digits"

    def test_the_memo_keeps_the_last_32_texts(self, tmp_path):
        paths = []
        for i in range(33):
            data = smooth_dict()
            data["name"] = f"smooth-{i}"
            paths.append(self.write(tmp_path / f"scene-{i}.json", data))
        first, _ = load_scene(paths[0])
        for path in paths[1:]:
            load_scene(path)
        assert load_scene(paths[-1])[0] is load_scene(paths[-1])[0]
        again, _ = load_scene(paths[0])
        assert again == first and again is not first
        assert self.built == [f"smooth-{i}" for i in range(33)] + ["smooth-0"]
