"""Stratified scenes and constructible functions."""

import ast
import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from milnorcalc import scenes
from milnorcalc.charclasses import build_report, resolve_mu
from milnorcalc.chow import AmbientSpace, ChowClass
from milnorcalc.cli import main
from milnorcalc.polynomials import parse_polynomial
from milnorcalc.scenefile import SceneFileError, scene_from_dict
from milnorcalc.scenes import (
    SINGULAR_STRATUM,
    SMOOTH_STRATUM,
    ConstructibleFunction,
    SceneValidationError,
    StrataScene,
    Stratum,
    unit_function,
    validate_scene,
)

P2 = AmbientSpace((2,))
P3 = AmbientSpace((3,))


def changed(stratum, **changes):
    """A copy of ``stratum`` with the given fields changed."""
    names = ("id", "dim", "chi_c", "closure_chi", "csm_class", "parents")
    return Stratum(**{**{name: getattr(stratum, name) for name in names}, **changes})


def scene_of(strata, ambient=P2, degree=3):
    return StrataScene(ambient=ambient, multidegrees=((degree,),), strata=tuple(strata))


def two_stratum_scene():
    # An open curve part with one point in its closure.
    return scene_of(
        [
            Stratum(id="open_part", dim=1, chi_c=0, closure_chi=1),
            Stratum(id="point", dim=0, chi_c=1, closure_chi=1, parents=("open_part",)),
        ]
    )


def chain_scene():
    # On a surface, so that each dim is below its parent's and at most 2.
    return scene_of(
        [
            Stratum(id="top", dim=2, chi_c=1, closure_chi=4),
            Stratum(id="mid", dim=1, chi_c=2, closure_chi=3, parents=("top",)),
            Stratum(id="bot", dim=0, chi_c=1, closure_chi=1, parents=("mid",)),
        ],
        ambient=P3,
    )


POINT_FACTORS = "a multidegree must be nonzero on a factor P^n with n > 0: P^0 has no hypersurface"


def point_scene():
    return scene_of([Stratum(id="pt", dim=0, chi_c=1, closure_chi=1)], degree=1)


class TestPoset:
    def test_upsets(self):
        scene = chain_scene()
        ups = scene.upsets
        assert ups["bot"] == {"bot", "mid", "top"}
        assert ups["mid"] == {"mid", "top"}
        assert ups["top"] == {"top"}

    def test_the_scene_keeps_its_poset(self):
        scene = chain_scene()
        assert scene.index == {s.id: s for s in scene.strata}
        assert scene.peel_order == ("top", "mid", "bot")
        # Left out of ==, the hash and the repr; rebuilt by replace.
        assert "upsets" not in repr(scene)
        assert hash(scene) == hash(chain_scene())
        top, mid, _ = scene.strata
        cut = scene.replace(strata=(changed(top, closure_chi=3), changed(mid, closure_chi=2)))
        assert cut.upsets == {"top": {"top"}, "mid": {"mid", "top"}}
        assert cut.index["mid"].closure_chi == 2
        with pytest.raises(KeyError, match="bot"):
            cut.index["bot"]

    def test_closure_chi_counts_the_transitive_closure(self):
        # bot lies in the closure of top only through mid, so the closure
        # of top sums 1 + 2 + 1 = 4, and the 1 + 2 of its direct children
        # is refused.
        assert chain_scene().index["top"].closure_chi == 4
        top, mid, bot = chain_scene().strata
        with pytest.raises(SceneValidationError, match="closure_chi is 3 but the closure strata sum to 4"):
            scene_of([changed(top, closure_chi=3), mid, bot], ambient=P3)


class TestValidation:
    # A scene is validated when it is built, so each invalid one raises
    # from its constructor.
    def test_valid_scene_passes(self):
        validate_scene(two_stratum_scene())
        validate_scene(chain_scene())

    def test_a_multidegree_on_point_factors_alone_is_refused_in_the_users_terms(self):
        # Its divisor is zero, since H = 0 on P^0 (FIELD_RULES holds two more
        # such scenes); the all-zero multidegree keeps its own message.
        with pytest.raises(SceneValidationError, match=f"^{re.escape(POINT_FACTORS)}$"):
            StrataScene(ambient=AmbientSpace((0, 0)), multidegrees=((1, 1),))
        with pytest.raises(SceneValidationError, match="^a multidegree must be nonzero$"):
            StrataScene(ambient=AmbientSpace((1,)), multidegrees=((1,), (0,)))
        # A P^0 entry beside a nonzero one on P^2 is allowed: its divisor is 3H.
        assert StrataScene(ambient=AmbientSpace((2, 0)), multidegrees=((3, 2),)).multidegrees == ((3, 2),)

    def test_a_dim_is_at_most_that_of_the_variety(self):
        with pytest.raises(SceneValidationError, match="stratum 'curve': dim 2 is more than 1, the dim of the variety"):
            scene_of([Stratum(id="curve", dim=2)])
        # A complete intersection of two surfaces in P^3 is a curve.
        with pytest.raises(SceneValidationError, match="stratum 'top': dim 2 is more than 1"):
            StrataScene(ambient=P3, multidegrees=((2,), (2,)), strata=(Stratum(id="top", dim=2),))
        StrataScene(ambient=P3, multidegrees=((2,), (2,)), strata=(Stratum(id="top", dim=1),))

    def test_a_child_dim_is_below_each_parent(self):
        # Two point strata, one in the closure of the other, though the
        # closure of a point holds no other stratum.
        message = "stratum 'lower': dim 0 is not below the dim of its parent 'upper'"
        with pytest.raises(SceneValidationError, match=message):
            StrataScene(
                ambient=P2,
                multidegrees=((3,),),
                strata=(
                    Stratum(id="smooth_part", dim=1),
                    Stratum(id="upper", dim=0, parents=("smooth_part",)),
                    Stratum(id="lower", dim=0, parents=("upper",)),
                ),
                defining_polynomial=parse_polynomial("y^2*z - x^3 - x^2*z", ("x", "y", "z")),
                chart="z",
            )
        # Each parent counts, not only the highest.
        with pytest.raises(SceneValidationError, match="stratum 'mid': dim 1 is not below the dim of its parent 'side'"):
            scene_of(
                [
                    Stratum(id="top", dim=2),
                    Stratum(id="side", dim=1),
                    Stratum(id="mid", dim=1, parents=("top", "side")),
                ],
                ambient=P3,
            )

    def test_duplicate_ids(self):
        with pytest.raises(SceneValidationError, match="duplicate"):
            scene_of([Stratum(id="a", dim=0), Stratum(id="a", dim=1)])

    def test_unknown_parent(self):
        with pytest.raises(SceneValidationError, match="unknown parent"):
            scene_of([Stratum(id="a", dim=0, parents=("ghost",))])

    def test_self_parent(self):
        # Refused by the dim rule: a stratum's dim is not below its own.
        with pytest.raises(SceneValidationError, match="stratum 'a': dim 0 is not below the dim of its parent 'a'"):
            scene_of([Stratum(id="a", dim=0, parents=("a",))])

    def test_parent_cycle(self):
        # Dims fall along every edge that passes the dim rule, so a cycle is refused by it.
        with pytest.raises(SceneValidationError, match="stratum 'b': dim 1 is not below the dim of its parent 'a'"):
            scene_of(
                [
                    Stratum(id="a", dim=0, parents=("b",)),
                    Stratum(id="b", dim=1, parents=("a",)),
                ]
            )

    def test_closure_chi_mismatch(self):
        with pytest.raises(SceneValidationError, match="closure strata sum"):
            scene_of(
                [
                    Stratum(id="open_part", dim=1, chi_c=0, closure_chi=2),
                    Stratum(id="point", dim=0, chi_c=1, closure_chi=1, parents=("open_part",)),
                ]
            )

    def test_closed_stratum_chi_must_agree(self):
        with pytest.raises(SceneValidationError):
            scene_of([Stratum(id="x", dim=1, chi_c=2, closure_chi=3)])

    def test_missing_chi_is_allowed(self):
        scene = scene_of([Stratum(id="x", dim=1)])
        validate_scene(scene)

    def test_multidegree_length(self):
        with pytest.raises(SceneValidationError, match="multidegree"):
            StrataScene(ambient=P2, multidegrees=((3, 1),))

    def test_negative_multidegree_entry(self):
        with pytest.raises(SceneValidationError, match="multidegree entries must be nonnegative"):
            StrataScene(ambient=AmbientSpace((2, 1)), multidegrees=((1, 1), (2, -1)))

    def test_negative_dim(self):
        with pytest.raises(SceneValidationError, match="stratum 'p': dim must be nonnegative"):
            scene_of([Stratum(id="p", dim=-4, chi_c=1, closure_chi=1)])

    def test_csm_ambient_mismatch(self):
        with pytest.raises(SceneValidationError, match="different ambient"):
            scene_of([Stratum(id="x", dim=0, csm_class=ChowClass.point(P3))])

    # A closure of dim k in P^2 has c_* = its fundamental class, effective
    # and nonzero in codimension 2 - k, plus terms of higher codimension.
    @pytest.mark.parametrize(
        "dim, csm, message",
        [
            (1, {(2,): 1}, "stratum 's': csm class is not effective and nonzero in codimension 1"),
            (1, {(1,): -1, (2,): 3}, "stratum 's': csm class is not effective and nonzero in codimension 1"),
            (0, {(1,): 1, (2,): 1}, "stratum 's': csm class has a term in codimension 1, below 2"),
        ],
        ids=["curve-without-codim-1", "negative-curve", "point-with-codim-1"],
    )
    def test_a_closure_class_starts_in_the_codimension_of_its_stratum(self, dim, csm, message):
        csm_class = ChowClass(P2, csm)
        chi = csm_class.degree()
        with pytest.raises(SceneValidationError, match=message):
            scene_of([Stratum(id="s", dim=dim, chi_c=chi, closure_chi=chi, csm_class=csm_class)])
        # A line, H + 2H^2, and a conic, 2H + 2H^2, pass.
        for csm in ({(1,): 1, (2,): 2}, {(1,): 2, (2,): 2}):
            scene_of([Stratum(id="s", dim=1, chi_c=2, closure_chi=2, csm_class=ChowClass(P2, csm))])

    def test_a_curve_stratum_with_the_point_class_exits_2(self, tmp_path, capsys):
        # The nodal cubic's strata with the point class on the curve and mu on it.
        data = {
            "ambient": [2],
            "degrees": [[3]],
            "strata": [
                {"id": "smooth_part", "dim": 1, "chi_c": 0, "closure_chi": 1, "csm": {"2": 1}},
                {"id": "node", "dim": 0, "chi_c": 1, "closure_chi": 1, "parents": ["smooth_part"]},
            ],
            "mu": {"smooth_part": 1},
        }
        path = tmp_path / "gap.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: stratum 'smooth_part': csm class is not effective and nonzero in codimension 1\n"

    def test_replace_with_bad_strata_raises(self):
        # resolve_mu gives a scene its default strata through replace.
        with pytest.raises(SceneValidationError, match="unknown parent"):
            two_stratum_scene().replace(strata=(Stratum(id="a", dim=0, parents=("ghost",)),))

    def test_a_report_validates_its_scene_once(self, monkeypatch):
        # Every module that binds validate_scene gets the counting wrapper.
        calls = []

        def counting(scene):
            calls.append(scene.name)
            return original(scene)

        original = validate_scene
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "milnorcalc" and getattr(module, "validate_scene", None) is original:
                monkeypatch.setattr(module, "validate_scene", counting)
        path = Path(__file__).resolve().parents[1] / "scenes" / "nodal-cubic.json"
        assert main(["--quiet", "report", str(path)]) == 0
        assert calls == ["nodal-cubic"]


NODAL_TEXT = "y^2*z - x^3 - x^2*z"
NODAL_FILE = {"ambient": [2], "degrees": [[3]], "polynomial": NODAL_TEXT, "chart": "z"}
POINT_FILE = {"id": "p", "dim": 0, "chi_c": 1, "closure_chi": 1}
XYZ = ("x", "y", "z")


def nodal_scene(**changes):
    """The nodal cubic on P^2 in the z chart, with ``changes`` to its fields."""
    fields = dict(ambient=P2, multidegrees=((3,),), defining_polynomial=parse_polynomial(NODAL_TEXT, XYZ), chart="z")
    return StrataScene(**{**fields, **changes})


def report_with_user_mu():
    scene = nodal_scene(strata=(Stratum(id="p", dim=0, chi_c=1, closure_chi=1),))
    return build_report(scene, ConstructibleFunction(scene, {"p": 1}))


# Each rule that ties a scene's fields together: a scene file that breaks
# it, the same scene built in Python, and the one message both give.
FIELD_RULES = {
    "zero-multidegree": (
        {"ambient": [2], "degrees": [[0]], "smooth": True},
        lambda: StrataScene(ambient=P2, multidegrees=((0,),)),
        "a multidegree must be nonzero",
    ),
    # Nonzero multidegrees whose divisor is zero, since H = 0 on P^0.
    "multidegree-on-point-factors": (
        {"ambient": [2, 0], "degrees": [[0, 3]], "smooth": True},
        lambda: StrataScene(ambient=AmbientSpace((2, 0)), multidegrees=((0, 3),)),
        POINT_FACTORS,
    ),
    "polynomial-on-a-point": (
        {"ambient": [0], "degrees": [[1]], "polynomial": "x", "chart": "x"},
        lambda: StrataScene(
            ambient=AmbientSpace((0,)), multidegrees=((1,),), defining_polynomial=parse_polynomial("x", ("x",)), chart="x",
        ),
        POINT_FACTORS,
    ),
    "multidegree-length": (
        {"ambient": [2], "degrees": [[3, 1]], "smooth": True},
        lambda: StrataScene(ambient=P2, multidegrees=((3, 1),)),
        "multidegree length must match the ambient",
    ),
    "polynomial-on-product": (
        {"ambient": [1, 1], "degrees": [[1, 1]], "polynomial": "x*y", "chart": "y"},
        lambda: StrataScene(
            ambient=AmbientSpace((1, 1)), multidegrees=((1, 1),),
            defining_polynomial=parse_polynomial("x*y", XYZ), chart="y",
        ),
        "polynomial scenes need a single projective space",
    ),
    "four-variables-on-the-plane": (
        dict(NODAL_FILE, variables=["x", "y", "z", "w"]),
        lambda: nodal_scene(defining_polynomial=parse_polynomial(NODAL_TEXT, ("x", "y", "z", "w"))),
        "variables must list one name per homogeneous coordinate",
    ),
    "no-chart": (
        {k: v for k, v in NODAL_FILE.items() if k != "chart"},
        lambda: nodal_scene(chart=None),
        "a polynomial needs a chart variable",
    ),
    "unknown-chart": (dict(NODAL_FILE, chart="q"), lambda: nodal_scene(chart="q"), "chart must name a variable"),
    "zero-polynomial": (
        dict(NODAL_FILE, polynomial="x^3 - x^3"),
        lambda: nodal_scene(defining_polynomial=parse_polynomial("x^3 - x^3", XYZ)),
        "the polynomial is zero",
    ),
    "inhomogeneous-polynomial": (
        dict(NODAL_FILE, polynomial="y^2*z - x^3 - x"),
        lambda: nodal_scene(defining_polynomial=parse_polynomial("y^2*z - x^3 - x", XYZ)),
        "the polynomial is not homogeneous",
    ),
    "degree-mismatch": (
        dict(NODAL_FILE, degrees=[[4]]),
        lambda: nodal_scene(multidegrees=((4,),)),
        "polynomial degree 3 does not match declared degree 4",
    ),
    "polynomial-with-two-multidegrees": (
        dict(NODAL_FILE, degrees=[[3], [1]]),
        lambda: nodal_scene(multidegrees=((3,), (1,))),
        "this operation needs a codimension-one scene",
    ),
    "polynomial-with-mu": (
        dict(NODAL_FILE, strata=[POINT_FILE], mu={"p": 1}),
        report_with_user_mu,
        "a polynomial scene cannot carry mu values",
    ),
    "unknown-mu-stratum": (
        {"ambient": [2], "degrees": [[3]], "strata": [POINT_FILE], "mu": {"phantom": 1}},
        lambda: ConstructibleFunction(scene_of([Stratum(id="p", dim=0, chi_c=1, closure_chi=1)]), {"phantom": 1}),
        "mu names unknown stratum 'phantom'",
    ),
}


@pytest.mark.parametrize("data, build, message", FIELD_RULES.values(), ids=FIELD_RULES.keys())
def test_a_rule_between_fields_reads_the_same_from_python_and_from_a_file(data, build, message):
    with pytest.raises(SceneFileError) as from_file:
        scene_from_dict(data)
    with pytest.raises(SceneValidationError) as from_python:
        build()
    assert str(from_file.value) == str(from_python.value) == message


class PassCounter(tuple):
    """A tuple that counts the passes begun over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def curve_over_points(count):
    """A curve with ``count`` point strata in its closure, as a PassCounter."""
    points = [Stratum(id=f"p{i}", dim=0, parents=("curve",)) for i in range(count)]
    return PassCounter([Stratum(id="curve", dim=1)] + points)


def test_a_scene_walks_its_poset_once_and_a_report_reads_it(monkeypatch):
    # Counted, not timed: the closure walk runs once when the scene is
    # built and never in build_report, and the report's passes over the
    # strata do not grow with their number (a linear stratum lookup made
    # one pass per Moebius coefficient, 12,000 at 4,000 points).
    walks = []
    walk = scenes._upsets

    def counting(index, order):
        walks.append(len(index))
        return walk(index, order)

    monkeypatch.setattr(scenes, "_upsets", counting)
    passes = {}
    for count in (40, 4000):
        strata = curve_over_points(count)
        scene = StrataScene(ambient=P2, multidegrees=((3,),), strata=strata)
        assert walks == [count + 1]
        mu = ConstructibleFunction(scene, {f"p{i}": 1 for i in range(count)})
        before = strata.passes
        report = build_report(scene, mu)
        passes[count] = strata.passes - before
        assert walks == [count + 1]
        assert all(check.passed for check in report.checks.values())
        assert len(report.localization) == count
        walks.clear()
    assert passes[4000] == passes[40] <= 3


def test_a_report_builds_no_class_through_the_validating_constructor(monkeypatch):
    # The point class of each point stratum is written from the layout,
    # as the unit is; through ChowClass() it took 12,000 calls at 4,000 points.
    calls = []
    init = ChowClass.__init__

    def counting(self, *args, **kwargs):
        calls.append(args)
        init(self, *args, **kwargs)

    scene = StrataScene(ambient=P2, multidegrees=((3,),), strata=curve_over_points(4000))
    mu = ConstructibleFunction(scene, {f"p{i}": 1 for i in range(4000)})
    monkeypatch.setattr(ChowClass, "__init__", counting)
    report = build_report(scene, mu)
    assert calls == []
    assert report.milnor_class.degree() == 4000


class TestRepresentations:
    def test_indicator_of_whole_closure(self):
        # 1 on the open part and on the point in its closure is the
        # indicator of the whole closure.
        scene = two_stratum_scene()
        alpha = ConstructibleFunction(scene, {"open_part": 1, "point": 1})
        assert alpha.indicator_coefficients() == {"open_part": 1}

    def test_point_indicator(self):
        scene = two_stratum_scene()
        alpha = ConstructibleFunction(scene, {"point": 1})
        assert alpha.indicator_coefficients() == {"point": 1}

    def test_moebius_inversion_on_chain(self):
        scene = chain_scene()
        alpha = ConstructibleFunction(scene, {"top": 1, "mid": 3, "bot": -2})
        # Coefficients peel off the closure order: top keeps its value,
        # each lower stratum subtracts everything above it.
        assert alpha.indicator_coefficients() == {"top": 1, "mid": 2, "bot": -5}

    def test_zero_values_dropped(self):
        scene = two_stratum_scene()
        alpha = ConstructibleFunction(scene, {"point": 0})
        assert alpha.is_zero()

    def test_unknown_stratum_rejected(self):
        scene = two_stratum_scene()
        with pytest.raises(ValueError, match="unknown stratum"):
            ConstructibleFunction(scene, {"ghost": 1})

    def test_a_function_is_read_only(self):
        values = {"point": 2}
        alpha = ConstructibleFunction(two_stratum_scene(), values)
        values["point"] = 5
        with pytest.raises(TypeError):
            alpha.values["point"] = 2.5
        with pytest.raises(AttributeError, match="cannot assign to or delete field 'values'"):
            alpha.values = {"point": 2.5}
        assert alpha.values == {"point": 2}
        assert alpha.indicator_coefficients() == {"point": 2}

    @pytest.mark.parametrize("value", [2.7, 2.0, "3", True, False, None])
    def test_a_value_that_is_not_an_int_is_refused(self, value):
        with pytest.raises(TypeError, match="value on stratum 'point' must be an int"):
            ConstructibleFunction(two_stratum_scene(), {"open_part": 1, "point": value})


class TestEuler:
    def test_projective_plane(self):
        scene = scene_of([Stratum(id="plane", dim=2, chi_c=3, closure_chi=3)], ambient=P3, degree=1)
        assert unit_function(scene).euler() == 3

    def test_point(self):
        assert unit_function(point_scene()).euler() == 1

    def test_nodal_curve_gluing(self):
        # Smooth part is a sphere minus two points, the node is one point.
        assert unit_function(two_stratum_scene()).euler() == 1

    def test_linearity(self):
        scene = chain_scene()

        def euler(values):
            return ConstructibleFunction(scene, values).euler()

        a = {"top": 2, "bot": 1}
        b = {"mid": 3, "bot": 3}
        assert ConstructibleFunction(scene, b).indicator_coefficients() == {"mid": 3}
        combined = {k: 2 * a.get(k, 0) + b.get(k, 0) for k in scene.index}
        assert euler(combined) == 2 * euler(a) + euler(b) == 15
        assert euler({k: -v for k, v in a.items()}) == -euler(a)

    def test_missing_chi_raises(self):
        scene = scene_of([Stratum(id="x", dim=1)])
        alpha = ConstructibleFunction(scene, {"x": 1})
        with pytest.raises(SceneValidationError, match="chi_c"):
            alpha.euler()


def polynomial_mu(text, ambient, chart):
    """Vanishing cycles of a polynomial scene without strata."""
    F = parse_polynomial(text, ("x", "y", "z", "w")[: ambient.dim + 1])
    scene = StrataScene(
        ambient=ambient, multidegrees=((F.total_degree(),),), defining_polynomial=F, chart=chart
    )
    _, mu, _ = resolve_mu(scene)
    return mu


class TestEngineIntegration:
    def test_nodal_cubic_vanishing_cycles(self):
        mu = polynomial_mu("y^2*z - x^3 - x^2*z", P2, "z")
        assert mu.values == {SINGULAR_STRATUM: -1}
        assert mu.scene.index[SINGULAR_STRATUM].dim == 0

    def test_smooth_curve_zero_function(self):
        mu = polynomial_mu("x^3 + y^3 + z^3", P2, "z")
        assert mu.is_zero()
        assert tuple(mu.scene.index) == (SMOOTH_STRATUM,)

    def test_surface_node_positive_sign(self):
        mu = polynomial_mu("w^2*x^2 + w^2*y^2 + w^2*z^2 + x^4 + y^4 + z^4", P3, "w")
        assert mu.values == {SINGULAR_STRATUM: 1}

    def test_place_on_user_strata(self):
        scene = StrataScene(
            ambient=P2,
            multidegrees=((3,),),
            strata=(
                Stratum(id="smooth_part", dim=1, chi_c=0, closure_chi=1),
                Stratum(id="node", dim=0, chi_c=1, closure_chi=1, parents=("smooth_part",)),
            ),
            defining_polynomial=parse_polynomial("y^2*z - x^3 - x^2*z", ("x", "y", "z")),
            chart="z",
        )
        placed, mu, result = resolve_mu(scene)
        assert placed == scene
        assert result.total_milnor == 1
        assert mu.values == {"node": -1}

    def test_place_requires_point_stratum(self):
        scene = StrataScene(
            ambient=P2,
            multidegrees=((3,),),
            strata=(Stratum(id="smooth_part", dim=1),),
            defining_polynomial=parse_polynomial("y^2*z - x^3", ("x", "y", "z")),
            chart="z",
        )
        # The message names what it found; no advice, as user mu is refused on a polynomial scene.
        with pytest.raises(SceneValidationError, match="Milnor number is 2, and the scene has 0 zero-dimensional strata"):
            resolve_mu(scene)

    def test_strata_without_chart_are_refused(self):
        # The node of y^2 w - x^3 - x^2 w sits at [0:0:1], in the chart
        # w = 1; the scene names no chart, and w, the last variable, is
        # not taken for it.
        fields = dict(
            ambient=P2,
            multidegrees=((3,),),
            strata=(
                Stratum(id="smooth_part", dim=1),
                Stratum(id="node", dim=0, parents=("smooth_part",)),
            ),
            defining_polynomial=parse_polynomial("y^2*w - x^3 - x^2*w", ("x", "y", "w")),
        )
        with pytest.raises(SceneValidationError, match="^a polynomial needs a chart variable$"):
            StrataScene(**fields)
        _, mu, result = resolve_mu(StrataScene(**fields, chart="w"))
        assert result.chart == "w"
        assert result.total_milnor == 1
        assert mu.values == {"node": -1}


def test_scenes_module_does_not_import_the_engine():
    source = Path(__file__).resolve().parents[1] / "src" / "milnorcalc" / "scenes.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module or ''}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("groebner" in name.split(".") for name in imported), imported


# Random posets of up to 30 strata on a 6-fold, listed in any order: dims
# may tie, and each parent has a larger dim than its child, so the dim
# rule holds on every edge.
@st.composite
def poset_scenes(draw):
    dims = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=30)), reverse=True)
    strata = []
    for i, dim in enumerate(dims):
        above = [f"s{j}" for j in range(i) if dims[j] > dim]
        parents = draw(st.lists(st.sampled_from(above), unique=True, max_size=3)) if above else []
        strata.append(Stratum(id=f"s{i}", dim=dim, parents=tuple(parents)))
    return scene_of(draw(st.permutations(strata)), ambient=AmbientSpace((7,)), degree=2)


def reachable(scene):
    """Each id mapped to the ids it reaches by parent edges, itself included,
    by repeating one step until nothing changes."""
    reach = {s.id: {s.id, *s.parents} for s in scene.strata}
    grown = True
    while grown:
        grown = False
        for seen in reach.values():
            more = set().union(*(reach[t] for t in seen)) - seen
            seen |= more
            grown = grown or bool(more)
    return reach


@given(poset_scenes(), st.data())
def test_the_poset_is_read_from_the_dims(scene, data):
    assert scene.upsets == reachable(scene)
    position = {i: n for n, i in enumerate(scene.peel_order)}
    assert sorted(position) == sorted(scene.index)
    for i, above in scene.upsets.items():
        assert all(position[t] < position[i] for t in above - {i})
    # Turn one edge against the dims: the parent now lists its child.
    edges = [(s, p) for s in scene.strata for p in s.parents]
    if edges:
        child, parent = data.draw(st.sampled_from(edges))
        turned = {
            child.id: changed(child, parents=tuple(p for p in child.parents if p != parent)),
            parent: changed(scene.index[parent], parents=scene.index[parent].parents + (child.id,)),
        }
        message = f"stratum {parent!r}: dim {scene.index[parent].dim} is not below the dim of its parent {child.id!r}"
        with pytest.raises(SceneValidationError, match=message):
            scene.replace(strata=tuple(turned.get(s.id, s) for s in scene.strata))


@st.composite
def functions_on(draw, scene):
    values = draw(
        st.dictionaries(
            st.sampled_from(list(scene.index)), st.integers(-20, 20), max_size=6
        )
    )
    return ConstructibleFunction(scene, values)


@given(poset_scenes().flatmap(lambda s: functions_on(s)))
def test_indicator_solves_defining_system(alpha):
    # Independent check of the inversion: summing indicator coefficients
    # over each stratum's ancestors must reproduce the pointwise values.
    coeffs = alpha.indicator_coefficients()
    for i, above in reachable(alpha.scene).items():
        assert alpha.values.get(i, 0) == sum(coeffs.get(t, 0) for t in above)
