"""The package's records and its root exports.

Each record is equal only to a record of its own class with equal
fields, hashes and shows its fields, and, all but ``ClassReport``,
refuses assignment.  ``StrataScene.replace`` validates the copy again.
"""

import copy
import importlib
import pickle

import pytest

import milnorcalc
from milnorcalc.charclasses import CheckResult, build_report
from milnorcalc.chow import AmbientSpace, ChowClass
from milnorcalc.groebner import MilnorResult, groebner
from milnorcalc.polynomials import PolyIdeal, parse_polynomial
from milnorcalc.scenes import ConstructibleFunction, SceneValidationError, StrataScene, Stratum

P2 = AmbientSpace((2,))
POINT = Stratum(id="p", dim=0, chi_c=1, closure_chi=1)
SCENE = StrataScene(ambient=P2, multidegrees=((3,),), strata=(POINT,))


def basis(text):
    return groebner(PolyIdeal([parse_polynomial(text, ("x", "y"))]))


# Per record: a maker of fresh equal records, one that differs, and its repr.
RECORDS = {
    "AmbientSpace": (lambda: AmbientSpace((2,)), AmbientSpace((3,)), "AmbientSpace(factors=(2,))"),
    "Stratum": (
        lambda: Stratum(id="p", dim=0),
        Stratum(id="p", dim=0, chi_c=1),
        "Stratum(id='p', dim=0, chi_c=None, closure_chi=None, csm_class=None, parents=())",
    ),
    "StrataScene": (
        lambda: StrataScene(P2, ((3,),)),
        StrataScene(P2, ((3,),), name="cubic"),
        "StrataScene(ambient=AmbientSpace(factors=(2,)), multidegrees=((3,),), strata=(), "
        "defining_polynomial=None, chart=None, name='')",
    ),
    "ConstructibleFunction": (
        lambda: ConstructibleFunction(SCENE, {"p": 2}),
        ConstructibleFunction(SCENE, {"p": 3}),
        f"ConstructibleFunction(scene={SCENE!r}, values=mappingproxy({{'p': 2}}))",
    ),
    "CheckResult": (
        lambda: CheckResult("verdier_m1", True),
        CheckResult("verdier_m1", False, ChowClass.point(P2)),
        "CheckResult(name='verdier_m1', passed=True, residual=None, detail='')",
    ),
    "GroebnerBasis": (
        lambda: basis("x^2 - y"),
        basis("x - y^2"),
        "GroebnerBasis(variables=('x', 'y'), _reduced={%d: {%d: Fraction(-1, 1)}})",
    ),
    "MilnorResult": (
        lambda: MilnorResult(1, "z", 0),
        MilnorResult(2, "z", 0),
        "MilnorResult(total_milnor=1, chart='z', off_curve_dim=0)",
    ),
    "ClassReport": (
        lambda: build_report(SCENE, ConstructibleFunction(SCENE, {"p": 1})),
        build_report(SCENE, ConstructibleFunction(SCENE, {"p": 2})),
        "ClassReport(scene=StrataScene(",
    ),
}
UNHASHABLE = {"ConstructibleFunction", "ClassReport"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_is_equal_only_within_its_class(name):
    make, other, _ = RECORDS[name]
    first, second = make(), make()
    assert first is not second and first == second and not first != second
    assert first != other
    fields = tuple(getattr(first, field) for field in type(first)._fields)
    assert first != fields and first != list(fields)
    for other_name, (make_other, _, _) in RECORDS.items():
        if other_name != name:
            assert first != make_other()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_hashes_by_its_fields(name):
    make, _, _ = RECORDS[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(make())
    else:
        assert hash(make()) == hash(make())
        assert {make(), make()} == {make()}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_shows_its_fields(name):
    make, _, text = RECORDS[name]
    record = make()
    if name == "GroebnerBasis":
        ((lead, tail),) = record._reduced.items()
        text %= (lead, *tail)
    if name == "ClassReport":
        assert repr(record).startswith(text) and "checks={'self_intersection': CheckResult(" in repr(record)
    else:
        assert repr(record) == text


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"ClassReport"}))
def test_a_frozen_record_refuses_assignment(name):
    make, _, _ = RECORDS[name]
    record = make()
    field = type(record)._fields[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to"):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", sorted(set(RECORDS) - UNHASHABLE))
def test_a_record_is_copied_and_pickled_through_its_constructor(name):
    record = RECORDS[name][0]()
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is type(record)


def test_a_pickled_scene_keeps_its_poset_and_a_class_its_ambient():
    scene = pickle.loads(pickle.dumps(SCENE))
    assert scene.peel_order == SCENE.peel_order and scene.index == SCENE.index
    point = ChowClass.point(P2)
    assert pickle.loads(pickle.dumps(point)) == point


def test_a_class_report_may_be_changed():
    report = RECORDS["ClassReport"][0]()
    report.euler = 7
    assert report.euler == 7


def test_a_changed_scene_is_validated_again():
    changed = SCENE.replace(name="points", strata=(POINT, Stratum(id="q", dim=0, chi_c=1, closure_chi=1)))
    assert (changed.name, changed.ambient, changed.multidegrees) == ("points", P2, ((3,),))
    assert changed.peel_order == ("p", "q") and changed.index["q"].dim == 0
    assert SCENE.name == "" and SCENE.peel_order == ("p",)
    with pytest.raises(SceneValidationError, match="unknown parent 'ghost'"):
        SCENE.replace(strata=(Stratum(id="a", dim=0, parents=("ghost",)),))
    with pytest.raises(SceneValidationError, match="multidegree length must match the ambient"):
        SCENE.replace(multidegrees=((3, 1),))
    with pytest.raises(TypeError):
        SCENE.replace(index={})


# The root exports, by module, as the package has exported them since
# before it resolved them on first access.  The function ``groebner`` is
# not among them: ``milnorcalc.groebner`` is the module.
ROOT_EXPORTS = {
    "charclasses": (
        "ClassReport CheckResult MissingCsmClassError build_report canonical_json defect_codim1_check "
        "csm_of_function fulton_johnson lci_defect_check localization milnor_class proper_pushdown_check "
        "report_to_jsonable resolve_mu verdier_smooth_check"
    ),
    "chow": (
        "AmbientSpace ChowClass divisor_class hyperplane pull_back push_forward self_intersection_check "
        "tangent_class unit_inverse"
    ),
    "groebner": (
        "ComputationCancelled GroebnerBasis MilnorResult NonIsolatedSingularitiesError "
        "SingularitiesOutsideChartError dehomogenize quotient_dim total_milnor_number"
    ),
    "polynomials": "PolyIdeal PolyParseError Polynomial VariableMismatchError jacobian_ideal parse_polynomial",
    "scenefile": "SceneFileError load_scene scene_from_dict",
    "scenes": "ConstructibleFunction SceneValidationError StrataScene Stratum unit_function validate_scene",
}


@pytest.mark.parametrize("module_name", sorted(ROOT_EXPORTS))
def test_each_root_export_is_the_object_of_its_module(module_name):
    module = importlib.import_module(f"milnorcalc.{module_name}")
    for name in ROOT_EXPORTS[module_name].split():
        assert getattr(milnorcalc, name) is getattr(module, name)
        assert name in dir(milnorcalc)


def test_the_root_groebner_is_the_engine_module():
    assert milnorcalc.groebner is importlib.import_module("milnorcalc.groebner")
    assert milnorcalc.groebner.groebner is groebner
    assert milnorcalc.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        milnorcalc.no_such_name
