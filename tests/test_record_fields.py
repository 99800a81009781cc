"""Each record's constructor hands its arguments to ``_Record.__init__`` in
``_fields`` order: a record built with a distinct value in every field
reads each value back under its own name, so two swapped fields show."""

import inspect
from fractions import Fraction

import pytest

from milnorcalc.charclasses import CheckResult, ClassReport
from milnorcalc.chow import AmbientSpace, hyperplane
from milnorcalc.groebner import GroebnerBasis, MilnorResult
from milnorcalc.polynomials import parse_polynomial
from milnorcalc.scenes import ConstructibleFunction, StrataScene, Stratum

P2 = AmbientSpace((2,))
POINT = Stratum("p", 0, 1, 1)
NODAL = parse_polynomial("y^2*z - x^3 - x^2*z", ("x", "y", "z"))
SCENE = StrataScene(P2, ((3,),), (POINT,), NODAL, "z", "nodal")
MU = ConstructibleFunction(SCENE, {"p": -1})
H = hyperplane(P2, 0)

# Per record, its fields by name, each with a value no other field holds;
# valid where the constructor validates.
FIELDS = {
    AmbientSpace: {"factors": (2, 5, 0)},
    Stratum: {
        "id": "curve", "dim": 1, "chi_c": -2, "closure_chi": 3, "csm_class": 3 * H, "parents": ("surface",),
    },
    StrataScene: {
        "ambient": P2, "multidegrees": ((3,),), "strata": (POINT,), "defining_polynomial": NODAL,
        "chart": "z", "name": "nodal",
    },
    ConstructibleFunction: {"scene": SCENE, "values": {"p": -1}},
    CheckResult: {"name": "verdier_m1", "passed": False, "residual": H * H, "detail": "strata give 1"},
    ClassReport: {
        "scene": SCENE, "mu": MU, "fulton_johnson": 3 * H, "milnor_class": -(H * H), "csm": 3 * H + H * H,
        "euler": 2, "localization": [("p", H * H)], "checks": {"pushdown_m1": CheckResult("pushdown_m1", True)},
        "milnor_data": MilnorResult(1, "z", 0),
    },
    GroebnerBasis: {"variables": ("x", "y"), "_reduced": {5: {3: Fraction(-1, 2)}}},
    MilnorResult: {"total_milnor": 4, "chart": "w", "off_curve_dim": 7},
}


def test_every_record_is_covered():
    assert len(FIELDS) == 8
    for record, values in FIELDS.items():
        assert tuple(values) == record._fields
        assert tuple(inspect.signature(record).parameters) == record._fields


@pytest.mark.parametrize("record", FIELDS, ids=lambda record: record.__name__)
@pytest.mark.parametrize("by_keyword", [False, True], ids=["positional", "keyword"])
def test_each_field_reads_back_what_was_passed(record, by_keyword):
    values = FIELDS[record]
    assert len({repr(value) for value in values.values()}) == len(values)
    built = record(**values) if by_keyword else record(*values.values())
    for name, value in values.items():
        assert getattr(built, name) == value, name
