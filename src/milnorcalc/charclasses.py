"""Characteristic classes of hypersurfaces in products of projective
spaces: Fulton-Johnson classes, Milnor classes assembled from
vanishing-cycle data, CSM classes, and the Riemann-Roch-type identity
checks relating them.

Conventions.  For a hypersurface X of multidegree d in an ambient Y the
Fulton-Johnson class is c(TY) dH / (1+dH) cap [Y], the Milnor class is
M = c_*(mu) / (1+dH) with mu the vanishing-cycle function, and the CSM
class is their difference c_*(X) = c^FJ(X) - M.  With this sign an
isolated singular point p contributes (-1)^{dim Y - 1} mu_p times the
point class to M.  Division by the unit 1+dH is an exact solve, one
box position at a time through the predecessor tables of the terms of
1+dH (``ChowClass.__truediv__``); the inverse (1+dH)^{-1} is never
formed.  As 1+dH is a unit, x dH / (1+dH) = x - x / (1+dH), and the
Fulton-Johnson class is formed so, with no class product.  Reports are
written by ``canonical_json``, byte for byte as ``json.dumps(...,
sort_keys=True, indent=2)`` writes them once every integer beyond 64
bits is its decimal string.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from .chow import (
    AmbientSpace,
    ChowClass,
    _Record,
    decimal_text,
    divisor_class,
    pull_back,
    push_forward,
    self_intersection_check,
    tangent_class,
)
from .scenes import (
    SINGULAR_STRATUM,
    SMOOTH_STRATUM,
    ConstructibleFunction,
    SceneValidationError,
    StrataScene,
    Stratum,
    _single_multidegree,
    unit_function,
)

if TYPE_CHECKING:
    from .groebner import CancelCallback, MilnorResult


class MissingCsmClassError(ValueError):
    """A stratum with nonzero vanishing cycles has no CSM class."""


def fulton_johnson(ambient: AmbientSpace, multidegrees: Sequence[Sequence[int]]) -> ChowClass:
    """Fulton-Johnson class of a smooth-model complete intersection.

    For each multidegree d the ambient tangent class x becomes
    x dH / (1 + dH) = x - x / (1 + dH), with no class product; a
    hypersurface is the one-degree case.
    """
    if not multidegrees:
        raise ValueError("at least one multidegree is required")
    result = tangent_class(ambient)
    for d in multidegrees:
        divisor = divisor_class(ambient, d)
        if divisor.is_zero():
            raise ValueError("zero multidegree")
        result = result - result / (ChowClass.unit(ambient) + divisor)
    return result


def _closure_csm(scene: StrataScene, stratum: Stratum) -> ChowClass:
    if stratum.csm_class is not None:
        return stratum.csm_class
    if stratum.dim == 0:
        return ChowClass.point(scene.ambient)
    raise MissingCsmClassError(
        f"stratum {stratum.id!r} carries vanishing cycles but no csm class"
    )


def csm_of_function(scene: StrataScene, coefficients: Mapping[str, int]) -> ChowClass:
    """MacPherson transformation of a constructible function.

    The function is given by its ``coefficients`` over indicator
    functions of stratum closures (from ``indicator_coefficients``);
    the recorded closure classes are summed with them.
    """
    terms = (c * _closure_csm(scene, scene.index[i]) for i, c in coefficients.items())
    return sum(terms, ChowClass.zero(scene.ambient))


def milnor_class(
    scene: StrataScene, coefficients: Mapping[str, int], normal: ChowClass
) -> ChowClass:
    """Milnor class c_*(mu) / (1 + dH); ``normal`` is 1 + dH.

    ``coefficients`` are the closure-indicator coefficients of mu.
    """
    return csm_of_function(scene, coefficients) / normal


def localization(
    scene: StrataScene, coefficients: Mapping[str, int], normal: ChowClass
) -> list[tuple[str, ChowClass]]:
    """Split the Milnor class into per-stratum closed-support terms.

    ``coefficients`` are the closure-indicator coefficients of mu.
    """
    return [
        (stratum_id, coefficient * _closure_csm(scene, scene.index[stratum_id]) / normal)
        for stratum_id, coefficient in sorted(coefficients.items())
    ]


def resolve_mu(
    scene: StrataScene,
    mu: Optional[ConstructibleFunction] = None,
    cancel: Optional[CancelCallback] = None,
) -> tuple[StrataScene, ConstructibleFunction, Optional[MilnorResult]]:
    """Obtain vanishing cycles for a scene.

    User-supplied values are taken as given, and refused on a polynomial
    scene, whose values the engine computes.  Otherwise a defining
    polynomial is run through the Milnor-number engine in the scene's
    chart; otherwise the scene is taken to be smooth and mu is zero.
    A polynomial scene without strata gets the default ones: the smooth
    locus, and a point stratum when the total is nonzero.  The total goes
    on that point stratum, or on the one zero-dimensional stratum of the
    given strata, with the sign (-1)^(dim Y - 1), since the value at an
    isolated singular point is chi(Milnor fiber) - 1.
    """
    F = scene.defining_polynomial
    if mu is not None:
        if F is not None:
            raise SceneValidationError("a polynomial scene cannot carry mu values")
        if mu.scene != scene:
            raise ValueError("mu lives on a different scene")
        return scene, mu, None
    if F is None:
        return scene, ConstructibleFunction(scene, {}), None
    # Imported with the first polynomial, so that other scenes never load the engine.
    from .groebner import total_milnor_number

    result = total_milnor_number(F, scene.chart, cancel)
    if scene.strata:
        points = [s.id for s in scene.strata if s.dim == 0]
    else:
        # The singular points lie in the closure of the smooth locus, unless it is points too.
        parents = (SMOOTH_STRATUM,) if scene.ambient.dim > 1 else ()
        strata = [Stratum(id=SMOOTH_STRATUM, dim=scene.ambient.dim - 1)]
        if result.total_milnor != 0:
            point = ChowClass.point(scene.ambient)
            strata.append(Stratum(id=SINGULAR_STRATUM, dim=0, csm_class=point, parents=parents))
        scene = scene.replace(strata=tuple(strata))
        points = [SINGULAR_STRATUM]
    if result.total_milnor == 0:
        return scene, ConstructibleFunction(scene, {}), result
    if len(points) != 1:
        raise SceneValidationError(
            "cannot place the computed vanishing cycles: the total Milnor number is "
            f"{result.total_milnor}, and the scene has {len(points)} zero-dimensional strata, not one"
        )
    sign = -1 if (scene.ambient.dim - 1) % 2 else 1
    return scene, ConstructibleFunction(scene, {points[0]: sign * result.total_milnor}), result


class CheckResult(_Record):
    """Outcome of one identity check; residual is zero exactly on pass."""

    __slots__ = _fields = ("name", "passed", "residual", "detail")

    def __init__(self, name: str, passed: bool, residual: Optional[ChowClass] = None, detail: str = ""):
        _Record.__init__(self, name, passed, residual, detail)


def _result(name: str, residual: ChowClass, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=residual.is_zero(), residual=residual, detail=detail)


def verdier_smooth_check(m: int, product_fj: ChowClass, product_milnor: ChowClass, csm: ChowClass) -> CheckResult:
    """Compare the CSM class of X x P^m computed two ways.

    Route one assembles it from the Fulton-Johnson class of X x P^m in
    (ambient) x P^m and the pulled-back Milnor class; route two
    multiplies the pulled-back CSM class ``csm`` of X by the Chern class
    of the projection's relative tangent bundle.  Agreement is the
    Verdier-Riemann-Roch property of the smooth projection.
    """
    lhs = product_fj - product_milnor
    rhs = pull_back(csm, m)
    return _result(f"verdier_m{m}", lhs - rhs)


def proper_pushdown_check(m: int, product_milnor: ChowClass, milnor: ChowClass) -> CheckResult:
    """Push the pulled-back Milnor class back down to the base.

    The projection X x P^m -> X has fiber Euler characteristic m + 1,
    so the pushforward must be (m + 1) times the base Milnor class.
    """
    return _result(f"pushdown_m{m}", push_forward(product_milnor) - (m + 1) * milnor)


def defect_codim1_check(
    tangent: ChowClass,
    divisor: ChowClass,
    normal: ChowClass,
    csm: ChowClass,
    milnor: ChowClass,
) -> CheckResult:
    """Check the divisor defect formula against the Milnor class.

    The twisted restriction (dH) c(TY) / (1+dH), a product and a division
    unlike ``fulton_johnson``, minus the CSM class of X must equal
    c_*(mu) / (1+dH), the Milnor class; the residual is their difference.
    """
    lhs = divisor * tangent / normal - csm
    return _result("defect_codim1", lhs - milnor)


def lci_defect_check(
    scene: StrataScene,
    coefficients: Mapping[str, int],
    tangent: ChowClass,
    m: int,
    product_fj: ChowClass,
    product_milnor: ChowClass,
) -> CheckResult:
    """Check the defect formula for X x P^m -> Y through the ambient product.

    The composite of the inclusion into (ambient) x P^m with the
    projection to the ambient is a local complete intersection
    morphism.  Its twisted pullback of c_*(1_Y) = ``tangent`` (a product
    and a division), minus the CSM class ``product_fj - product_milnor``
    of X x P^m, must match the MacPherson class of the product vanishing
    cycles divided by the normal class; its closure classes are the
    pulled-back closure classes of X, summed with the closure-indicator
    ``coefficients``.
    """
    ambient = product_fj.ambient
    divisor = divisor_class(ambient, _single_multidegree(scene) + (0,))
    normal = ChowClass.unit(ambient) + divisor
    pulled = divisor * pull_back(tangent, m) / normal
    lhs = pulled - (product_fj - product_milnor)
    terms = (c * pull_back(_closure_csm(scene, scene.index[i]), m) for i, c in coefficients.items())
    rhs = sum(terms, ChowClass.zero(ambient)) / normal
    return _result(f"lci_m{m}", lhs - rhs)


class ClassReport(_Record):
    """All classes and checks computed for one scene; unlike the other
    records it may be changed, and so it has no hash."""

    __slots__ = _fields = (
        "scene", "mu", "fulton_johnson", "milnor_class", "csm", "euler", "localization", "checks", "milnor_data",
    )
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, scene: StrataScene, mu: ConstructibleFunction, fulton_johnson: ChowClass,
                 milnor_class: ChowClass, csm: ChowClass, euler: int, localization: list[tuple[str, ChowClass]],
                 checks: Optional[dict[str, CheckResult]] = None, milnor_data: Optional[MilnorResult] = None):
        checks = {} if checks is None else checks
        _Record.__init__(self, scene, mu, fulton_johnson, milnor_class, csm, euler, localization, checks, milnor_data)


def build_report(
    scene: StrataScene,
    mu: Optional[ConstructibleFunction] = None,
    m_values: Sequence[int] = (1,),
    cancel: Optional[CancelCallback] = None,
) -> ClassReport:
    """Compute every class and run every identity check for a scene.

    The Fulton-Johnson, Milnor and CSM classes for the ambient and the
    closure-indicator coefficients of mu (one Moebius inversion) are
    computed once, and so are, for each m, the Fulton-Johnson class of
    X x P^m and the pulled-back Milnor class; the checks compare them.
    c(TY), D = dH and 1+D are formed here and shared by the Milnor
    class, the localization and the checks, but ``fulton_johnson`` forms
    its own and ``self_intersection_check`` forms D again.  Stratum
    lookups and the inversion read the poset the scene keeps.  On X x P^m,
    with P^m the last factor, ``pull_back`` writes c(T_fiber) cap pi^*
    of a base class and ``push_forward`` forgets P^m, each by slices.
    A scene with several multidegrees gets no Milnor class, so nonzero
    mu on it is rejected rather than dropped.  ``scene`` was validated
    when it was built, so it is not validated again here.
    """
    if any(m < 1 for m in m_values):
        raise ValueError("the product factor dimension must be at least 1")
    scene, mu, milnor_data = resolve_mu(scene, mu, cancel)
    codim_one = len(scene.multidegrees) == 1
    if not codim_one and not mu.is_zero():
        raise ValueError(
            "nonzero mu needs a codimension-one scene, "
            f"but this scene has {len(scene.multidegrees)} multidegrees"
        )
    fj = fulton_johnson(scene.ambient, scene.multidegrees)
    milnor = ChowClass.zero(scene.ambient)
    csm = fj
    terms: list[tuple[str, ChowClass]] = []
    checks: dict[str, CheckResult] = {}
    if codim_one:
        degree = scene.multidegrees[0]
        tangent = tangent_class(scene.ambient)
        divisor = divisor_class(scene.ambient, degree)
        normal = ChowClass.unit(scene.ambient) + divisor
        coefficients = mu.indicator_coefficients()
        milnor = milnor_class(scene, coefficients, normal)
        terms = localization(scene, coefficients, normal)
        csm = fj - milnor
        checks["self_intersection"] = CheckResult(
            name="self_intersection",
            passed=self_intersection_check(scene.ambient, degree),
        )
        checks["defect_codim1"] = defect_codim1_check(tangent, divisor, normal, csm, milnor)
        for m in m_values:
            product_fj = fulton_johnson(scene.ambient.extended(m), [degree + (0,)])
            product_milnor = pull_back(milnor, m)
            checks[f"verdier_m{m}"] = verdier_smooth_check(m, product_fj, product_milnor, csm)
            checks[f"pushdown_m{m}"] = proper_pushdown_check(m, product_milnor, milnor)
            checks[f"lci_m{m}"] = lci_defect_check(scene, coefficients, tangent, m, product_fj, product_milnor)
        total = sum((term for _, term in terms), ChowClass.zero(scene.ambient))
        checks["localization_sum"] = _result("localization_sum", total - milnor)
    euler = csm.degree()
    if scene.strata and all(s.chi_c is not None for s in scene.strata):
        strata_euler = unit_function(scene).euler()
        checks["euler_strata"] = CheckResult(
            name="euler_strata",
            passed=strata_euler == euler,
            detail=f"strata give {strata_euler}, classes give {euler}",
        )
    return ClassReport(
        scene=scene,
        mu=mu,
        fulton_johnson=fj,
        milnor_class=milnor,
        csm=csm,
        euler=euler,
        localization=terms,
        checks=checks,
        milnor_data=milnor_data,
    )


# JSON serialization.  The ``*_to_jsonable`` helpers pick the data; the
# writer alone sorts keys and writes an int beyond 64 bits as a decimal
# string, through ``decimal_text``, which names an integer too long to write.

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def chow_to_jsonable(x: ChowClass) -> dict:
    return dict(x.keyed_terms())


def check_to_jsonable(check: CheckResult) -> dict:
    """The JSON entry of one check; a failing one carries its residual."""
    entry: dict = {"pass": check.passed}
    if not check.passed and check.residual is not None:
        entry["residual"] = chow_to_jsonable(check.residual)
    if check.detail:
        entry["detail"] = check.detail
    return entry


def report_to_jsonable(report: ClassReport) -> dict:
    data = {
        "ambient": list(report.scene.ambient.factors),
        "degrees": [list(d) for d in report.scene.multidegrees],
        "fulton_johnson": chow_to_jsonable(report.fulton_johnson),
        "milnor_class": chow_to_jsonable(report.milnor_class),
        "csm": chow_to_jsonable(report.csm),
        "euler": report.euler,
        "mu": dict(report.mu.values),
        "localization": [
            {"stratum": stratum_id, "class": chow_to_jsonable(term)}
            for stratum_id, term in report.localization
        ],
        "checks": {name: check_to_jsonable(c) for name, c in report.checks.items()},
    }
    if report.scene.name:
        data["name"] = report.scene.name
    if report.milnor_data is not None:
        data["total_milnor"] = report.milnor_data.total_milnor
        data["chart"] = report.milnor_data.chart
    return data


def _int_text(value: int) -> str:
    """An int as JSON: its decimal within 64 bits, else that decimal quoted."""
    text = decimal_text(value)
    return text if _INT64_MIN <= value <= _INT64_MAX else f'"{text}"'


def _json_text(value, newline: str) -> str:
    """``value`` as ``canonical_json`` writes it.

    ``newline`` is the line break and indentation of the value's own
    level.  Only str, int, bool, None, and dicts with str keys and lists
    of these are written; anything else, a float too, is a TypeError.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return _int_text(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = newline + "  "
    if kind is list:
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    if set(map(type, value)) != {str}:
        raise TypeError("JSON object keys must be strings")
    lines = [
        f"{encode_basestring_ascii(k)}: {_int_text(v) if type(v) is int else _json_text(v, inner)}"
        for k, v in sorted(value.items())
    ]
    return "{" + inner + ("," + inner).join(lines) + newline + "}"


def canonical_json(data) -> str:
    """Serialize byte for byte as ``json.dumps(data, sort_keys=True, indent=2)``
    writes ``data`` with every int outside [-2^63, 2^63 - 1] replaced by
    its decimal string; reloading and re-dumping is stable.

    Only str, int, bool, None, lists and dicts with str keys are
    written, each of exactly that type.  Anything else raises TypeError,
    also where ``json.dumps`` writes it: floats, tuples, subclasses of
    int or str, and non-str keys.  An integer too long to write raises
    ValueError (see ``decimal_text``).
    """
    return _json_text(data, "\n")
