"""Characteristic classes of hypersurfaces in products of projective
spaces: Fulton-Johnson classes, Milnor classes assembled from
vanishing-cycle data, CSM classes, and the Riemann-Roch-type identity
checks relating them.

Conventions.  For a hypersurface X of multidegree d in an ambient Y the
Fulton-Johnson class is c(TY) dH / (1+dH) cap [Y], the Milnor class is
M = c_*(mu) / (1+dH) with mu the vanishing-cycle function, and the CSM
class is their difference c_*(X) = c^FJ(X) - M.  With this sign an
isolated singular point p contributes (-1)^{dim Y - 1} mu_p times the
point class to M.  Division by the unit 1+dH is an exact graded solve
(``ChowClass.__truediv__``); the inverse (1+dH)^{-1} is never formed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .chow import (
    AmbientSpace,
    ChowClass,
    divisor_class,
    factor_tangent_class,
    forget_factor,
    insert_factor,
    self_intersection_check,
    tangent_class,
)
from .groebner import CancelCallback, MilnorResult, total_milnor_number
from .scenes import (
    SINGULAR_STRATUM,
    ConstructibleFunction,
    StrataScene,
    Stratum,
    hypersurface_scene,
    place_vanishing_cycles,
    signed_milnor_total,
    unit_function,
    validate_scene,
)


class MissingCsmClassError(ValueError):
    """A stratum with nonzero vanishing cycles has no CSM class."""


def fulton_johnson(ambient: AmbientSpace, multidegrees: Sequence[Sequence[int]]) -> ChowClass:
    """Fulton-Johnson class of a smooth-model complete intersection.

    For each multidegree d the ambient tangent class is multiplied by
    dH and divided by 1 + dH; a hypersurface is the one-degree case.
    """
    if not multidegrees:
        raise ValueError("at least one multidegree is required")
    result = tangent_class(ambient)
    for d in multidegrees:
        divisor = divisor_class(ambient, d)
        if divisor.is_zero():
            raise ValueError("zero multidegree")
        result = result * divisor / (ChowClass.unit(ambient) + divisor)
    return result


def _single_multidegree(scene: StrataScene) -> tuple[int, ...]:
    if len(scene.multidegrees) != 1:
        raise ValueError("this operation needs a codimension-one scene")
    return scene.multidegrees[0]


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
    total = ChowClass.zero(scene.ambient)
    for stratum_id, coefficient in coefficients.items():
        stratum = scene.stratum(stratum_id)
        total = total + coefficient * _closure_csm(scene, stratum)
    return total


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
        (stratum_id, coefficient * _closure_csm(scene, scene.stratum(stratum_id)) / normal)
        for stratum_id, coefficient in sorted(coefficients.items())
    ]


def resolve_mu(
    scene: StrataScene,
    mu: Optional[ConstructibleFunction] = None,
    cancel: Optional[CancelCallback] = None,
) -> tuple[StrataScene, ConstructibleFunction, Optional[MilnorResult]]:
    """Obtain vanishing cycles for a scene.

    User-supplied values win; otherwise a defining polynomial is run
    through the Milnor-number engine (building the default two-stratum
    scene when the scene has no strata); otherwise the scene is taken
    to be smooth and mu is zero.
    """
    if mu is not None:
        if mu.scene != scene:
            raise ValueError("mu lives on a different scene")
        return scene, mu, None
    if scene.defining_polynomial is not None:
        if scene.strata:
            placed, result = place_vanishing_cycles(scene, cancel)
            return scene, placed, result
        F = scene.defining_polynomial
        chart = scene.chart if scene.chart is not None else F.variables[-1]
        result = total_milnor_number(F, chart, cancel)
        enriched = hypersurface_scene(
            scene.ambient,
            _single_multidegree(scene)[0],
            singular=result.total_milnor != 0,
            name=scene.name,
            defining_polynomial=F,
            chart=result.chart,
        )
        values = {}
        if result.total_milnor != 0:
            values[SINGULAR_STRATUM] = signed_milnor_total(result, scene.ambient)
        return enriched, ConstructibleFunction(enriched, values), result
    return scene, ConstructibleFunction(scene, {}), None


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one identity check; residual is zero exactly on pass."""

    name: str
    passed: bool
    residual: Optional[ChowClass] = None
    detail: str = ""


def _result(name: str, residual: ChowClass, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=residual.is_zero(), residual=residual, detail=detail)


@dataclass(frozen=True)
class ProductClasses:
    """Classes of X x P^m inside (ambient) x P^m; the new factor is last."""

    m: int
    fiber_tangent: ChowClass
    fulton_johnson: ChowClass
    milnor_class: ChowClass

    @property
    def position(self) -> int:
        return len(self.fiber_tangent.ambient.factors) - 1


def product_classes(scene: StrataScene, milnor: ChowClass, m: int) -> ProductClasses:
    """Fulton-Johnson and Milnor classes of X x P^m from the base Milnor class.

    Smooth pullback along the projection multiplies the base Milnor
    class by the total Chern class of the relative tangent bundle.
    """
    if m < 1:
        raise ValueError("the product factor dimension must be at least 1")
    position = len(scene.ambient.factors)
    product = scene.ambient.extended(m)
    fiber_tangent = factor_tangent_class(product, position)
    return ProductClasses(
        m=m,
        fiber_tangent=fiber_tangent,
        fulton_johnson=fulton_johnson(product, [_single_multidegree(scene) + (0,)]),
        milnor_class=fiber_tangent * insert_factor(milnor, m, position),
    )


def verdier_smooth_check(product: ProductClasses, csm: ChowClass) -> CheckResult:
    """Compare the CSM class of X x P^m computed two ways.

    Route one assembles it from the product Fulton-Johnson class and
    the pulled-back Milnor class; route two multiplies the pulled-back
    CSM class ``csm`` of X by the Chern class of the projection's
    relative tangent bundle.  Agreement is the Verdier-Riemann-Roch
    property of the smooth projection.
    """
    lhs = product.fulton_johnson - product.milnor_class
    rhs = product.fiber_tangent * insert_factor(csm, product.m, product.position)
    return _result(f"verdier_m{product.m}", lhs - rhs)


def proper_pushdown_check(product: ProductClasses, milnor: ChowClass) -> CheckResult:
    """Push the product Milnor class back down to the base.

    The projection X x P^m -> X has fiber Euler characteristic m + 1,
    so the pushforward must be (m + 1) times the base Milnor class.
    """
    pushed = forget_factor(product.milnor_class, product.position)
    expected = (product.m + 1) * milnor
    return _result(f"pushdown_m{product.m}", pushed - expected)


def defect_codim1_check(
    tangent: ChowClass,
    divisor: ChowClass,
    normal: ChowClass,
    csm: ChowClass,
    milnor: ChowClass,
) -> CheckResult:
    """Check the divisor defect formula against the Milnor class.

    The twisted restriction (dH) c(TY) / (1+dH) minus the CSM class of
    X must equal c_*(mu) / (1+dH), the Milnor class; the difference of
    the two sides is returned as the residual.
    """
    lhs = divisor * tangent / normal - csm
    return _result("defect_codim1", lhs - milnor)


def lci_defect_check(
    scene: StrataScene,
    coefficients: Mapping[str, int],
    tangent: ChowClass,
    product: ProductClasses,
) -> CheckResult:
    """Check the defect formula for X x P^m -> Y through the ambient product.

    The composite of the inclusion into (ambient) x P^m with the
    projection to the ambient is a local complete intersection
    morphism.  Its twisted pullback of c_*(1_Y) = ``tangent``, minus the
    CSM class of X x P^m, must match the MacPherson class of the
    product vanishing cycles divided by the normal class; its closure
    classes are the pulled-back closure classes of X, summed with the
    closure-indicator ``coefficients`` of mu.
    """
    m, position = product.m, product.position
    ambient = product.fiber_tangent.ambient
    divisor = divisor_class(ambient, _single_multidegree(scene) + (0,))
    normal = ChowClass.unit(ambient) + divisor
    pulled = product.fiber_tangent * (divisor * insert_factor(tangent, m, position)) / normal
    lhs = pulled - (product.fulton_johnson - product.milnor_class)
    accumulated = ChowClass.zero(ambient)
    for stratum_id, coefficient in coefficients.items():
        closure = _closure_csm(scene, scene.stratum(stratum_id))
        product_closure = insert_factor(closure, m, position) * product.fiber_tangent
        accumulated = accumulated + coefficient * product_closure
    rhs = accumulated / normal
    return _result(f"lci_m{m}", lhs - rhs)


@dataclass
class ClassReport:
    """All classes and checks computed for one scene."""

    scene: StrataScene
    mu: ConstructibleFunction
    fulton_johnson: ChowClass
    milnor_class: ChowClass
    csm: ChowClass
    euler: int
    localization: list[tuple[str, ChowClass]]
    checks: dict[str, CheckResult] = field(default_factory=dict)
    milnor_data: Optional[MilnorResult] = None


def build_report(
    scene: StrataScene,
    mu: Optional[ConstructibleFunction] = None,
    m_values: Sequence[int] = (1,),
    cancel: Optional[CancelCallback] = None,
) -> ClassReport:
    """Compute every class and run every identity check for a scene.

    Each class is computed once: c(TY), 1+dH, the closure-indicator
    coefficients of mu (one Moebius inversion), the Fulton-Johnson,
    Milnor and CSM classes for the ambient, and the product classes for
    each m.  The checks compare these classes; they compute none again.
    A scene with several multidegrees gets no Milnor class, so nonzero
    mu on it is rejected rather than dropped.
    """
    validate_scene(scene)
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
            product = product_classes(scene, milnor, m)
            checks[f"verdier_m{m}"] = verdier_smooth_check(product, csm)
            checks[f"pushdown_m{m}"] = proper_pushdown_check(product, milnor)
            checks[f"lci_m{m}"] = lci_defect_check(scene, coefficients, tangent, product)
        total = ChowClass.zero(scene.ambient)
        for _, term in terms:
            total = total + term
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


# JSON serialization.  Keys are sorted and integers that do not fit in
# 64 bits are rendered as decimal strings, so emitted reports reload
# and re-serialize byte for byte.

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _json_int(value: int):
    if _INT64_MIN <= value <= _INT64_MAX:
        return value
    return str(value)


def chow_to_jsonable(x: ChowClass) -> dict:
    return {
        ",".join(str(e) for e in exp): _json_int(value)
        for exp, value in sorted(x.coefficients.items())
    }


def report_to_jsonable(report: ClassReport) -> dict:
    data = {
        "ambient": list(report.scene.ambient.factors),
        "degrees": [list(d) for d in report.scene.multidegrees],
        "fulton_johnson": chow_to_jsonable(report.fulton_johnson),
        "milnor_class": chow_to_jsonable(report.milnor_class),
        "csm": chow_to_jsonable(report.csm),
        "euler": _json_int(report.euler),
        "mu": {k: _json_int(v) for k, v in sorted(report.mu.values.items())},
        "localization": [
            {"stratum": stratum_id, "class": chow_to_jsonable(term)}
            for stratum_id, term in report.localization
        ],
        "checks": {},
    }
    if report.scene.name:
        data["name"] = report.scene.name
    if report.milnor_data is not None:
        data["total_milnor"] = _json_int(report.milnor_data.total_milnor)
        data["chart"] = report.milnor_data.chart
    for name, check in sorted(report.checks.items()):
        entry: dict = {"pass": check.passed}
        if not check.passed and check.residual is not None:
            entry["residual"] = chow_to_jsonable(check.residual)
        if check.detail:
            entry["detail"] = check.detail
        data["checks"][name] = entry
    return data


def canonical_json(data) -> str:
    """Serialize with sorted keys; reloading and re-dumping is stable."""
    return json.dumps(data, sort_keys=True, indent=2)
