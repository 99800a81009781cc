"""Finite stratified scenes and the constructible-function calculus.

A scene records a closed subvariety of a product of projective spaces
as a finite poset of strata.  Each stratum may carry compactly
supported Euler characteristics (of itself and of its closure), the
pushed-forward CSM class of its closure, and the ids of the strata
whose closures contain it.  Constructible functions on a scene are
integer-valued and constant on strata and are held by their value on
each stratum; Moebius inversion on the closure poset expands them over
indicator functions of closures.

Euler-characteristic data is user input; values computed by the
polynomial engine (total Milnor numbers) only populate vanishing-cycle
functions, so ``chi_c``/``closure_chi`` may be absent on engine-built
strata.  A ``StrataScene`` is checked by ``validate_scene`` when it is
built, ``StrataScene.replace`` included, so every scene is valid.  Dims
fall along every parent edge, so one pass over the strata by falling dim
builds what the scene keeps: ``index`` (id to stratum), ``upsets`` (id to
the strata whose closures contain it, itself included) and ``peel_order``
(the ids by falling dim, each after every stratum above it).  Stratum
lookups, the Moebius inversion and the placement of computed vanishing
cycles read them.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional

from .chow import AmbientSpace, ChowClass, _is_int, _Record

if TYPE_CHECKING:
    from .polynomials import Polynomial


class SceneValidationError(ValueError):
    """The scene data is structurally inconsistent."""


class Stratum(_Record):
    """One locally closed stratum of a scene."""

    __slots__ = _fields = ("id", "dim", "chi_c", "closure_chi", "csm_class", "parents")

    def __init__(self, id: str, dim: int, chi_c: Optional[int] = None, closure_chi: Optional[int] = None,
                 csm_class: Optional[ChowClass] = None, parents: tuple[str, ...] = ()):
        _Record.__init__(self, id, dim, chi_c, closure_chi, csm_class, parents)


class StrataScene(_Record):
    """A stratified subvariety of a product of projective spaces.

    The slots after ``name`` hold what ``validate_scene`` returns; they
    are left out of ``==``, the hash and the repr.
    """

    _fields = ("ambient", "multidegrees", "strata", "defining_polynomial", "chart", "name")
    __slots__ = _fields + ("index", "upsets", "peel_order")

    def __init__(self, ambient: AmbientSpace, multidegrees: tuple[tuple[int, ...], ...],
                 strata: tuple[Stratum, ...] = (), defining_polynomial: Optional[Polynomial] = None,
                 chart: Optional[str] = None, name: str = ""):
        _Record.__init__(self, ambient, multidegrees, strata, defining_polynomial, chart, name)
        # Looked up at call time, so a wrapper installed on the module runs.
        for name, value in zip(("index", "upsets", "peel_order"), validate_scene(self)):
            object.__setattr__(self, name, value)

    def replace(self, **changes) -> StrataScene:
        """A copy with the given fields changed, validated as it is built."""
        return StrataScene(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def _upsets(index: dict[str, Stratum], order: tuple[str, ...]) -> dict[str, frozenset[str]]:
    """Each id mapped to the ids whose closures contain it, itself included, built
    in ``order``, which lists each parent before its children."""
    out: dict[str, frozenset[str]] = {}
    for i in order:
        out[i] = frozenset({i}.union(*(out[p] for p in index[i].parents)))
    return out


def _single_multidegree(scene: StrataScene) -> tuple[int, ...]:
    if len(scene.multidegrees) != 1:
        raise SceneValidationError("this operation needs a codimension-one scene")
    return scene.multidegrees[0]


def _check_polynomial(scene: StrataScene) -> None:
    """The defining polynomial: one projective space and one multidegree, a variable
    per coordinate, the chart among them, nonzero, homogeneous, of that degree."""
    F = scene.defining_polynomial
    if len(scene.ambient.factors) != 1:
        raise SceneValidationError("polynomial scenes need a single projective space")
    if len(F.variables) != scene.ambient.dim + 1:
        raise SceneValidationError("variables must list one name per homogeneous coordinate")
    if scene.chart is None:
        raise SceneValidationError("a polynomial needs a chart variable")
    if scene.chart not in F.variables:
        raise SceneValidationError("chart must name a variable")
    if F.is_zero():
        raise SceneValidationError("the polynomial is zero")
    if not F.is_homogeneous():
        raise SceneValidationError("the polynomial is not homogeneous")
    if len(scene.multidegrees) != 1:
        raise SceneValidationError(f"a polynomial scene has one multidegree, not {len(scene.multidegrees)}")
    (degree,) = scene.multidegrees[0]
    if F.total_degree() != degree:
        raise SceneValidationError(
            f"polynomial degree {F.total_degree()} does not match declared degree {degree}"
        )


def validate_scene(
    scene: StrataScene,
) -> tuple[Mapping[str, Stratum], Mapping[str, frozenset[str]], tuple[str, ...]]:
    """Check every rule that ties the scene's fields together: multidegrees,
    the defining polynomial and its chart, poset shape, stratum dims and Euler
    data; raise on failure.  A polynomial needs a chart that names one of its
    variables, and a scene without a polynomial has no chart.  A stratum's
    dim is at most the ambient dim minus the number of multidegrees, and below
    each parent's, so no parent edge closes a cycle.  Return the index, up-sets
    and peel order of the scene, the maps read-only: a kept scene is shared."""
    for multidegree in scene.multidegrees:
        if len(multidegree) != len(scene.ambient.factors):
            raise SceneValidationError("multidegree length must match the ambient")
        if not any(multidegree):
            raise SceneValidationError("a multidegree must be nonzero")
        if any(d < 0 for d in multidegree):
            raise SceneValidationError("multidegree entries must be nonnegative")
        if not any(d for d, n in zip(multidegree, scene.ambient.factors) if n):
            raise SceneValidationError("a multidegree must be nonzero on a factor P^n with n > 0: P^0 has no hypersurface")
    if scene.defining_polynomial is not None:
        _check_polynomial(scene)
    elif scene.chart is not None:
        raise SceneValidationError("chart is only meaningful with a polynomial")
    index = {s.id: s for s in scene.strata}
    if len(index) != len(scene.strata):
        raise SceneValidationError("duplicate stratum ids")
    for s in scene.strata:
        if s.dim < 0:
            raise SceneValidationError(f"stratum {s.id!r}: dim must be nonnegative")
        for p in s.parents:
            if p not in index:
                raise SceneValidationError(f"stratum {s.id!r} lists unknown parent {p!r}")
    dim_x = scene.ambient.dim - len(scene.multidegrees)
    for s in scene.strata:
        if s.dim > dim_x:
            raise SceneValidationError(f"stratum {s.id!r}: dim {s.dim} is more than {dim_x}, the dim of the variety")
        for p in s.parents:
            if index[p].dim <= s.dim:
                raise SceneValidationError(f"stratum {s.id!r}: dim {s.dim} is not below the dim of its parent {p!r}")
    # Dims fall along every edge, so falling dim puts each stratum after its
    # up-set; inverting the up-sets gives the strata of each closure.
    order = tuple(sorted(index, key=lambda i: -index[i].dim))
    ups = _upsets(index, order)
    downs: dict[str, list[str]] = {s.id: [] for s in scene.strata}
    for s in scene.strata:
        for ancestor in ups[s.id]:
            downs[ancestor].append(s.id)
    for s in scene.strata:
        if s.closure_chi is None:
            continue
        parts = [index[t].chi_c for t in downs[s.id]]
        if any(v is None for v in parts):
            continue
        total = sum(parts)
        if total != s.closure_chi:
            raise SceneValidationError(
                f"stratum {s.id!r}: closure_chi is {s.closure_chi} "
                f"but the closure strata sum to {total}"
            )
    for s in scene.strata:
        if s.csm_class is None:
            continue
        if s.csm_class.ambient != scene.ambient:
            raise SceneValidationError(f"stratum {s.id!r} csm class lives in a different ambient")
        # The degree of c_*(closure) is the Euler characteristic of the closure.
        if s.closure_chi is not None and s.csm_class.degree() != s.closure_chi:
            raise SceneValidationError(
                f"stratum {s.id!r}: csm class has degree {s.csm_class.degree()} "
                f"but closure_chi is {s.closure_chi}"
            )
        # c_*(closure) is the fundamental class, an effective cycle in the
        # stratum's codimension, plus terms of higher codimension.
        codim = scene.ambient.dim - s.dim
        low = sorted((sum(e), c) for e, c in s.csm_class.coefficients.items() if sum(e) <= codim)
        if low and low[0][0] < codim:
            raise SceneValidationError(f"stratum {s.id!r}: csm class has a term in codimension {low[0][0]}, below {codim}")
        if not low or low[0][1] < 0:
            raise SceneValidationError(f"stratum {s.id!r}: csm class is not effective and nonzero in codimension {codim}")
    return MappingProxyType(index), MappingProxyType(ups), order


class ConstructibleFunction(_Record):
    """An integer constructible function on a scene.

    ``values`` maps stratum ids to the nonzero values of the function on
    those strata, read-only; missing ids mean zero.
    """

    __slots__ = _fields = ("scene", "values")

    def __init__(self, scene: StrataScene, values: Mapping[str, int] = MappingProxyType({})):
        for stratum_id, value in values.items():
            if stratum_id not in scene.index:
                raise SceneValidationError(f"mu names unknown stratum {stratum_id!r}")
            if not _is_int(value):
                raise TypeError(f"value on stratum {stratum_id!r} must be an int, not {type(value).__name__}")
        _Record.__init__(self, scene, MappingProxyType({k: v for k, v in values.items() if v != 0}))

    def is_zero(self) -> bool:
        return not self.values

    def indicator_coefficients(self) -> dict[str, int]:
        """Coefficients of closure indicators, by Moebius inversion."""
        ups = self.scene.upsets
        # Peel from the top: each stratum comes after its up-set, so each
        # step only needs already-known coefficients.
        coeffs: dict[str, int] = {}
        for stratum_id in self.scene.peel_order:
            above = sum(coeffs.get(t, 0) for t in ups[stratum_id] if t != stratum_id)
            value = self.values.get(stratum_id, 0) - above
            if value:
                coeffs[stratum_id] = value
        return coeffs

    def euler(self) -> int:
        """Integrate against the compactly supported Euler characteristic."""
        missing = [s.id for s in self.scene.strata if s.id in self.values and s.chi_c is None]
        if missing:
            raise SceneValidationError(f"stratum {missing[0]!r} carries no chi_c data")
        return sum(v * self.scene.index[i].chi_c for i, v in self.values.items())


def unit_function(scene: StrataScene) -> ConstructibleFunction:
    """The function 1 on all of the scene."""
    return ConstructibleFunction(scene, {s.id: 1 for s in scene.strata})


SMOOTH_STRATUM = "smooth_locus"
SINGULAR_STRATUM = "singular_points"
