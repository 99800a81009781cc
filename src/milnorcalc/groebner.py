"""Groebner bases over the rationals and the ideal-theoretic invariants
built on them: staircase quotient dimensions and total Milnor numbers
of projective hypersurfaces with isolated singularities.

Buchberger's algorithm, with the product and chain criteria, runs on
the packed grevlex monomials of ``polynomials``, the terms of a
``Polynomial`` as they are; only ``ideal_quotient`` repacks, adding a
tag variable and ordering by its power first.  A step past ``_LIMIT``
raises ``ValueError``, never a carry.

The Milnor count is linear algebra on the Jacobian algebra A = k[x]/J:
the matrix M_f of multiplication by the equation f, in the staircase
basis of A, is powered until its rank stops falling (Cox-Little-O'Shea,
Using Algebraic Geometry, ch. 2 and 4).  M_f is built without division
from border normal forms, integer rows over reduced denominators, and
ranked over the integers by ``linalg`` after one scaling by their lcm.
Chart validation takes the partials of F on the removed hyperplane w = 0
to be the parts of degree d - 1 of the partials of f and of f itself,
and stops once the leads found so far prove its quotient finite.
``cancel`` is polled once per S-pair and once per pivot column.

``total_milnor_number`` keeps its last ``_MILNOR_CACHE_SIZE`` results for
the process: a polynomial hashes by its variables and packed terms, so an
equal one in the same chart is answered with no basis computed.
"""

from __future__ import annotations

import functools
import heapq
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .chow import MathObstruction, _Record
from .linalg import CancelCallback, ComputationCancelled, Row, _combine, _stable_rank
from .polynomials import (
    _FIELD_BITS,
    _LIMIT,
    _TOO_BIG,
    PolyIdeal,
    Polynomial,
    _Layout,
    _layout,
    _pack,
    _unpack,
    jacobian_ideal,
)

# Results of total_milnor_number kept at once, the bound of the Chow
# layouts (chow._LAYOUT_CACHE_SIZE).  A report needs one, whatever its m.
_MILNOR_CACHE_SIZE = 32


class NonIsolatedSingularitiesError(MathObstruction):
    """The affine Jacobian quotient is infinite-dimensional."""


class SingularitiesOutsideChartError(MathObstruction):
    """Some singular point lies on the hyperplane removed by the chart."""


def _lcm(a: int, b: int, lay: _Layout) -> int:
    # The guard bits of the fields where a >= b, widened to value masks.
    ge = ((a | lay.guards) - b) & lay.guards
    mask = ge - (ge >> _FIELD_BITS)
    v = ((a & mask) | (b & ~mask)) & ~(_LIMIT << lay.degree_shift)
    # Each degree is at most _LIMIT, so the gathered sum carries nowhere.
    degree = (v * lay.spread >> lay.top) & (2 * _LIMIT + 1)
    if degree > _LIMIT:
        raise ValueError(_TOO_BIG)
    return v | degree << lay.degree_shift


# A basis entry: (lead, monic tail, bound, quotient).  The bound is the largest
# term degree, packed: a multiple by x^shift overflows when (bound + shift) & G.
_Entry = tuple[int, dict[int, Fraction], int, Optional[dict]]


def _entry(terms: dict[int, Fraction], lay: _Layout, quotient: Optional[dict] = None) -> _Entry:
    lead = max(terms, key=lay.key)
    lc = terms[lead]
    tail = dict(terms) if lc == 1 else {m: c / lc for m, c in terms.items() if m != lead}
    tail.pop(lead, None)
    return lead, tail, max(map((_LIMIT << lay.degree_shift).__and__, terms)), quotient


def _reduce(work: dict[int, Fraction], basis: Sequence[_Entry], lay: _Layout) -> dict[int, Fraction]:
    """The remainder of ``work``, which is consumed, on division by ``basis``:
    each term, largest first, is cancelled by the first entry whose lead
    divides it, or moved to the remainder."""
    key, guards = lay.key, lay.guards
    remainder = {}
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        tg = t | guards
        for lead, tail, bound, quotient in basis:
            if (tg - lead) & guards == guards:
                shift = t - lead
                if (bound + shift) & guards:
                    raise ValueError(_TOO_BIG)
                if quotient is not None:
                    quotient[shift] = c
                for e, d in tail.items():
                    e += shift
                    v = work.get(e, 0) - c * d
                    if v:
                        work[e] = v
                    else:
                        del work[e]
                break
        else:
            remainder[t] = c
    return remainder


def _spoly(a: _Entry, b: _Entry, lcm: int, lay: _Layout) -> dict[int, Fraction]:
    """lcm / lead(a) times a minus lcm / lead(b) times b, for monic a and b."""
    (la, ta, ba, _), (lb, tb, bb, _) = a, b
    if (ba + lcm - la) & lay.guards or (bb + lcm - lb) & lay.guards:
        raise ValueError(_TOO_BIG)
    work = {e + lcm - la: c for e, c in ta.items()}
    for e, c in tb.items():
        e += lcm - lb
        v = work.get(e, 0) - c
        if v:
            work[e] = v
        else:
            del work[e]
    return work


def _bounds(leads: Iterable[int], lay: _Layout) -> Optional[list[int]]:
    """Per variable, the least exponent of a pure power among ``leads``,
    a constant counting as the power 0 of each; None when some variable
    has none, so that the staircase of the leads is infinite."""
    # With each lead, the guard bits of the variables it holds.
    support = [(lead, ((lead | lay.guards) - lay.ones) & (lay.ones << _FIELD_BITS)) for lead in leads]
    bounds = []
    for s in lay.shifts:
        pure = [lead >> s & _LIMIT for lead, held in support if held in (0, 1 << (s + _FIELD_BITS))]
        if not pure:
            return None
        bounds.append(min(pure))
    return bounds


def _buchberger(
    generators: Iterable[dict], lay: _Layout, cancel: Optional[CancelCallback], stop_when_finite=False
) -> dict[int, dict[int, Fraction]]:
    """The reduced monic basis, as each element's tail by its lead, in
    increasing order.  With ``stop_when_finite``, return the monic tails
    unreduced once the leads hold a pure power of every variable: in(I)
    then has a finite staircase, which is all that chart validation asks."""
    key, guards = lay.key, lay.guards
    basis = [_entry(g, lay) for g in generators if g]
    # Pairs wait on a heap in (key(lcm), i, j) order, each pushed once
    # with its lcm; ``pending`` holds them too, for the chain criterion.
    queue: list[tuple[int, int, int, int]] = []
    pending: set[tuple[int, int]] = set()

    def pair_with_earlier(j: int) -> None:
        for k in range(j):
            lcm = _lcm(basis[k][0], basis[j][0], lay)
            heapq.heappush(queue, (key(lcm), k, j, lcm))
            pending.add((k, j))

    def finite() -> bool:
        return stop_when_finite and _bounds([entry[0] for entry in basis], lay) is not None

    # The generators alone may prove the quotient finite: then no pair is formed.
    if finite():
        return {lead: tail for lead, tail, *_ in basis}
    for j in range(len(basis)):
        pair_with_earlier(j)
    while queue:
        if cancel is not None and cancel():
            raise ComputationCancelled("Groebner basis computation cancelled")
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == basis[i][0] + basis[j][0]:
            continue
        # Chain criterion: some third lead divides the lcm and both pairs
        # with it were already treated.
        lg = lcm | guards
        if any(
            (lg - entry[0]) & guards == guards
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, entry in enumerate(basis)
            if k != i and k != j
        ):
            continue
        remainder = _reduce(_spoly(basis[i], basis[j], lcm, lay), basis, lay)
        if remainder:
            basis.append(_entry(remainder, lay))
            pair_with_earlier(len(basis) - 1)
            if finite():
                return {lead: tail for lead, tail, *_ in basis}
    # Interreduce the minimal basis: no other lead divides an element's
    # lead, so reducing its tail by the others leaves it monic.
    minimal: list[_Entry] = []
    for entry in sorted(basis, key=lambda entry: key(entry[0])):
        if not any(((entry[0] | guards) - other[0]) & guards == guards for other in minimal):
            minimal.append(entry)
    others = [minimal[:k] + minimal[k + 1 :] for k in range(len(minimal))]
    return {lead: _reduce(dict(tail), rest, lay) for (lead, tail, *_), rest in zip(minimal, others)}


class GroebnerBasis(_Record):
    """A reduced monic grevlex Groebner basis, stored packed and hashed by
    its variables; ``basis`` (by strictly increasing leads) is built on first use."""

    _fields = ("variables", "_reduced")
    # The __dict__ slot holds ``basis`` once it is built.
    __slots__ = _fields + ("__dict__",)

    def __init__(self, variables: tuple[str, ...], _reduced: dict[int, dict[int, Fraction]]):
        _Record.__init__(self, variables, _reduced)

    def __hash__(self):
        return hash((self.variables,))

    @functools.cached_property
    def basis(self) -> tuple[Polynomial, ...]:
        one = Fraction(1)
        return tuple(Polynomial._of_clean(self.variables, {m: one, **t}) for m, t in self._reduced.items())


def groebner(ideal: PolyIdeal, cancel: Optional[CancelCallback] = None) -> GroebnerBasis:
    """Return the reduced monic grevlex Groebner basis of ``ideal``."""
    lay = _layout(len(ideal.variables))
    return GroebnerBasis(ideal.variables, _buchberger([g._terms for g in ideal.generators], lay, cancel))


def _standard_monomials(basis: GroebnerBasis) -> Optional[list[int]]:
    """Packed standard monomials of k[x]/I, divisible by no lead, or None
    if infinite; the staircase box is enumerated in tuple order."""
    lay = _layout(len(basis.variables))
    leads = list(basis._reduced)
    bounds = _bounds(leads, lay) if leads else None
    if bounds is None:
        return None
    monomials = [0]
    for unit, bound in zip(lay.units, bounds):
        monomials = [m + k * unit for m in monomials for k in range(bound)]
    guards = lay.guards
    return [m for m in monomials if not any(((m | guards) - lead) & guards == guards for lead in leads)]


def quotient_dim(basis: GroebnerBasis) -> Union[int, float]:
    """Vector-space dimension of k[x]/I, or ``math.inf``."""
    monomials = _standard_monomials(basis)
    return math.inf if monomials is None else len(monomials)


# Ideal quotients and saturation are off the report path: kept only
# because perfbench/tracer.py wraps them, and tested on their own.


def _eliminating(lay: _Layout) -> _Layout:
    """``lay`` in the order that eliminates x_0: the power of x_0 is read
    first, above every bit of the grevlex key, then grevlex."""
    width, grevlex = lay.degree_shift + _FIELD_BITS + 1, lay.key
    return lay._replace(key=lambda m: (m & _LIMIT) << width | grevlex(m))


def ideal_quotient(ideal: PolyIdeal, f: Polynomial, cancel: Optional[CancelCallback] = None) -> PolyIdeal:
    """Return the ideal quotient I : (f).

    Computed from the intersection with (f): a tag variable t is
    prepended, the basis of t*I + (1-t)*(f) is computed in an order
    eliminating t, the t-free elements are kept, and each is divided
    exactly by f.
    """
    if f.is_zero():
        raise ValueError("cannot form a quotient by the zero polynomial")
    if f.variables != ideal.variables:
        raise ValueError("polynomial and ideal use different variable lists")
    if f.is_constant():
        return ideal
    nonzero = [g for g in ideal.generators if not g.is_zero()]
    if not nonzero:
        return ideal
    # t is the first variable, whose power the elimination key reads first.
    home, lay = _layout(len(ideal.variables)), _eliminating(_layout(len(ideal.variables) + 1))

    def times_t(p: Polynomial, power: int, sign: int) -> dict[int, Fraction]:
        return {_pack((power, *_unpack(m, home)), lay): sign * c for m, c in p._terms.items()}

    lifted = [times_t(g, 1, 1) for g in nonzero] + [{**times_t(f, 0, 1), **times_t(f, 1, -1)}]
    basis = _buchberger(lifted, lay, cancel)
    lc = f._terms[max(f._terms, key=home.key)]
    quotient_gens = []
    for lead, tail in basis.items():
        if not lead & _LIMIT:
            g = {_pack(_unpack(m, lay)[1:], home): c for m, c in {lead: Fraction(1), **tail}.items()}
            # Dividing by f made monic fills ``quotient``; dividing that by lc gives g / f.
            quotient: dict[int, Fraction] = {}
            if _reduce(g, [_entry(f._terms, home, quotient)], home):
                raise ArithmeticError("division was expected to be exact")
            quotient_gens.append(Polynomial._of_clean(ideal.variables, {m: c / lc for m, c in quotient.items()}))
    if not quotient_gens:
        raise ArithmeticError("the intersection with a principal ideal came out empty")
    return PolyIdeal(quotient_gens)


def saturate(ideal: PolyIdeal, f: Polynomial, cancel: Optional[CancelCallback] = None) -> PolyIdeal:
    """Return the saturation I : (f)^infinity.

    Iterates the ideal quotient until the reduced Groebner basis stops
    changing; the result is returned with that basis as generators.
    """
    if f.is_zero():
        raise ValueError("cannot saturate by the zero polynomial")
    current = ideal
    previous = groebner(ideal, cancel=cancel).basis
    while True:
        quotient = ideal_quotient(current, f, cancel)
        basis = groebner(quotient, cancel=cancel).basis
        if basis == previous:
            return PolyIdeal(basis or (Polynomial.zero(ideal.variables),))
        previous = basis
        current = PolyIdeal(basis)


def dehomogenize(F: Polynomial, chart: str) -> Polynomial:
    """Set the chart variable, named by ``chart``, to 1 and drop it from the variable list."""
    if chart not in F.variables:
        raise ValueError(f"chart {chart!r} is not one of the variables {', '.join(F.variables)}")
    idx = F.variables.index(chart)
    remaining = F.variables[:idx] + F.variables[idx + 1 :]
    # On grevlex the fields of x_0, x_1, ... rise from bit 0 with the degree
    # on top: the fields above the chart's move down one, taking off its power.
    s, width = _layout(len(F.variables)).shifts[idx], _FIELD_BITS + 1
    low, degree_shift = (1 << s) - 1, _layout(len(remaining)).degree_shift
    terms: dict[int, Fraction] = {}
    for m, coeff in F._terms.items():
        cut = (m & low | m >> (s + width) << s) - ((m >> s & _LIMIT) << degree_shift)
        terms[cut] = terms[cut] + coeff if cut in terms else coeff
    return Polynomial._of_clean(remaining, {m: c for m, c in terms.items() if c})


class MilnorResult(_Record):
    """Total Milnor number of the chart singularities.

    ``off_curve_dim`` is the part of dim k[x]/J on which multiplication
    by the chart equation f is invertible, i.e. the contribution of
    critical points of f that do not lie on the hypersurface.
    """

    __slots__ = _fields = ("total_milnor", "chart", "off_curve_dim")

    def __init__(self, total_milnor: int, chart: str, off_curve_dim: int):
        _Record.__init__(self, total_milnor, chart, off_curve_dim)


def _validate_chart(f: Polynomial, partials: Sequence[Polynomial], degree: int, cancel: Optional[CancelCallback]) -> None:
    # The singular locus must avoid the removed hyperplane w = 0, where dF/dx_i
    # and dF/dw are the parts of degree d - 1 of df/dx_i and of f: the quotient
    # by those parts must be finite (k if no variable is left).
    if not f.variables:
        return
    lay = _layout(len(f.variables))
    shift = lay.degree_shift
    gens = [{m: c for m, c in p._terms.items() if m >> shift == degree - 1} for p in (*partials, f)]
    basis = _buchberger(gens, lay, cancel, stop_when_finite=True)
    if quotient_dim(GroebnerBasis(f.variables, basis)) == math.inf:
        raise SingularitiesOutsideChartError("singularities outside the chart")


def _multiplication_rows(f: dict, basis: GroebnerBasis, monomials: list[int]) -> tuple[list[Row], int]:
    """Multiplication by the packed ``f`` on k[x]/I in the standard basis,
    as (rows of L * M_f, L).  Row j is the normal form of f times the
    j-th standard monomial (a column of M_f), an integer row over its
    reduced denominator, and L is the lcm of those.  Each form is built
    once, without division (Faugere-Gianni-Lazard-Mora, J. Symb. Comp.
    16, 1993): a standard monomial is its own form, a lead lt(g) has
    lt(g) - g, and any other u is x_i times the form of u / x_i, taken
    non-standard on the border, in increasing order.
    """
    lay = _layout(len(basis.variables))
    index = {m: j for j, m in enumerate(monomials)}
    forms: dict[int, tuple[Row, int]] = {m: ({j: 1}, 1) for m, j in index.items()}
    for lead, tail in basis._reduced.items():
        den = math.lcm(*(c.denominator for c in tail.values()))
        forms[lead] = ({index[e]: -c.numerator * (den // c.denominator) for e, c in tail.items()}, den)
    # Per variable x_i: its field, x_i, and x_i times each standard monomial.
    up = [(s, unit, [m + unit for m in monomials]) for s, unit in zip(lay.shifts, lay.units)]
    for u in sorted({u for *_, up_i in up for u in up_i} - forms.keys(), key=lay.key):
        # A variable whose removal from u leaves a non-standard monomial.
        unit, up_i = next((unit, up_i) for s, unit, up_i in up if u >> s & _LIMIT and u - unit not in index)
        forms[u] = _combine(*forms[u - unit], lambda col: forms[up_i[col]])
    # From here on, x_i times a form needs only the forms of up[i].
    steps = [(s, unit, [forms[u] for u in up_i].__getitem__) for s, unit, up_i in up]

    def form_of(u: int) -> tuple[Row, int]:
        if u not in forms:
            unit, up_form = next((unit, up_form) for s, unit, up_form in steps if u >> s & _LIMIT)
            forms[u] = _combine(*form_of(u - unit), up_form)
        return forms[u]

    den = math.lcm(*[c.denominator for c in f.values()])
    numerators = {m: c.numerator * (den // c.denominator) for m, c in f.items()}
    # The staircase is enumerated so that m / x_i comes before m.
    rows: dict[int, tuple[Row, int]] = {}
    for m in monomials:
        step = next(((unit, up_form) for s, unit, up_form in steps if m >> s & _LIMIT), None)
        rows[m] = _combine(*rows[m - step[0]], step[1]) if step else _combine(numerators, den, form_of)
    scale = math.lcm(*[d for _, d in rows.values()])
    return [{j: v * (scale // d) for j, v in row.items()} for row, d in rows.values()], scale


@functools.lru_cache(maxsize=_MILNOR_CACHE_SIZE)
def total_milnor_number(F: Polynomial, chart: str, cancel: Optional[CancelCallback] = None) -> MilnorResult:
    """Sum the Milnor numbers of a hypersurface with isolated singularities.

    ``F`` must be homogeneous of positive degree and all its singular
    points must lie in the affine chart where the chart variable is
    nonzero.  Let f be the dehomogenized equation and A = k[x]/J for
    its Jacobian ideal J.  A is the product of the local algebras at
    the critical points of f, and multiplication by f is nilpotent on
    exactly the factors at points of the hypersurface and invertible on
    the others.  So the rank at which the powers of that multiplication
    matrix settle is ``off_curve_dim``, and the total is dim A minus it.

    The result depends on ``F`` and ``chart`` alone and is kept for the
    process, among the last ``_MILNOR_CACHE_SIZE``: a later call with
    equal arguments returns it without computing, and polls no
    ``cancel``.  ``cancel`` is part of the key, held with it, so a new
    callback always gets a computation that polls it.  An exception is
    never kept.
    """
    if F.is_zero():
        raise ValueError("zero polynomial")
    if not F.is_homogeneous():
        raise ValueError("polynomial is not homogeneous")
    degree = F.total_degree()
    if degree < 1:
        raise ValueError("polynomial degree must be at least 1")
    f = dehomogenize(F, chart)
    # F is homogeneous, so each term of f keeps the degree of F less
    # the power of the chart variable: the restriction to the
    # hyperplane is read from the degree field.
    if f.is_constant():
        # The hypersurface misses the chart entirely.
        _validate_chart(f, (), degree, cancel)
        return MilnorResult(0, chart, 0)
    jacobian = jacobian_ideal(f)
    jac_basis = groebner(jacobian, cancel=cancel)
    monomials = _standard_monomials(jac_basis)
    if monomials is None:
        # With J + (f) finite, each positive-dimensional component of the
        # critical locus lies off X, where f is a constant c != 0: along it
        # dF/dx_i = 0 and dF/dw = d*c*w^(d-1), so for d >= 2 its closure
        # meets w = 0 in singular points of X (for d = 1, J is (1)).
        if quotient_dim(groebner(PolyIdeal((*jacobian.generators, f)), cancel)) < math.inf:
            raise SingularitiesOutsideChartError("singularities outside the chart")
        raise NonIsolatedSingularitiesError("non-isolated singularities")
    _validate_chart(f, jacobian.generators, degree, cancel)
    rows, _ = _multiplication_rows(f._terms, jac_basis, monomials)
    off_curve_dim = _stable_rank(rows, cancel)
    return MilnorResult(len(monomials) - off_curve_dim, chart, off_curve_dim)
