"""Groebner bases over the rationals and the ideal-theoretic invariants
built on them: staircase quotient dimensions and total Milnor numbers
of projective hypersurfaces with isolated singularities.

The basis computation is Buchberger's algorithm with the coprimality
(product) criterion and the chain criterion, nothing fancier.  Inputs
here are desk-scale Jacobian ideals, so clarity and exactness win over
asymptotics.  The Milnor count is linear algebra on the Jacobian
algebra A = k[x]/J: the matrix of multiplication by the equation f,
written in the staircase basis of A, is powered until its rank stops
falling (Cox-Little-O'Shea, Using Algebraic Geometry, ch. 2 and 4).
That matrix is built from normal forms on the border of the staircase,
without division, and its ranks are taken over the integers.
Long computations poll an optional cancellation callback once per
S-polynomial reduction and once per pivot column of an elimination.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .polynomials import Exponent, PolyIdeal, Polynomial, Scalar, jacobian_ideal

GREVLEX = "grevlex"
LEX = "lex"
_ELIM_FIRST = "elim-first"

CancelCallback = Callable[[], bool]


class ComputationCancelled(RuntimeError):
    """A caller-supplied cancellation callback returned True."""


class NonIsolatedSingularitiesError(ValueError):
    """The affine Jacobian quotient is infinite-dimensional."""


class SingularitiesOutsideChartError(ValueError):
    """Some singular point lies on the hyperplane removed by the chart."""


def _order_key(order: str) -> Callable[[Exponent], tuple]:
    """Return a key function; larger key means larger monomial."""
    if order == LEX:
        return lambda e: e
    if order == GREVLEX:
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    if order == _ELIM_FIRST:
        # Block order eliminating the first variable: compare its degree,
        # then grevlex on the remaining variables.
        return lambda e: (e[0], sum(e[1:]), tuple(-x for x in reversed(e[1:])))
    raise ValueError(f"unknown monomial order {order!r}")


def _divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x - y for x, y in zip(a, b))


def _exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _exp_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _leading(p: Polynomial, key) -> tuple[Exponent, Fraction]:
    exp = max(p.terms, key=key)
    return exp, p.terms[exp]


def _term_times(p: Polynomial, exp: Exponent, coeff: Fraction) -> Polynomial:
    return Polynomial._of_clean(p.variables, {_exp_add(e, exp): c * coeff for e, c in p.terms.items()})


def divide(
    f: Polynomial, divisors: Sequence[Polynomial], order: str = GREVLEX
) -> tuple[list[Polynomial], Polynomial]:
    """Divide ``f`` by a divisor list, returning (quotients, remainder).

    The remainder has no term divisible by any divisor leading term, and
    f == sum(q_i * divisors_i) + remainder holds exactly.
    """
    key = _order_key(order)
    data = []
    for g in divisors:
        if g.is_zero():
            data.append(None)
        else:
            exp, coeff = _leading(g, key)
            data.append((exp, coeff, g))
    quotients: list[dict[Exponent, Fraction]] = [{} for _ in divisors]
    remainder: dict[Exponent, Fraction] = {}
    work = dict(f.terms)
    while work:
        exp = max(work, key=key)
        coeff = work.pop(exp)
        for slot, entry in enumerate(data):
            if entry is None:
                continue
            lead_exp, lead_coeff, g = entry
            if _divides(lead_exp, exp):
                shift = _exp_sub(exp, lead_exp)
                factor = coeff / lead_coeff
                quotients[slot][shift] = quotients[slot].get(shift, Fraction(0)) + factor
                for ge, gc in g.terms.items():
                    if ge == lead_exp:
                        continue
                    target = _exp_add(ge, shift)
                    acc = work.get(target, Fraction(0)) - factor * gc
                    if acc:
                        work[target] = acc
                    else:
                        work.pop(target, None)
                break
        else:
            remainder[exp] = coeff
    quotient_polys = [Polynomial._of_clean(f.variables, q) for q in quotients]
    return quotient_polys, Polynomial._of_clean(f.variables, remainder)


def s_polynomial(f: Polynomial, g: Polynomial, order: str = GREVLEX) -> Polynomial:
    """Return the S-polynomial cancelling the leading terms of f and g."""
    key = _order_key(order)
    ef, cf = _leading(f, key)
    eg, cg = _leading(g, key)
    lcm = _exp_lcm(ef, eg)
    left = _term_times(f, _exp_sub(lcm, ef), Fraction(1) / cf)
    right = _term_times(g, _exp_sub(lcm, eg), Fraction(1) / cg)
    return left - right


def _chain_skip(i: int, j: int, lcm: Exponent, leads: list[Exponent], pending: set) -> bool:
    # Chain criterion: some third basis element divides the pair lcm and
    # both pairs with it were already treated.
    for k in range(len(leads)):
        if k == i or k == j:
            continue
        if _divides(leads[k], lcm):
            first = (min(i, k), max(i, k))
            second = (min(j, k), max(j, k))
            if first not in pending and second not in pending:
                return True
    return False


def _interreduce(
    basis: list[Polynomial], leads: list[Exponent], order: str
) -> dict[Exponent, Polynomial]:
    # Each element of the minimal basis is reduced by the others.  No
    # other lead divides its lead, so the remainder keeps that term with
    # coefficient 1: the result is monic and stays in increasing order.
    key = _order_key(order)
    minimal: list[tuple[Exponent, Polynomial]] = []
    for lead, g in sorted(zip(leads, basis), key=lambda pair: key(pair[0])):
        if not any(_divides(other, lead) for other, _ in minimal):
            minimal.append((lead, g))
    reduced = {}
    for idx, (lead, g) in enumerate(minimal):
        others = [h for _, h in minimal[:idx] + minimal[idx + 1 :]]
        reduced[lead] = divide(g, others, order)[1]
    return reduced


def _buchberger(
    generators: Iterable[Polynomial],
    order: str,
    cancel: Optional[CancelCallback],
) -> dict[Exponent, Polynomial]:
    key = _order_key(order)
    leads: list[Exponent] = []
    basis: list[Polynomial] = []
    # Pairs wait on a heap in (key(lcm), i, j) order, each pushed once
    # with its lcm; ``pending`` holds them too, for the chain criterion.
    queue: list[tuple[tuple, int, int, Exponent]] = []
    pending: set[tuple[int, int]] = set()

    def add_monic(p: Polynomial) -> None:
        lead, coeff = _leading(p, key)
        for k, other in enumerate(leads):
            lcm = _exp_lcm(other, lead)
            heapq.heappush(queue, (key(lcm), k, len(leads), lcm))
            pending.add((k, len(leads)))
        leads.append(lead)
        basis.append(p if coeff == 1 else p.scaled(Fraction(1) / coeff))

    for g in generators:
        if not g.is_zero():
            add_monic(g)
    while queue:
        if cancel is not None and cancel():
            raise ComputationCancelled("Groebner basis computation cancelled")
        _, i, j, lcm = heapq.heappop(queue)
        pending.remove((i, j))
        if lcm == _exp_add(leads[i], leads[j]):
            continue
        if _chain_skip(i, j, lcm, leads, pending):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        _, remainder = divide(s, basis, order)
        if remainder.is_zero():
            continue
        add_monic(remainder)
    return _interreduce(basis, leads, order)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced monic Groebner basis, its monomial order, and ``leads``:
    the leading exponent of each element, in strictly increasing order."""

    variables: tuple[str, ...]
    order: str
    basis: tuple[Polynomial, ...]
    leads: tuple[Exponent, ...]


def groebner(
    ideal: PolyIdeal, order: str = GREVLEX, cancel: Optional[CancelCallback] = None
) -> GroebnerBasis:
    """Return the reduced monic Groebner basis of ``ideal``."""
    if order not in (GREVLEX, LEX):
        raise ValueError(f"unknown monomial order {order!r}")
    reduced = _buchberger(ideal.generators, order, cancel)
    return GroebnerBasis(ideal.variables, order, tuple(reduced.values()), tuple(reduced))


def _standard_monomials(basis: GroebnerBasis) -> Optional[list[Exponent]]:
    """Exponents of the standard monomials of k[x]/I, or None if infinite.

    They are the monomials divisible by no leading term, and they form
    a basis of k[x]/I.  There are finitely many exactly when every
    variable has a pure power among the leading terms; the finite case
    is enumerated over the staircase box.
    """
    if not basis.basis:
        return None
    leads = basis.leads
    if any(sum(e) == 0 for e in leads):
        return []
    nvars = len(basis.variables)
    bounds = []
    for i in range(nvars):
        pure = [
            e[i]
            for e in leads
            if e[i] > 0 and all(e[j] == 0 for j in range(nvars) if j != i)
        ]
        if not pure:
            return None
        bounds.append(min(pure))
    return [
        monomial
        for monomial in itertools.product(*(range(b) for b in bounds))
        if not any(_divides(lead, monomial) for lead in leads)
    ]


def quotient_dim(basis: GroebnerBasis) -> Union[int, float]:
    """Vector-space dimension of k[x]/I, or ``math.inf``."""
    monomials = _standard_monomials(basis)
    return math.inf if monomials is None else len(monomials)


# Ideal quotients and saturation are off the report path: kept only as
# the tests' oracle and because perfbench/tracer.py wraps them.


def _fresh_name(variables: tuple[str, ...]) -> str:
    if "t" not in variables:
        return "t"
    k = 0
    while f"t{k}" in variables:
        k += 1
    return f"t{k}"


def _lift(p: Polynomial, extended: tuple[str, ...]) -> Polynomial:
    return Polynomial._of_clean(extended, {(0,) + e: c for e, c in p.terms.items()})


def _drop_first_variable(p: Polynomial, variables: tuple[str, ...]) -> Polynomial:
    return Polynomial._of_clean(variables, {e[1:]: c for e, c in p.terms.items()})


def _exact_quotient(f: Polynomial, g: Polynomial) -> Polynomial:
    quotients, remainder = divide(f, [g], GREVLEX)
    if not remainder.is_zero():
        raise ArithmeticError("division was expected to be exact")
    return quotients[0]


def ideal_quotient(
    ideal: PolyIdeal, f: Polynomial, cancel: Optional[CancelCallback] = None
) -> PolyIdeal:
    """Return the ideal quotient I : (f).

    Computed from the intersection with (f): a tag variable t is
    prepended, the basis of t*I + (1-t)*(f) is computed in a block
    order eliminating t, the t-free elements are kept, and each is
    divided exactly by f.
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
    tag = _fresh_name(ideal.variables)
    extended = (tag,) + ideal.variables
    t = Polynomial.variable(extended, tag)
    one = Polynomial.constant(extended, 1)
    lifted = [t * _lift(g, extended) for g in nonzero]
    lifted.append((one - t) * _lift(f, extended))
    basis = _buchberger(lifted, _ELIM_FIRST, cancel)
    eliminated = [g for lead, g in basis.items() if lead[0] == 0]
    quotient_gens = [
        _exact_quotient(_drop_first_variable(g, ideal.variables), f) for g in eliminated
    ]
    if not quotient_gens:
        raise ArithmeticError("the intersection with a principal ideal came out empty")
    return PolyIdeal(quotient_gens)


def saturate(
    ideal: PolyIdeal, f: Polynomial, cancel: Optional[CancelCallback] = None
) -> PolyIdeal:
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
            if basis:
                return PolyIdeal(basis)
            return PolyIdeal((Polynomial.zero(ideal.variables),))
        previous = basis
        current = PolyIdeal(basis)


def _chart_index(F: Polynomial, chart: Union[int, str]) -> int:
    """Position of the chart variable, given by name or by index."""
    if chart in F.variables:
        return F.variables.index(chart)
    if isinstance(chart, int) and 0 <= chart < len(F.variables):
        return chart
    raise ValueError(f"chart {chart!r} is not one of the variables {', '.join(F.variables)}")


def dehomogenize(F: Polynomial, chart: Union[int, str]) -> Polynomial:
    """Set the chart variable to 1 and drop it from the variable list."""
    idx = _chart_index(F, chart)
    remaining = F.variables[:idx] + F.variables[idx + 1 :]
    terms: dict[Exponent, Fraction] = {}
    for exp, coeff in F.terms.items():
        cut = exp[:idx] + exp[idx + 1 :]
        acc = terms.get(cut, Fraction(0)) + coeff
        if acc:
            terms[cut] = acc
        else:
            terms.pop(cut, None)
    return Polynomial._of_clean(remaining, terms)


@dataclass(frozen=True)
class MilnorResult:
    """Total Milnor number of the chart singularities.

    ``off_curve_dim`` is the part of dim k[x]/J on which multiplication
    by the chart equation f is invertible, i.e. the contribution of
    critical points of f that do not lie on the hypersurface.
    """

    total_milnor: int
    chart: str
    off_curve_dim: int


def _validate_chart(F: Polynomial, chart_index: int, cancel: Optional[CancelCallback]) -> None:
    # The singular locus must avoid the removed hyperplane: the cone on
    # (all partials, chart variable) has to be supported at the origin.
    # Its quotient is that of the partials restricted to the hyperplane,
    # a ring in one variable fewer; with no variable left it is k.
    if len(F.variables) == 1:
        return
    remaining = F.variables[:chart_index] + F.variables[chart_index + 1 :]
    gens = []
    for i in range(len(F.variables)):
        restricted = {
            e[:chart_index] + e[chart_index + 1 :]: c
            for e, c in F.derivative(i).terms.items()
            if e[chart_index] == 0
        }
        gens.append(Polynomial._of_clean(remaining, restricted))
    basis = groebner(PolyIdeal(gens), cancel=cancel)
    if quotient_dim(basis) == math.inf:
        raise SingularitiesOutsideChartError("singularities outside the chart")


# A sparse matrix row: column index -> nonzero entry.
Row = dict[int, Scalar]


def _combine(coefficients: Mapping, row_of: Callable) -> Row:
    """Sum c * row_of(k) over the items k: c of ``coefficients``, dropping zero entries."""
    acc: Row = {}
    for k, c in coefficients.items():
        for j, d in row_of(k).items():
            acc[j] = acc.get(j, 0) + c * d
    return {j: c for j, c in acc.items() if c}


def _multiplication_rows(
    f: Polynomial, basis: GroebnerBasis, monomials: list[Exponent]
) -> list[Row]:
    """Multiplication by ``f`` on k[x]/I in the standard-monomial basis.

    Row j holds the coordinates of the normal form of f times the j-th
    standard monomial, so the rows are the columns of the matrix M_f;
    the transpose has the same ranks and its powers are transposes of
    the powers of M_f.

    No polynomial is divided; each normal form is built once, from the
    reduced monic basis and from forms built before it, and stored.
    Multiplication by x_i of a normal form needs only the forms of the
    border: x_i times a standard monomial.  A standard monomial is its
    own normal form, and a leading term lt(g) has the normal form
    lt(g) - g, whose terms are standard.  Every other border monomial u
    is x_i times a non-standard u / x_i, and its form is x_i times that
    of u / x_i; border forms are built in increasing monomial order, so
    each uses smaller ones (Faugere-Gianni-Lazard-Mora, J. Symb. Comp.
    16, 1993).  Beyond the border, the form of u is x_i times that of
    u / x_i for any variable x_i dividing u.  The first row is the sum
    of c_e times the form of x^e over the terms of f, and the row of m
    is x_i times the row of m / x_i.  Each of these sums of multiples
    of stored rows is one ``_combine``.
    """
    key = _order_key(basis.order)
    index = {m: j for j, m in enumerate(monomials)}
    nvars = len(basis.variables)
    units = [tuple(int(k == i) for k in range(nvars)) for i in range(nvars)]
    forms: dict[Exponent, Row] = {m: {j: 1} for m, j in index.items()}
    for lead, g in zip(basis.leads, basis.basis):
        forms[lead] = {index[e]: -c for e, c in g.terms.items() if e != lead}

    # up[i][j] is x_i times the j-th standard monomial.
    up = [[_exp_add(m, unit) for m in monomials] for unit in units]

    def times(i: int, form: Row) -> Row:
        return _combine(form, lambda col: forms[up[i][col]])

    border = {u for shifted in up for u in shifted} - index.keys()
    for u in sorted(border - forms.keys(), key=key):
        # A variable whose removal from u leaves a non-standard monomial.
        i = next(i for i in range(nvars) if u[i] and _exp_sub(u, units[i]) not in index)
        forms[u] = times(i, forms[_exp_sub(u, units[i])])

    def form_of(u: Exponent) -> Row:
        if u not in forms:
            i = next(i for i in range(nvars) if u[i])
            forms[u] = times(i, form_of(_exp_sub(u, units[i])))
        return forms[u]

    # The staircase is enumerated so that m / x_i comes before m.
    rows: dict[Exponent, Row] = {}
    for m in monomials:
        i = next((i for i in range(nvars) if m[i]), None)
        if i is None:
            rows[m] = _combine(f.terms, form_of)
        else:
            rows[m] = times(i, rows[_exp_sub(m, units[i])])
    return list(rows.values())


def _rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank by fraction-free elimination over the integers.

    Each combination of two rows cancels the pivot column with integer
    multipliers, and the new row is divided by the gcd of its entries,
    which keeps the entries small and the rank unchanged.  ``cancel``
    is polled once per pivot column.
    """
    pending = [row for row in rows if row]
    rank = 0
    while pending:
        if cancel is not None and cancel():
            raise ComputationCancelled("rank computation cancelled")
        pivot = pending.pop()
        col = min(pivot)
        p = pivot[col]
        reduced = []
        for row in pending:
            if col in row:
                a = row[col]
                g = math.gcd(a, p)
                row_factor, pivot_factor = p // g, a // g
                row = {j: row_factor * c for j, c in row.items()}
                for j, c in pivot.items():
                    value = row.get(j, 0) - pivot_factor * c
                    if value:
                        row[j] = value
                    else:
                        row.pop(j, None)
                content = math.gcd(*row.values())
                if content > 1:
                    row = {j: c // content for j, c in row.items()}
            if row:
                reduced.append(row)
        pending = reduced
        rank += 1
    return rank


def _stable_rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank at which the powers of a square matrix stop falling.

    The rank of M^k does not increase with k, so once M^(2^i) and
    M^(2^(i+1)) have equal rank it is constant from 2^i on; squaring
    reaches that point in about log2 of the matrix size steps.  The
    matrix is first scaled by one common denominator D, which is
    integral and has powers D^k M^k of the same ranks.  Scaling row
    by row would not do: it keeps the rank of M but not of its powers.
    """
    denominator = math.lcm(*(c.denominator for row in rows for c in row.values()))
    rows = [{j: c.numerator * (denominator // c.denominator) for j, c in row.items()} for row in rows]
    rank = _rank(rows, cancel)
    while 0 < rank < len(rows):
        rows = [_combine(row, rows.__getitem__) for row in rows]
        previous, rank = rank, _rank(rows, cancel)
        if rank == previous:
            break
    return rank


def total_milnor_number(
    F: Polynomial, chart: Union[int, str], cancel: Optional[CancelCallback] = None
) -> MilnorResult:
    """Sum the Milnor numbers of a hypersurface with isolated singularities.

    ``F`` must be homogeneous of positive degree and all its singular
    points must lie in the affine chart where the chart variable is
    nonzero.  Let f be the dehomogenized equation and A = k[x]/J for
    its Jacobian ideal J.  A is the product of the local algebras at
    the critical points of f, and multiplication by f is nilpotent on
    exactly the factors at points of the hypersurface and invertible on
    the others.  So the rank at which the powers of that multiplication
    matrix settle is ``off_curve_dim``, and the total is dim A minus it.
    """
    if F.is_zero():
        raise ValueError("zero polynomial")
    if not F.is_homogeneous():
        raise ValueError("polynomial is not homogeneous")
    if F.total_degree() < 1:
        raise ValueError("polynomial degree must be at least 1")
    chart_index = _chart_index(F, chart)
    chart_name = F.variables[chart_index]
    f = dehomogenize(F, chart_index)
    if f.is_constant():
        # The hypersurface misses the chart entirely.
        _validate_chart(F, chart_index, cancel)
        return MilnorResult(0, chart_name, 0)
    jacobian = jacobian_ideal(f)
    jac_basis = groebner(jacobian, cancel=cancel)
    monomials = _standard_monomials(jac_basis)
    if monomials is None:
        raise NonIsolatedSingularitiesError("non-isolated singularities")
    _validate_chart(F, chart_index, cancel)
    rows = _multiplication_rows(f, jac_basis, monomials)
    off_curve_dim = _stable_rank(rows, cancel)
    return MilnorResult(len(monomials) - off_curve_dim, chart_name, off_curve_dim)
