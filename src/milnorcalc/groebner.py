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
Long computations poll an optional cancellation callback once per
S-polynomial reduction and once per pivot column of an elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence, Union

from .polynomials import Exponent, PolyIdeal, Polynomial, jacobian_ideal

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
    result = Polynomial.zero(p.variables)
    result.terms = {_exp_add(e, exp): c * coeff for e, c in p.terms.items()}
    return result


def _monic(p: Polynomial, key) -> Polynomial:
    _, lead_coeff = _leading(p, key)
    if lead_coeff == 1:
        return p
    return p.scaled(Fraction(1) / lead_coeff)


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
    quotient_polys = []
    for q in quotients:
        poly = Polynomial.zero(f.variables)
        poly.terms = q
        quotient_polys.append(poly)
    rem = Polynomial.zero(f.variables)
    rem.terms = remainder
    return quotient_polys, rem


def normal_form(
    f: Polynomial,
    divisors: Union["GroebnerBasis", Sequence[Polynomial]],
    order: Optional[str] = None,
) -> Polynomial:
    """Return the remainder of ``f`` on division by ``divisors``.

    A GroebnerBasis may be passed directly, in which case its own
    monomial order is used and the remainder is a canonical normal
    form; for a plain divisor list the remainder depends on the list
    order.
    """
    if isinstance(divisors, GroebnerBasis):
        if order is None:
            order = divisors.order
        divisors = divisors.basis
    _, remainder = divide(f, divisors, order if order is not None else GREVLEX)
    return remainder


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


def _interreduce(basis: list[Polynomial], order: str) -> list[Polynomial]:
    key = _order_key(order)
    minimal: list[Polynomial] = []
    for g in sorted(basis, key=lambda p: key(_leading(p, key)[0])):
        lead = _leading(g, key)[0]
        if not any(_divides(_leading(h, key)[0], lead) for h in minimal):
            minimal.append(g)
    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        _, rem = divide(g, others, order)
        reduced.append(_monic(rem, key))
    reduced.sort(key=lambda p: key(_leading(p, key)[0]))
    return reduced


def _buchberger(
    generators: Iterable[Polynomial],
    order: str,
    cancel: Optional[CancelCallback],
) -> list[Polynomial]:
    key = _order_key(order)
    basis: list[Polynomial] = []
    for g in generators:
        if not g.is_zero():
            basis.append(_monic(g, key))
    if not basis:
        return []
    leads = [_leading(g, key)[0] for g in basis]
    pending = {(i, j) for j in range(len(basis)) for i in range(j)}
    while pending:
        if cancel is not None and cancel():
            raise ComputationCancelled("Groebner basis computation cancelled")
        i, j = min(pending, key=lambda p: (key(_exp_lcm(leads[p[0]], leads[p[1]])), p))
        pending.remove((i, j))
        lcm = _exp_lcm(leads[i], leads[j])
        if lcm == _exp_add(leads[i], leads[j]):
            continue
        if _chain_skip(i, j, lcm, leads, pending):
            continue
        s = s_polynomial(basis[i], basis[j], order)
        _, remainder = divide(s, basis, order)
        if remainder.is_zero():
            continue
        basis.append(_monic(remainder, key))
        leads.append(_leading(remainder, key)[0])
        new = len(basis) - 1
        pending.update((k, new) for k in range(new))
    return _interreduce(basis, order)


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced monic Groebner basis together with its monomial order."""

    variables: tuple[str, ...]
    order: str
    basis: tuple[Polynomial, ...]

    def leading_exponents(self) -> tuple[Exponent, ...]:
        key = _order_key(self.order)
        return tuple(_leading(g, key)[0] for g in self.basis)


def groebner(
    ideal: PolyIdeal, order: str = GREVLEX, cancel: Optional[CancelCallback] = None
) -> GroebnerBasis:
    """Return the reduced monic Groebner basis of ``ideal``."""
    if order not in (GREVLEX, LEX):
        raise ValueError(f"unknown monomial order {order!r}")
    basis = _buchberger(ideal.generators, order, cancel)
    return GroebnerBasis(ideal.variables, order, tuple(basis))


def _standard_monomials(basis: GroebnerBasis) -> Optional[list[Exponent]]:
    """Exponents of the standard monomials of k[x]/I, or None if infinite.

    They are the monomials divisible by no leading term, and they form
    a basis of k[x]/I.  There are finitely many exactly when every
    variable has a pure power among the leading terms; the finite case
    is enumerated over the staircase box.
    """
    if not basis.basis:
        return None
    leads = basis.leading_exponents()
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
    result = Polynomial.zero(extended)
    result.terms = {(0,) + e: c for e, c in p.terms.items()}
    return result


def _drop_first_variable(p: Polynomial, variables: tuple[str, ...]) -> Polynomial:
    result = Polynomial.zero(variables)
    result.terms = {e[1:]: c for e, c in p.terms.items()}
    return result


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
    key = _order_key(_ELIM_FIRST)
    eliminated = [g for g in basis if _leading(g, key)[0][0] == 0]
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
    result = Polynomial.zero(remaining)
    terms: dict[Exponent, Fraction] = {}
    for exp, coeff in F.terms.items():
        cut = exp[:idx] + exp[idx + 1 :]
        acc = terms.get(cut, Fraction(0)) + coeff
        if acc:
            terms[cut] = acc
        else:
            terms.pop(cut, None)
    result.terms = terms
    return result


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
    gens = [F.derivative(i) for i in range(len(F.variables))]
    gens.append(Polynomial.variable(F.variables, F.variables[chart_index]))
    basis = groebner(PolyIdeal(gens), cancel=cancel)
    if quotient_dim(basis) == math.inf:
        raise SingularitiesOutsideChartError("singularities outside the chart")


# A sparse matrix row: column index -> nonzero entry.
Row = dict[int, Fraction]


def _multiplication_rows(
    f: Polynomial, basis: GroebnerBasis, monomials: list[Exponent]
) -> list[Row]:
    """Multiplication by ``f`` on k[x]/I in the standard-monomial basis.

    Row j holds the coordinates of the normal form of f times the j-th
    standard monomial, so the rows are the columns of the matrix M_f;
    the transpose has the same ranks and its powers are transposes of
    the powers of M_f.
    """
    index = {m: j for j, m in enumerate(monomials)}
    rows = []
    for m in monomials:
        remainder = normal_form(_term_times(f, m, Fraction(1)), basis)
        rows.append({index[e]: c for e, c in remainder.terms.items()})
    return rows


def _square(rows: list[Row]) -> list[Row]:
    result = []
    for row in rows:
        acc: Row = {}
        for k, a in row.items():
            for j, b in rows[k].items():
                acc[j] = acc.get(j, 0) + a * b
        result.append({j: c for j, c in acc.items() if c})
    return result


def _rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank by exact elimination, polling ``cancel`` once per pivot column."""
    pending = [row for row in rows if row]
    rank = 0
    while pending:
        if cancel is not None and cancel():
            raise ComputationCancelled("rank computation cancelled")
        pivot = pending.pop()
        col = min(pivot)
        reduced = []
        for row in pending:
            if col in row:
                factor = row[col] / pivot[col]
                row = dict(row)
                for j, c in pivot.items():
                    value = row.get(j, 0) - factor * c
                    if value:
                        row[j] = value
                    else:
                        row.pop(j, None)
            if row:
                reduced.append(row)
        pending = reduced
        rank += 1
    return rank


def _stable_rank(rows: list[Row], cancel: Optional[CancelCallback]) -> int:
    """Rank at which the powers of a square matrix stop falling.

    The rank of M^k does not increase with k, so once M^(2^i) and
    M^(2^(i+1)) have equal rank it is constant from 2^i on; squaring
    reaches that point in about log2 of the matrix size steps.
    """
    rank = _rank(rows, cancel)
    while 0 < rank < len(rows):
        rows = _square(rows)
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
    jac_dim = quotient_dim(jac_basis)
    if jac_dim == math.inf:
        raise NonIsolatedSingularitiesError("non-isolated singularities")
    _validate_chart(F, chart_index, cancel)
    rows = _multiplication_rows(f, jac_basis, _standard_monomials(jac_basis))
    off_curve_dim = _stable_rank(rows, cancel)
    return MilnorResult(jac_dim - off_curve_dim, chart_name, off_curve_dim)
