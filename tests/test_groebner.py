"""Buchberger, staircase dimensions, saturation and Milnor numbers.

Saturation is off the report path and is tested here on its own.  The
multiplication-matrix count in ``total_milnor_number`` is tested against
``reference``, which computes with sympy alone.
"""

import importlib
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from milnorcalc import linalg
from milnorcalc.groebner import (
    GREVLEX,
    ComputationCancelled,
    NonIsolatedSingularitiesError,
    SingularitiesOutsideChartError,
    dehomogenize,
    divide,
    groebner,
    ideal_quotient,
    quotient_dim,
    saturate,
    total_milnor_number,
)
from milnorcalc.polynomials import PolyIdeal, Polynomial, jacobian_ideal, parse_polynomial

XY = ("x", "y")
XYZ = ("x", "y", "z")

# The package re-exports the function groebner under the module's name.
groebner_module = importlib.import_module("milnorcalc.groebner")


def P(text, variables=XY):
    return parse_polynomial(text, variables)


def ideal(*texts, variables=XY):
    return PolyIdeal(tuple(P(t, variables) for t in texts))


def order_key(order):
    """The monomial order on exponent tuples: a larger key is a larger monomial."""
    if order == GREVLEX:
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    return lambda e: (e[0], sum(e[1:]), tuple(-x for x in reversed(e[1:])))


def linear_combination(pairs, variables):
    """The sum of the products q * g over (q, g) pairs, on exponent tuples."""
    terms = {}
    for q, g in pairs:
        for a, c in q.terms.items():
            for b, d in g.terms.items():
                e = tuple(map(operator.add, a, b))
                terms[e] = terms.get(e, 0) + c * d
    return Polynomial(variables, terms)


def s_polynomial(f, g, order):
    """The S-polynomial of f and g on exponent tuples, independent of the engine."""
    key = order_key(order)
    ef, eg = max(f.terms, key=key), max(g.terms, key=key)
    lcm = tuple(map(max, ef, eg))

    def shifted(p, e, sign):
        return Polynomial(p.variables, {tuple(a - b for a, b in zip(lcm, e)): sign / p.terms[e]}), p

    return linear_combination([shifted(f, ef, 1), shifted(g, eg, -1)], f.variables)


def basis_strings(gb):
    return {str(g) for g in gb.basis}


def remainder_mod(p, gb):
    """The remainder of p on division by a Groebner basis: its normal form."""
    return divide(p, gb.basis)[1]


def sympy_reduced_basis(gens):
    """The reduced monic grevlex basis of sympy, each element as a set of
    (exponent, coefficient) pairs."""
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(gens[0].variables)
    # from_dict converts the coefficients of the dict it is given in place.
    polys = [sympy.Poly.from_dict(dict(g.terms), *symbols, domain="QQ") for g in gens]
    expected = set()
    for g in sympy.groebner(polys, *symbols, order="grevlex", domain="QQ").polys:
        lead = g.LC(order="grevlex")
        expected.add(frozenset((e, Fraction(int(c.p), int(c.q))) for e, c in g.quo_ground(lead).terms()))
    return expected


class TestDivision:
    def test_exact_multiple(self):
        f = P("x^2*y + x*y^2")
        quotients, remainder = divide(f, [P("x*y")])
        assert remainder.is_zero()
        assert quotients[0] == P("x + y")

    def test_remainder_not_divisible(self):
        f = P("x^2 + y^2 + 1")
        _, remainder = divide(f, [P("x"), P("y")])
        assert remainder == P("1")

    def test_recombination(self):
        f = P("x^3*y - 2*x*y^2 + y + 5")
        divisors = [P("x*y - 1"), P("y^2 - x")]
        quotients, remainder = divide(f, divisors)
        assert linear_combination([*zip(quotients, divisors), (remainder, P("1"))], XY) == f

    def test_zero_dividend(self):
        quotients, remainder = divide(Polynomial.zero(XY), [P("x")])
        assert remainder.is_zero() and quotients[0].is_zero()


class TestBuchberger:
    def test_already_reduced(self):
        gb = groebner(ideal("x", "y"))
        assert basis_strings(gb) == {"x", "y"}

    def test_principal_ideal_made_monic(self):
        gb = groebner(ideal("3*x^2 - 6*y"))
        assert basis_strings(gb) == {"x^2 - 2*y"}

    def test_zero_generators_dropped(self):
        gb = groebner(ideal("0", "x"))
        assert basis_strings(gb) == {"x"}

    def test_membership_after_completion(self):
        gb = groebner(ideal("x^2 - y", "y^2 - x"))
        for text in ("x^2 - y", "y^2 - x", "x^4 - x"):
            assert remainder_mod(P(text), gb).is_zero()

    def test_classic_lex_elimination(self):
        # The classic lex example (x^2 + 2xy^2, xy + 2y^3 - 1), whose reduced
        # lex basis is {x, y^3 - 1/2}, on grevlex.
        gens = ideal("x^2 + 2*x*y^2", "x*y + 2*y^3 - 1").generators
        gb = groebner(PolyIdeal(gens))
        assert {frozenset(g.terms.items()) for g in gb.basis} == sympy_reduced_basis(gens)

    def test_classic_graded_basis(self):
        gb = groebner(ideal("x^3 - 2*x*y", "x^2*y + x - 2*y^2"))
        assert basis_strings(gb) == {"x^2", "x*y", "y^2 - 1/2*x"}

    def test_twisted_cubic_lex(self):
        # The twisted cubic, the classic lex example, on grevlex.
        gens = ideal("-x^2 + y", "-x^3 + z", variables=XYZ).generators
        gb = groebner(PolyIdeal(gens))
        assert {frozenset(g.terms.items()) for g in gb.basis} == sympy_reduced_basis(gens)

    def test_cancellation(self):
        with pytest.raises(ComputationCancelled):
            groebner(ideal("x^2 - y", "y^2 - x"), cancel=lambda: True)

    def test_equal_bases_compare_and_hash_equal(self):
        first = groebner(ideal("x^2 - y", "y^2 - x"))
        second = groebner(ideal("y^2 - x", "x^2 - y", "x^4 - x"))
        assert first == second and hash(first) == hash(second)
        assert first != groebner(ideal("x^2 - y"))

    def test_basis_is_interreduced(self):
        gb = groebner(ideal("x^2 - y", "y^2 - x"))
        leads = [max(g.terms, key=order_key(GREVLEX)) for g in gb.basis]
        for i, g in enumerate(gb.basis):
            others = [h for j, h in enumerate(gb.basis) if j != i]
            if not others:
                continue
            _, remainder = divide(g, others)
            assert remainder == g
        assert len(set(leads)) == len(leads)


class TestQuotientDim:
    def test_maximal_ideal(self):
        assert quotient_dim(groebner(ideal("x", "y"))) == 1

    def test_monomial_box(self):
        assert quotient_dim(groebner(ideal("x^2", "y^3"))) == 6

    def test_staircase_with_corner(self):
        assert quotient_dim(groebner(ideal("x^2", "x*y", "y^2"))) == 3

    def test_infinite(self):
        assert quotient_dim(groebner(ideal("x"))) == math.inf

    def test_unit_ideal(self):
        assert quotient_dim(groebner(ideal("x", "x + 1"))) == 0


class TestSaturation:
    def test_monomial_saturation(self):
        sat = saturate(ideal("x*y"), P("x"))
        assert basis_strings(groebner(sat)) == {"y"}

    def test_saturate_by_unit(self):
        base = ideal("x^2 - y", "y^2 - x")
        sat = saturate(base, P("1"))
        assert basis_strings(groebner(sat)) == basis_strings(groebner(base))

    def test_idempotent(self):
        once = saturate(ideal("x^2*y^3"), P("y"))
        twice = saturate(once, P("y"))
        assert basis_strings(groebner(once)) == basis_strings(groebner(twice))
        assert basis_strings(groebner(once)) == {"x^2"}

    def test_single_quotient(self):
        quotient = ideal_quotient(ideal("x*y"), P("x"))
        assert basis_strings(groebner(quotient)) == {"y"}

    def test_quotient_contains_ideal(self):
        base = ideal("x^2*y - x")
        sat = saturate(base, P("x"))
        gb = groebner(sat)
        for g in base.generators:
            assert remainder_mod(g, gb).is_zero()

    def test_nodal_chart_saturation(self):
        # Jacobian of y^2 - x^3 - x^2 saturated by the curve equation
        # keeps only the off-curve critical point.
        sat = saturate(ideal("2*y", "-3*x^2 - 2*x"), P("y^2 - x^3 - x^2"))
        assert quotient_dim(groebner(sat)) == 1


class TestSPolynomial:
    def test_cancels_leading_terms(self):
        f = P("x^2 + y")
        g = P("x*y + 1")
        lay = groebner_module._layout(2, GREVLEX)
        a, b = (groebner_module._entry(p._terms, lay) for p in (f, g))
        s = groebner_module._spoly(a, b, groebner_module._lcm(a[0], b[0], lay), lay)
        assert Polynomial._of_clean(XY, s) == P("y^2 - x") == s_polynomial(f, g, GREVLEX)


class TestMilnorNumbers:
    def test_nodal_cubic(self):
        F = P("y^2*z - x^3 - x^2*z", XYZ)
        result = total_milnor_number(F, "z")
        assert result.total_milnor == 1
        assert result.off_curve_dim == 1
        assert result.chart == "z"

    def test_cuspidal_cubic(self):
        result = total_milnor_number(P("y^2*z - x^3", XYZ), "z")
        assert result.total_milnor == 2
        assert result.off_curve_dim == 0

    def test_fermat_quartic_smooth(self):
        F = parse_polynomial("x^4 + y^4 + z^4 + w^4", ("x", "y", "z", "w"))
        assert total_milnor_number(F, "w").total_milnor == 0

    def test_brieskorn_quotient_dims(self):
        # dim Q[x,y]/(a x^{a-1}, b y^{b-1}) = (a-1)(b-1)
        for (a, b), expected in [((2, 2), 1), ((2, 3), 2), ((2, 4), 3), ((3, 5), 8)]:
            f = P(f"x^{a} + y^{b}")
            assert quotient_dim(groebner(jacobian_ideal(f))) == expected

    def test_tacnode_and_e8_totals(self):
        # Tacnode x^2 + y^4 and E8 x^3 + y^5 at the chart origin; the
        # extra x^{k+1} term keeps the curve smooth along z = 0, where
        # the plain homogenization x^k z^{d-k} + y^d would be singular.
        tacnode = P("x^2*z^2 + x^3*z + y^4", XYZ)
        assert total_milnor_number(tacnode, "z").total_milnor == 3
        e8 = P("x^3*z^2 + x^4*z + y^5", XYZ)
        assert total_milnor_number(e8, "z").total_milnor == 8

    def test_linear_change_of_coordinates(self):
        F = P("y^2*z - x^3 - x^2*z", XYZ)
        # y^2 z - (x + y)^3 - (x + y)^2 z, expanded.
        shifted = P("-x^3 - 3*x^2*y - 3*x*y^2 - y^3 - x^2*z - 2*x*y*z", XYZ)
        assert total_milnor_number(shifted, "z").total_milnor == 1
        assert total_milnor_number(F, "z").total_milnor == 1

    def test_non_reduced_is_non_isolated(self):
        with pytest.raises(NonIsolatedSingularitiesError, match="non-isolated"):
            total_milnor_number(P("x^2*y", XYZ), "z")

    def test_singular_point_off_chart(self):
        # The cusp sits at (0:0:1); in the y chart the affine curve is
        # smooth but validation must still reject the chart.
        with pytest.raises(SingularitiesOutsideChartError, match="outside the chart"):
            total_milnor_number(P("y^2*z - x^3", XYZ), "y")

    def test_hypersurface_missing_chart(self):
        # z^2 = 0 never meets the z chart; the dehomogenized equation
        # is the constant 1 and the singular locus is the line z = 0.
        with pytest.raises(SingularitiesOutsideChartError):
            total_milnor_number(P("z^2", XYZ), "z")

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            total_milnor_number(P("x^2 + y", XYZ), "z")

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            total_milnor_number(Polynomial.zero(XYZ), "z")

    def test_dehomogenize(self):
        f = dehomogenize(P("y^2*z - x^3 - x^2*z", XYZ), "z")
        assert f.variables == ("x", "y")
        assert f == P("y^2 - x^3 - x^2")

    def test_unknown_chart_is_named(self):
        F = P("y^2*z - x^3", XYZ)
        message = "chart 'q' is not one of the variables x, y, z"
        with pytest.raises(ValueError, match=message):
            dehomogenize(F, "q")
        with pytest.raises(ValueError, match=message):
            total_milnor_number(F, "q")
        with pytest.raises(ValueError, match="chart 3 is not one"):
            total_milnor_number(F, 3)

    @pytest.mark.parametrize("flag", [True, False])
    def test_a_bool_is_no_chart_index(self, flag):
        # bool is a subclass of int, but True is not the index 1.
        F = P("y^2*z - x^3", XYZ)
        with pytest.raises(ValueError, match=f"chart {flag} is not one of the variables x, y, z"):
            total_milnor_number(F, flag)
        with pytest.raises(ValueError, match=f"chart {flag} is not one"):
            dehomogenize(F, flag)


def reference_route(F, chart):
    """(total, off_curve_dim) from ``reference``: sympy's dim Q[x]/(J + (f^k))
    for large k, and sympy's dim Q[x]/J minus it."""
    pytest.importorskip("sympy")
    import reference

    text = str(F)
    return reference.total_milnor(text, F.variables, chart), reference.off_curve_dim(text, F.variables, chart)


FOUR_NODAL_QUARTIC = "x^4 + 3*x^2*y^2 - 5*x^2*z^2 + 2*y^4 - 7*y^2*z^2 + 6*z^4"


class TestMatrixCount:
    """The multiplication-matrix count against sympy's reference values."""

    @pytest.mark.parametrize(
        "text, total, off_curve",
        [
            # A node, and one critical point of the chart equation off the curve.
            ("y^2*z - x^3 - x^2*z", 1, 1),
            # Four nodes and five off-curve critical points.
            (FOUR_NODAL_QUARTIC, 4, 5),
            # (y^2 z - x^3)(y - z): a cusp, three nodes and two
            # off-curve critical points.
            ("y^3*z - y^2*z^2 - x^3*y + x^3*z", 5, 2),
            # x^5 + y^4 + x^2 y^2 at the origin is not quasi-homogeneous
            # (Tjurina 9, Milnor 10), so f is nilpotent but not zero on
            # its local algebra and one power of M_f is not enough.
            ("x^5 + y^4*z + x^2*y^2*z", 10, 2),
        ],
    )
    def test_named_cases(self, text, total, off_curve):
        F = P(text, XYZ)
        result = total_milnor_number(F, "z")
        assert (result.total_milnor, result.off_curve_dim) == (total, off_curve)
        assert reference_route(F, "z") == (total, off_curve)

    def test_elimination_polls_cancel(self, monkeypatch):
        # The callback turns True once the Jacobian and chart bases are
        # done, so only the rank computation can see it.
        bases_done = []
        validate = groebner_module._validate_chart

        def validated(*args, **kwargs):
            validate(*args, **kwargs)
            bases_done.append(True)

        monkeypatch.setattr(groebner_module, "_validate_chart", validated)
        F = P("y^2*z - x^3 - x^2*z", XYZ)
        with pytest.raises(ComputationCancelled, match="rank"):
            total_milnor_number(F, "z", cancel=lambda: bool(bases_done))
        assert bases_done


def rows_by_division(f, basis, monomials):
    """Rows of M_f from one full division of f times each standard monomial."""
    index = {m: j for j, m in enumerate(monomials)}
    rows = []
    for m in monomials:
        shifted = Polynomial(f.variables, {tuple(map(operator.add, e, m)): c for e, c in f.terms.items()})
        rows.append({index[e]: c for e, c in remainder_mod(shifted, basis).terms.items()})
    return rows


@st.composite
def zero_dimensional_ideals(draw):
    """A Groebner basis with a finite staircase and a polynomial f.

    Each variable gets a generator x_i^a plus terms of lower degree, so
    the leading terms include a pure power of every variable.
    """
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    nvars = len(variables)
    coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def terms(max_degree):
        monomials = [
            e for e in itertools.product(range(max_degree + 1), repeat=nvars) if sum(e) <= max_degree
        ]
        return draw(st.dictionaries(st.sampled_from(monomials), coefficients, max_size=4))

    gens = []
    for i in range(nvars):
        power = draw(st.integers(1, 4))
        lower = terms(power - 1)
        lower[tuple(power if k == i else 0 for k in range(nvars))] = 1
        gens.append(Polynomial(variables, lower))
    gens.append(Polynomial(variables, terms(3)))
    basis = groebner(PolyIdeal(gens))
    f = Polynomial(variables, terms(4))
    return f, basis


def packed_rows(f, basis):
    """``_multiplication_rows`` on exponent tuples: the standard
    monomials, the rows of M_f as exact fractions, and the scale L."""
    lay = groebner_module._layout(len(basis.variables), GREVLEX)
    monomials = groebner_module._standard_monomials(basis)
    rows, scale = groebner_module._multiplication_rows(f._terms, basis, monomials)
    exact = [{j: Fraction(v, scale) for j, v in row.items()} for row in rows]
    return [groebner_module._unpack(m, lay) for m in monomials], exact, scale


class TestMultiplicationRows:
    @settings(max_examples=60, deadline=None)
    @given(zero_dimensional_ideals())
    def test_rows_match_division(self, case):
        f, basis = case
        monomials, rows, scale = packed_rows(f, basis)
        expected = rows_by_division(f, basis, monomials)
        assert rows == expected
        # L is the lcm of the reduced denominators of M_f, not a larger multiple.
        assert scale == math.lcm(*(c.denominator for row in expected for c in row.values()))

    def test_terms_beyond_the_border(self):
        # The staircase of (x^2 - y, y^2 - x) is 1, y, x, xy and its
        # border is x^2, x^2 y, y^2, x y^2.  x^5 and x^2 y^3 lie two and
        # more steps beyond the border, where forms come from forms of
        # smaller monomials, not from the border rule.
        basis = groebner(ideal("x^2 - y", "y^2 - x"))
        f = P("x^5 + 2*x^2*y^3 - 3*x*y + 1")
        monomials, rows, _ = packed_rows(f, basis)
        assert monomials == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert rows == rows_by_division(f, basis, monomials)

    def test_rows_divide_nothing(self, monkeypatch):
        calls = []
        divide_original = groebner_module.divide

        def counted(*args, **kwargs):
            calls.append(args)
            return divide_original(*args, **kwargs)

        F = P(FOUR_NODAL_QUARTIC, XYZ)
        f = dehomogenize(F, "z")
        basis = groebner(jacobian_ideal(f))
        monkeypatch.setattr(groebner_module, "divide", counted)
        monomials, rows, _ = packed_rows(f, basis)
        assert calls == []
        assert len(rows) == len(monomials) == 9


@st.composite
def rank_cases(draw):
    """A square integer matrix: sparse, or a product of n x k and k x n
    factors, so that its rank is at most k."""
    n = draw(st.integers(1, 6))

    def matrix(rows, cols, entries):
        return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))

    if draw(st.booleans()):
        return matrix(n, n, st.sampled_from([0, 0, 0, -1, 1, 2, -7, 12]))
    k = draw(st.integers(0, n))
    left, right = matrix(n, k, st.integers(-4, 4)), matrix(k, n, st.integers(-4, 4))
    return [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)] for i in range(n)]


class TestIntegerRank:
    def test_stable_rank_scales_by_one_denominator(self):
        # On Q[x, y]/((2x - 1)^2, y), with standard monomials 1, x,
        # multiplication by f = x - 1/2 has the rows [-1/2, 1] and
        # [-1/4, 1/2], and it squares to 0.  One common scaling by
        # L = 4 keeps the answer 0; clearing each row's denominator on
        # its own gives [-1, 2] twice, whose square is itself.
        basis = groebner(ideal("4*x^2 - 4*x + 1", "y"))
        monomials, rows, scale = packed_rows(P("x - 1/2"), basis)
        assert monomials == [(0, 0), (1, 0)]
        assert rows == [{0: Fraction(-1, 2), 1: 1}, {0: Fraction(-1, 4), 1: Fraction(1, 2)}]
        assert scale == 4
        scaled = [{j: int(c * scale) for j, c in row.items()} for row in rows]
        assert linalg._stable_rank(scaled, None) == 0
        by_row = [{0: -1, 1: 2}, {0: -1, 1: 2}]
        assert linalg._stable_rank(by_row, None) == 1

    @settings(max_examples=80, deadline=None)
    @given(rank_cases())
    def test_rank_matches_sympy(self, matrix):
        sympy = pytest.importorskip("sympy")
        rows = [{j: c for j, c in enumerate(row) if c} for row in matrix]
        assert linalg._rank(rows, None) == sympy.Matrix(matrix).rank()


@st.composite
def homogeneous_forms(draw):
    nvars, degree = draw(st.sampled_from([(3, 3), (3, 4), (4, 3)]))
    monomials = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    terms = draw(
        st.dictionaries(
            st.sampled_from(monomials),
            st.integers(-3, 3).filter(bool),
            min_size=1,
            max_size=8,
        )
    )
    return Polynomial(("x", "y", "z", "w")[:nvars], terms)


@settings(max_examples=40, deadline=None)
@given(homogeneous_forms())
def test_matrix_count_matches_the_reference(F):
    chart = F.variables[-1]
    try:
        result = total_milnor_number(F, chart)
    except ValueError:
        return
    assert (result.total_milnor, result.off_curve_dim) == reference_route(F, chart)


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def random_lines(count, seed):
    """The expanded product of ``count`` lines a x + b y + c z with small
    integer coefficients, drawn again until no three of them meet and
    each of their count (count - 1) / 2 nodes lies in the chart z = 1."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    while True:
        lines = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(count)]
        in_chart = all(cross(p, q)[2] != 0 for p, q in itertools.combinations(lines, 2))
        apart = all(sum(map(operator.mul, cross(p, q), r)) != 0 for p, q, r in itertools.combinations(lines, 3))
        if in_chart and apart:
            x, y, z = sympy.symbols("x y z")
            product = sympy.Mul(*(a * x + b * y + c * z for a, b, c in lines))
            return str(sympy.expand(product)).replace("**", "^")


class TestSympyOracle:
    """The total against ``reference.total_milnor``, which computes it from
    sympy's bases of J + (f^k) and imports nothing from milnorcalc."""

    @pytest.mark.parametrize(
        "text, chart, total",
        [
            ("y^2*z - x^3 - x^2*z", "z", 1),
            ("y^2*z - x^3", "z", 2),
            # Two conics through four common points.
            (FOUR_NODAL_QUARTIC, "z", 4),
            ("x^5 + y^4*z + x^2*y^2*z", "z", 10),
            ("w^2*x^2 + w^2*y^2 + w^2*z^2 + x^4 + y^4 + z^4", "w", 1),
            # Four and five random lines, drawn in the test.
            (4, "z", 6),
            (5, "z", 10),
        ],
        ids=["node", "cusp", "two-conics", "mu-10", "surface-node", "4-lines", "5-lines"],
    )
    def test_total_matches_the_oracle(self, text, chart, total):
        pytest.importorskip("sympy")
        import reference

        if isinstance(text, int):
            text = random_lines(text, seed=text)
        variables = ("x", "y", "z", "w")[: 4 if "w" in text else 3]
        engine = total_milnor_number(P(text, variables), chart).total_milnor
        assert engine == reference.total_milnor(text, variables, chart) == total


@st.composite
def small_ideals(draw):
    """At most three generators of degree at most 3 in two or three variables."""
    variables = ("x", "y", "z")[: draw(st.integers(2, 3))]
    monomials = [e for e in itertools.product(range(4), repeat=len(variables)) if sum(e) <= 3]
    terms = st.dictionaries(
        st.sampled_from(monomials), st.integers(-3, 3).filter(bool), min_size=1, max_size=4
    )
    return [Polynomial(variables, t) for t in draw(st.lists(terms, min_size=1, max_size=3))]


@settings(max_examples=40, deadline=None)
@given(small_ideals())
def test_reduced_basis_matches_sympy(gens):
    gb = groebner(PolyIdeal(gens))
    assert {frozenset(g.terms.items()) for g in gb.basis} == sympy_reduced_basis(gens)
    from sympy.polys.orderings import grevlex

    leads = [max(g.terms, key=grevlex) for g in gb.basis]
    assert all(grevlex(a) < grevlex(b) for a, b in zip(leads, leads[1:]))


small_polys = st.builds(
    lambda terms: Polynomial(XY, terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        min_size=1,
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3))
def test_groebner_s_polynomials_reduce_to_zero(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = groebner(PolyIdeal(tuple(gens)))
    for i in range(len(gb.basis)):
        for j in range(i + 1, len(gb.basis)):
            s = s_polynomial(gb.basis[i], gb.basis[j], GREVLEX)
            assert remainder_mod(s, gb).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3))
def test_generators_reduce_to_zero(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = groebner(PolyIdeal(tuple(gens)))
    for g in gens:
        assert remainder_mod(g, gb).is_zero()


LIMIT = groebner_module._LIMIT
ORDERS = (GREVLEX, groebner_module._ELIM_FIRST)


@st.composite
def exponents(draw, nvars, total=None):
    """An exponent tuple of total degree at most the field limit, often at it."""
    if total is None:
        total = draw(st.one_of(st.integers(0, 8), st.integers(0, LIMIT), st.just(LIMIT)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=nvars - 1, max_size=nvars - 1)))
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
    return tuple(draw(st.permutations(parts)))


@st.composite
def packed_cases(draw):
    nvars = draw(st.integers(1, 6))
    order = draw(st.sampled_from(ORDERS))
    return order, draw(exponents(nvars)), draw(exponents(nvars))


class TestPackedMonomials:
    """The packed layouts against the tuple operations they replace."""

    @settings(max_examples=300, deadline=None)
    @given(packed_cases())
    def test_layout_matches_tuple_oracle(self, case):
        order, a, b = case
        lay = groebner_module._layout(len(a), order)
        pa, pb = groebner_module._pack(a, lay), groebner_module._pack(b, lay)
        assert groebner_module._unpack(pa, lay) == a
        key = order_key(order)
        assert (lay.key(pa) < lay.key(pb)) == (key(a) < key(b))
        assert (pa == pb) == (a == b)
        divides = all(x <= y for x, y in zip(a, b))
        assert (((pb | lay.guards) - pa) & lay.guards == lay.guards) == divides
        if divides:
            assert pb - pa == groebner_module._pack(tuple(y - x for x, y in zip(a, b)), lay)
        product = tuple(x + y for x, y in zip(a, b))
        if sum(product) <= LIMIT:
            assert pa + pb == groebner_module._pack(product, lay)
        lcm = tuple(map(max, a, b))
        if sum(lcm) <= LIMIT:
            assert groebner_module._lcm(pa, pb, lay) == groebner_module._pack(lcm, lay)
        else:
            with pytest.raises(ValueError, match="beyond the Groebner engine"):
                groebner_module._lcm(pa, pb, lay)

    @pytest.mark.parametrize("order", ORDERS)
    def test_past_the_limit_raises(self, order):
        lay = groebner_module._layout(3, order)
        for exp in [(LIMIT + 1, 0, 0), (0, 0, LIMIT + 1), (LIMIT, 1, 0), (1, LIMIT // 2 + 1, LIMIT // 2)]:
            with pytest.raises(ValueError, match="beyond the Groebner engine"):
                groebner_module._pack(exp, lay)

    def test_high_exponents_at_the_limit(self):
        f = Polynomial(XY, {(LIMIT - 1, 0): 1, (0, 1): -1})
        assert quotient_dim(groebner(PolyIdeal([f, P("y")]))) == LIMIT - 1
        # The pair of leads x^LIMIT and y has an lcm of degree LIMIT + 1.
        for exp in [(LIMIT + 1, 0), (LIMIT, 0)]:
            with pytest.raises(ValueError, match="beyond the Groebner engine"):
                groebner(PolyIdeal([Polynomial(XY, {exp: 1}), P("y")]))

    def test_overflow_during_reduction_raises(self):
        # Reduction on the elimination order raises degrees, as grevlex
        # reduction never does.  In t, x, y the S-polynomial of
        # t - y^(LIMIT - 1) and t^2 + tx is -t y^(LIMIT - 1) - tx, of degree
        # LIMIT, and reducing its lead by t - y^(LIMIT - 1) gives
        # y^(2 LIMIT - 2), which no field can hold.  It must not wrap.
        lay = groebner_module._layout(3, groebner_module._ELIM_FIRST)

        def packed(terms):
            return {groebner_module._pack(e, lay): c for e, c in terms.items()}

        gens = [packed({(1, 0, 0): 1, (0, 0, LIMIT - 1): -1}), packed({(2, 0, 0): 1, (1, 1, 0): 1})]
        with pytest.raises(ValueError, match="beyond the Groebner engine") as raised:
            groebner_module._buchberger(gens, lay, None)
        assert raised.traceback[-1].name == "_reduce"

    def test_overflow_in_an_s_polynomial_raises(self):
        # In t, x, y the leads of t + y^(LIMIT - 1) and t x^2 are t and
        # t x^2, so the S-polynomial is x^2 y^(LIMIT - 1), of degree
        # LIMIT + 1: the first operand overflows, the second does not, and
        # _spoly refuses the pair before it builds a term.
        lay = groebner_module._layout(3, groebner_module._ELIM_FIRST)

        def packed(terms):
            return {groebner_module._pack(e, lay): c for e, c in terms.items()}

        gens = [packed({(1, 0, 0): 1, (0, 0, LIMIT - 1): 1}), packed({(1, 2, 0): 1})]
        with pytest.raises(ValueError, match="beyond the Groebner engine") as raised:
            groebner_module._buchberger(gens, lay, None)
        assert raised.traceback[-1].name == "_spoly"

    def test_an_s_polynomial_of_degree_just_below_the_limit(self):
        # x^h y and x y^h, h = LIMIT // 2, have an lcm of degree LIMIT - 1,
        # and each multiplier takes its operand up to that degree, no further:
        # a guard that counted a lead's degree twice would refuse the pair.
        h = LIMIT // 2
        gens = [Polynomial(XY, {(h, 1): 1}), Polynomial(XY, {(1, h): 1})]
        assert set(groebner(PolyIdeal(gens)).basis) == set(gens)

    def test_elimination_order_matches_saturation(self):
        # The elimination order runs through the same engine.
        assert basis_strings(groebner(ideal_quotient(ideal("x^2*y", "x*y^2"), P("x*y")))) == {"x", "y"}


def chart_equation(text, chart):
    """The chart equation f of F, the degree of F and the layout of f."""
    F = P(text, XYZ)
    f = dehomogenize(F, chart)
    return f, F.total_degree(), groebner_module._layout(len(f.variables), GREVLEX)


def monomial(text):
    """The packed monomial of a one-term polynomial in x and y."""
    (m,) = P(text)._terms
    return m


class TestValidationStop:
    def spy(self, monkeypatch, name="_spoly"):
        calls = []
        original = getattr(groebner_module, name)
        monkeypatch.setattr(groebner_module, name, lambda *args: calls.append(args) or original(*args))
        return calls

    def test_stops_on_the_generators_of_a_diagonal_input(self, monkeypatch):
        # The milnor family: the restricted partials are b_i x_i^(d-1).
        calls, pairs = self.spy(monkeypatch), self.spy(monkeypatch, "_lcm")
        f, degree, lay = chart_equation("2*z*x^2 + 3*x^3 + 5*z*y^2 + 7*y^3", "z")
        groebner_module._validate_chart(f, degree, None)
        # The partials 9x^2 and 21y^2 of the top part come back monic, each
        # lead with an empty tail.
        gens = [P("3*x^3 + 7*y^3").derivative(i)._terms for i in range(2)]
        stop = groebner_module._buchberger(gens, lay, None, stop_when_finite=True)
        assert stop == {monomial("x^2"): {}, monomial("y^2"): {}}
        # 2x^2 + 4xy and 3y^3 + 6xy stop too, each lead with its monic tail.
        gens = [P("2*x^2 + 4*x*y")._terms, P("3*y^3 + 6*x*y")._terms]
        stop = groebner_module._buchberger(gens, lay, None, stop_when_finite=True)
        assert stop == {monomial("x^2"): {monomial("x*y"): 2}, monomial("y^3"): {monomial("x*y"): 2}}
        # No S-polynomial was formed, and no pair was even queued.
        assert calls == [] and pairs == []

    def test_non_diagonal_input_needs_s_pairs(self, monkeypatch):
        # On z = 0 the partials of 3x^2 y + y^3 + z^3 are 6xy and
        # 3x^2 + 3y^2: the leads xy and x^2 hold no power of y until the
        # S-pair gives y^3.
        calls = self.spy(monkeypatch)
        f, degree, _ = chart_equation("3*x^2*y + y^3 + z^3", "z")
        groebner_module._validate_chart(f, degree, None)
        assert len(calls) >= 1
        assert total_milnor_number(P("3*x^2*y + y^3 + z^3", XYZ), "z").total_milnor == 0

    def test_infinite_quotient_still_exits(self, monkeypatch):
        # The cusp of y^2 z - x^3 lies on y = 0: only x has a pure power.
        f, degree, _ = chart_equation("y^2*z - x^3", "y")
        with pytest.raises(SingularitiesOutsideChartError):
            groebner_module._validate_chart(f, degree, None)


class TestMilnorMemo:
    """``total_milnor_number`` keeps its last results, keyed by its arguments."""

    @pytest.fixture(autouse=True)
    def cold(self):
        total_milnor_number.cache_clear()

    def spy(self, monkeypatch):
        # Every basis of the engine goes through _buchberger.
        calls = []
        original = groebner_module._buchberger

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(groebner_module, "_buchberger", counted)
        return calls

    def test_equal_polynomial_from_reordered_text_is_not_computed_again(self, monkeypatch):
        calls = self.spy(monkeypatch)
        first = total_milnor_number(P("y^2*z - x^3 - x^2*z", XYZ), "z", None)
        computed = len(calls)
        again = total_milnor_number(P("-x^2*z + y^2*z - x^3", XYZ), "z", None)
        assert computed > 0 and len(calls) == computed
        assert again is first
        assert (first.total_milnor, first.chart, first.off_curve_dim) == (1, "z", 1)

    @pytest.mark.parametrize(
        "text, chart, error",
        [("y^2*z - x^3", "y", SingularitiesOutsideChartError), ("x^2*y", "z", NonIsolatedSingularitiesError)],
    )
    def test_an_error_is_raised_on_every_call(self, monkeypatch, text, chart, error):
        calls = self.spy(monkeypatch)
        counts = []
        for _ in range(2):
            with pytest.raises(error):
                total_milnor_number(P(text, XYZ), chart)
            counts.append(len(calls))
        assert 0 < counts[0] < counts[1] == 2 * counts[0]
        assert total_milnor_number.cache_info().currsize == 0

    def test_another_chart_is_computed_again(self, monkeypatch):
        calls = self.spy(monkeypatch)
        F = P("x^2 + y^2 + z^2", XYZ)
        in_z = total_milnor_number(F, "z")
        computed = len(calls)
        in_x = total_milnor_number(F, "x")
        assert len(calls) > computed
        assert (in_z.chart, in_x.chart) == ("z", "x")

    def test_a_new_cancel_callback_is_polled(self):
        F = P("y^2*z - x^3 - x^2*z", XYZ)
        total_milnor_number(F, "z")
        with pytest.raises(ComputationCancelled):
            total_milnor_number(F, "z", lambda: True)

    def test_a_chart_that_equals_an_index_is_not_read_as_it(self):
        # A chart is a variable name: neither the index 1 nor True == 1 or 1.0 == 1.
        F = P("x^2 + y^2 + z^2", XYZ)
        assert total_milnor_number(F, "y").chart == "y"
        for chart in (1, True, 1.0):
            with pytest.raises(ValueError, match="is not one of the variables"):
                total_milnor_number(F, chart)

    def test_at_most_32_results_are_kept(self, monkeypatch):
        assert groebner_module._MILNOR_CACHE_SIZE == 32
        inputs = [P(f"x^2 + y^2 + {k}*z^2", XYZ) for k in range(1, 34)]
        for F in inputs:
            total_milnor_number(F, "z")
        assert total_milnor_number.cache_info().currsize <= 32
        # The oldest result was dropped, so its input is computed again.
        calls = self.spy(monkeypatch)
        total_milnor_number(inputs[0], "z")
        assert calls
