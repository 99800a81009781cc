"""Buchberger, staircase dimensions, saturation and Milnor numbers.

Saturation is off the report path; it stays as the oracle that the
multiplication-matrix count in ``total_milnor_number`` is tested against.
"""

import importlib
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from milnorcalc.groebner import (
    GREVLEX,
    LEX,
    ComputationCancelled,
    NonIsolatedSingularitiesError,
    SingularitiesOutsideChartError,
    dehomogenize,
    divide,
    groebner,
    ideal_quotient,
    normal_form,
    quotient_dim,
    s_polynomial,
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


def basis_strings(gb):
    return {str(g) for g in gb.basis}


class TestDivision:
    def test_exact_multiple(self):
        f = P("x^2*y + x*y^2")
        quotients, remainder = divide(f, [P("x*y")], GREVLEX)
        assert remainder.is_zero()
        assert quotients[0] == P("x + y")

    def test_remainder_not_divisible(self):
        f = P("x^2 + y^2 + 1")
        _, remainder = divide(f, [P("x"), P("y")], GREVLEX)
        assert remainder == P("1")

    def test_recombination(self):
        f = P("x^3*y - 2*x*y^2 + y + 5")
        divisors = [P("x*y - 1"), P("y^2 - x")]
        quotients, remainder = divide(f, divisors, GREVLEX)
        total = remainder
        for q, g in zip(quotients, divisors):
            total = total + q * g
        assert total == f

    def test_zero_dividend(self):
        quotients, remainder = divide(Polynomial.zero(XY), [P("x")], GREVLEX)
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
            assert normal_form(P(text), gb).is_zero()

    def test_classic_lex_elimination(self):
        # Reduced lexicographic basis of (x^2 + 2xy^2, xy + 2y^3 - 1).
        gb = groebner(ideal("x^2 + 2*x*y^2", "x*y + 2*y^3 - 1"), order=LEX)
        assert basis_strings(gb) == {"x", "y^3 - 1/2"}

    def test_classic_graded_basis(self):
        gb = groebner(ideal("x^3 - 2*x*y", "x^2*y + x - 2*y^2"))
        assert basis_strings(gb) == {"x^2", "x*y", "y^2 - 1/2*x"}

    def test_twisted_cubic_lex(self):
        gb = groebner(ideal("-x^2 + y", "-x^3 + z", variables=XYZ), order=LEX)
        assert basis_strings(gb) == {"x^2 - y", "x*y - z", "x*z - y^2", "y^3 - z^2"}

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            groebner(ideal("x"), order="degrevlex")

    def test_cancellation(self):
        with pytest.raises(ComputationCancelled):
            groebner(ideal("x^2 - y", "y^2 - x"), cancel=lambda: True)

    def test_basis_is_interreduced(self):
        gb = groebner(ideal("x^2 - y", "y^2 - x"))
        leads = gb.leading_exponents()
        for i, g in enumerate(gb.basis):
            others = [h for j, h in enumerate(gb.basis) if j != i]
            if not others:
                continue
            _, remainder = divide(g, others, GREVLEX)
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

    def test_order_independent(self):
        for texts in [("x^2", "y^3"), ("x^2 - y", "y^2 - x"), ("2*x + 4*x^3", "2*y")]:
            grev = quotient_dim(groebner(ideal(*texts), order=GREVLEX))
            lex = quotient_dim(groebner(ideal(*texts), order=LEX))
            assert grev == lex


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
            assert normal_form(g, gb).is_zero()

    def test_nodal_chart_saturation(self):
        # Jacobian of y^2 - x^3 - x^2 saturated by the curve equation
        # keeps only the off-curve critical point.
        sat = saturate(ideal("2*y", "-3*x^2 - 2*x"), P("y^2 - x^3 - x^2"))
        assert quotient_dim(groebner(sat)) == 1


class TestSPolynomial:
    def test_cancels_leading_terms(self):
        f = P("x^2 + y")
        g = P("x*y + 1")
        s = s_polynomial(f, g, GREVLEX)
        assert s == P("y^2 - x")


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

    def test_chart_by_index(self):
        result = total_milnor_number(P("y^2*z - x^3", XYZ), 2)
        assert result.total_milnor == 2

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
        x, y, z = (Polynomial.variable(XYZ, v) for v in XYZ)
        shifted = (
            y * y * z - (x + y) ** 3 - (x + y) ** 2 * z
        )
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


def saturation_route(F, chart):
    """(total, off_curve_dim) as dim k[x]/J minus dim k[x]/(J : f^inf)."""
    f = dehomogenize(F, chart)
    jac_basis = groebner(jacobian_ideal(f))
    off_curve = quotient_dim(groebner(saturate(PolyIdeal(jac_basis.basis), f)))
    return quotient_dim(jac_basis) - off_curve, off_curve


FOUR_NODAL_QUARTIC = "x^4 + 3*x^2*y^2 - 5*x^2*z^2 + 2*y^4 - 7*y^2*z^2 + 6*z^4"


class TestMatrixCount:
    """The multiplication-matrix count against the saturation route."""

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
        assert saturation_route(F, "z") == (total, off_curve)

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


# The saturation route takes up to a few seconds on a cubic surface, so
# the example count stays small.
@settings(max_examples=10, deadline=None)
@given(homogeneous_forms())
def test_matrix_count_matches_saturation(F):
    chart = F.variables[-1]
    try:
        result = total_milnor_number(F, chart)
    except ValueError:
        return
    assert (result.total_milnor, result.off_curve_dim) == saturation_route(F, chart)


small_polys = st.builds(
    lambda terms: _poly_from_terms(terms),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.integers(-5, 5),
        min_size=1,
        max_size=4,
    ),
)


def _poly_from_terms(terms):
    f = Polynomial.zero(XY)
    for (a, b), c in terms.items():
        mono = Polynomial.constant(XY, c)
        mono = mono * Polynomial.variable(XY, "x") ** a
        mono = mono * Polynomial.variable(XY, "y") ** b
        f = f + mono
    return f


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
            assert normal_form(s, gb).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=3))
def test_generators_reduce_to_zero(gens):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    gb = groebner(PolyIdeal(tuple(gens)))
    for g in gens:
        assert normal_form(g, gb).is_zero()
