"""Parser, printer and exact arithmetic for sparse rational polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from milnorcalc.polynomials import (
    PolyIdeal,
    PolyParseError,
    Polynomial,
    VariableMismatchError,
    jacobian_ideal,
    parse_polynomial,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


class TestParser:
    def test_single_monomial(self):
        f = P("3*x^2*y")
        assert f.terms == {(2, 1, 0): Fraction(3)}

    def test_implicit_coefficient_one(self):
        assert P("x") == Polynomial.variable(XYZ, "x")

    def test_signs_and_subtraction(self):
        f = P("-x^2 + 2*x*y - y^2")
        assert f.terms == {
            (2, 0, 0): Fraction(-1),
            (1, 1, 0): Fraction(2),
            (0, 2, 0): Fraction(-1),
        }

    def test_rational_coefficient(self):
        f = P("1/2*x - 3/4")
        assert f.terms == {(1, 0, 0): Fraction(1, 2), (0, 0, 0): Fraction(-3, 4)}

    def test_constant_zero(self):
        assert P("0").is_zero()

    def test_cancellation_to_zero(self):
        assert P("x - x").is_zero()

    def test_leading_plus(self):
        assert P("+x + y") == P("x + y")

    def test_whitespace_is_free(self):
        assert P("x^2+y^2") == P("  x^2 + y^2  ")

    def test_repeated_variable_multiplies(self):
        assert P("x*x*x") == P("x^3")

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError, match="unknown variable"):
            P("x + q")

    def test_negative_exponent(self):
        with pytest.raises(PolyParseError, match="negative exponent"):
            P("x^-1")

    def test_zero_exponent_rejected(self):
        with pytest.raises(PolyParseError):
            P("x^0")

    def test_juxtaposition_rejected(self):
        with pytest.raises(PolyParseError, match="implicit multiplication"):
            P("2x")

    def test_adjacent_names_rejected(self):
        with pytest.raises(PolyParseError):
            P("x y")

    def test_error_carries_position(self):
        with pytest.raises(PolyParseError) as err:
            P("x + $")
        assert err.value.position == 4
        assert "position 4" in str(err.value)

    def test_parentheses_name_the_limit(self):
        with pytest.raises(PolyParseError, match="parentheses are not supported") as err:
            P("x*(y + z)")
        assert err.value.position == 2
        assert "expand products first" in str(err.value)
        with pytest.raises(PolyParseError, match="parentheses are not supported"):
            P("x^2 + y)")

    def test_dangling_operator(self):
        with pytest.raises(PolyParseError):
            P("x +")

    def test_zero_denominator(self):
        with pytest.raises(PolyParseError):
            P("1/0*x")

    def test_empty_input(self):
        with pytest.raises(PolyParseError):
            P("")


class TestArithmetic:
    def test_add_and_sub(self):
        assert P("x + y") + P("x - y") == P("2*x")
        assert P("x") - P("x") == Polynomial.zero(XYZ)

    def test_product(self):
        assert P("x + y") * P("x - y") == P("x^2 - y^2")

    def test_square_binomial(self):
        assert P("x + y") ** 2 == P("x^2 + 2*x*y + y^2")

    def test_scalar_multiples(self):
        f = P("x^2 - y")
        assert 3 * f == P("3*x^2 - 3*y")
        assert Fraction(1, 2) * f == P("1/2*x^2 - 1/2*y")

    def test_pow_zero_is_one(self):
        assert P("x + y") ** 0 == Polynomial.constant(XYZ, 1)

    def test_mixed_variables_rejected(self):
        with pytest.raises(VariableMismatchError):
            P("x", XY) + P("x", XYZ)

    def test_total_degree(self):
        assert P("x^2*y + z").total_degree() == 3
        assert P("5").total_degree() == 0
        assert Polynomial.zero(XYZ).total_degree() == -1

    def test_homogeneous(self):
        assert P("x^2 + y*z").is_homogeneous()
        assert not P("x^2 + y").is_homogeneous()
        assert Polynomial.zero(XYZ).is_homogeneous()

    def test_derivative(self):
        assert P("x^3 + x*y^2").derivative("x") == P("3*x^2 + y^2")
        assert P("x^3").derivative("y").is_zero()

    def test_derivative_by_index(self):
        assert P("y^2").derivative(1) == P("2*y")

    def test_hash_consistent_with_eq(self):
        assert hash(P("x + y")) == hash(P("y + x"))


class TestPrinter:
    def test_descending_degree_order(self):
        assert str(P("y + x^2")) == "x^2 + y"

    def test_negative_leading_term(self):
        assert str(P("-x^2 + y")) == "-x^2 + y"

    def test_fraction_rendering(self):
        assert str(P("1/2*x^2 - 3*y")) == "1/2*x^2 - 3*y"

    def test_zero(self):
        assert str(Polynomial.zero(XYZ)) == "0"

    def test_constant(self):
        assert str(P("-7/3")) == "-7/3"

    def test_unit_coefficient_omitted(self):
        assert str(P("x*y^2")) == "x*y^2"


class TestJacobian:
    def test_plane_cubic(self):
        F = P("y^2*z - x^3")
        ideal = jacobian_ideal(F)
        assert [str(g) for g in ideal.generators] == ["-3*x^2", "2*y*z", "y^2"]

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            jacobian_ideal(P("4"))

    def test_ideal_needs_generators(self):
        with pytest.raises(ValueError):
            PolyIdeal(())


coefficients = st.integers(min_value=-9, max_value=9)
exponents = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
)


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(exponents, coefficients, max_size=6))
    f = Polynomial.zero(XYZ)
    for exp, c in terms.items():
        mono = Polynomial.constant(XYZ, c)
        for v, e in zip(XYZ, exp):
            mono = mono * Polynomial.variable(XYZ, v) ** e
        f = f + mono
    return f


@given(polynomials())
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), XYZ) == f


@given(polynomials(), polynomials())
def test_product_degree(f, g):
    fg = f * g
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        assert fg.total_degree() == f.total_degree() + g.total_degree()


@given(polynomials(), polynomials(), polynomials())
def test_ring_identities(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f


@given(polynomials(), polynomials())
def test_derivative_is_leibniz(f, g):
    lhs = (f * g).derivative("x")
    rhs = f.derivative("x") * g + f * g.derivative("x")
    assert lhs == rhs
