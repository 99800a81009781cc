"""Parser, printer, degrees and derivatives of sparse rational polynomials.

sympy is the oracle of the properties at the end: it parses the same
text, differentiates and substitutes on its own representation.
"""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import milnorcalc.polynomials as polynomial_module
from milnorcalc.groebner import dehomogenize
from milnorcalc.polynomials import (
    _LIMIT,
    PolyIdeal,
    PolyParseError,
    Polynomial,
    VariableMismatchError,
    jacobian_ideal,
    parse_polynomial,
)
from test_groebner import linear_combination

XY = ("x", "y")
XYZ = ("x", "y", "z")


def P(text, variables=XYZ):
    return parse_polynomial(text, variables)


class TestParser:
    def test_single_monomial(self):
        f = P("3*x^2*y")
        assert f.terms == {(2, 1, 0): Fraction(3)}

    def test_implicit_coefficient_one(self):
        assert P("x") == Polynomial(XYZ, {(1, 0, 0): 1})

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


# One input for each message of the parser, with its full text and
# position (None for a fault in the variable list).
PARSE_ERRORS = [
    ("x", ("x", "y", "x"), "variable 'x' is listed more than once", None),
    ("x*(y + z)", XYZ, "parentheses are not supported: expand products first (at position 2)", 2),
    ("x + $", XYZ, "unexpected character '$' (at position 4)", 4),
    ("x/2", XYZ, "expected '+' or '-' between terms (at position 1)", 1),
    ("1/x", XYZ, "expected an integer denominator (at position 2)", 2),
    ("1/0*x", XYZ, "denominator must be a positive integer (at position 2)", 2),
    ("2x", XYZ, "implicit multiplication is not allowed (at position 1)", 1),
    ("x +", XYZ, "expected a variable (at position 3)", 3),
    ("x + q", XYZ, "unknown variable 'q' (at position 4)", 4),
    ("x^-1", XYZ, "negative exponent (at position 2)", 2),
    ("x^y", XYZ, "expected a positive integer exponent (at position 2)", 2),
    ("x^0", XYZ, "exponent must be a positive integer (at position 2)", 2),
    # The text is tokenized before it is read: a bad character wins
    # over a grammar fault earlier in the text.
    ("x y (", XYZ, "parentheses are not supported: expand products first (at position 4)", 4),
    # Integer literals are ASCII digits; other digits are not literals.
    ("2²*x^3 + y^3 + z^3", XYZ, "unexpected character '²' (at position 1)", 1),
    ("x^² + y^2", XYZ, "unexpected character '²' (at position 2)", 2),
    ("٣*x", XYZ, "unexpected character '٣' (at position 0)", 0),
]


@pytest.mark.parametrize("text, variables, message, position", PARSE_ERRORS)
def test_parse_error_message_and_position(text, variables, message, position):
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(text, variables)
    assert str(err.value) == message
    assert err.value.position == position


@pytest.mark.parametrize(
    "template", ["{}*x", "x + 1/{}", "y^{}"], ids=["coefficient", "denominator", "exponent"]
)
def test_literal_over_the_digit_limit_is_a_parse_error(template):
    # Refused in the parser's words, not in those of Python's int().
    limit = sys.get_int_max_str_digits()
    with pytest.raises(PolyParseError) as err:
        parse_polynomial(template.format("9" * (limit + 1)), XYZ)
    position = template.index("{")
    assert str(err.value) == f"an integer with more than {limit} digits (at position {position})"
    assert err.value.position == position
    assert parse_polynomial(template.format("0" * (limit - 1) + "1"), XYZ) == parse_polynomial(
        template.format("1"), XYZ
    )


@pytest.mark.parametrize(
    "text, terms",
    [
        ("+x - y", {(1, 0, 0): 1, (0, 1, 0): -1}),
        ("-x^2*z + y", {(2, 0, 1): -1, (0, 1, 0): 1}),
        ("-1/2*x", {(1, 0, 0): Fraction(-1, 2)}),
        ("2/4*x*x + 0*y", {(2, 0, 0): Fraction(1, 2)}),
        ("-7", {(0, 0, 0): -7}),
        ("x*y - y*x + 2*z^3 - 2*z*z*z", {}),
        ("x - x + x", {(1, 0, 0): 1}),
    ],
)
def test_accepted_forms(text, terms):
    f = parse_polynomial(text, XYZ)
    assert f.variables == XYZ
    assert f.terms == terms
    assert all(type(c) is Fraction for c in f.terms.values())


def test_parser_builds_one_polynomial(monkeypatch):
    calls = []
    init = Polynomial.__init__

    def counted(*args, **kwargs):
        calls.append(args)
        return init(*args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counted)
    f = parse_polynomial("x^3 + 2*x^2*y - 1/3*y*z^2 + 4 - x^3 + z", XYZ)
    assert calls == []
    assert f.terms == {(2, 1, 0): 2, (0, 1, 2): Fraction(-1, 3), (0, 0, 0): 4, (0, 0, 1): 1}


class TestVariableBudget:
    """More than 1,000 variables are refused before a layout is built."""

    def test_the_limit_is_1000_variables(self):
        names = [f"x{i}" for i in range(1001)]
        assert parse_polynomial("x0^2 + x999^2", names[:1000]).total_degree() == 2
        message = "a polynomial in 1001 variables is over the limit of 1000 variables"
        with pytest.raises(ValueError, match=message):
            parse_polynomial("x0", names)
        with pytest.raises(ValueError, match=message):
            Polynomial(names, {(1,) + (0,) * 1000: 1})

    def test_a_process_keeps_a_bounded_number_of_layouts(self):
        # A layout grows with the square of its variable count, so a process
        # that meets 100 counts keeps only the last _LAYOUT_CACHE_SIZE layouts.
        polynomial_module._layout.cache_clear()
        for n in range(1, 101):
            assert parse_polynomial("x0^2", [f"x{i}" for i in range(n)]).total_degree() == 2
        info = polynomial_module._layout.cache_info()
        assert info.misses == 100 and info.maxsize == polynomial_module._LAYOUT_CACHE_SIZE == 16
        assert info.currsize == polynomial_module._LAYOUT_CACHE_SIZE


class TestArithmetic:
    def test_mixed_variables_rejected(self):
        with pytest.raises(VariableMismatchError):
            PolyIdeal([P("x", XY), P("x", XYZ)])

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


class TestConstructorTypes:
    """Entries are exact integers and coefficients exact rationals: nothing
    is coerced, as in ``ChowClass`` and ``AmbientSpace``."""

    @pytest.mark.parametrize("exp", [(1.7, 0), ("2", 0), (True, 0), (0, False)])
    def test_exponent_entries_must_be_ints(self, exp):
        with pytest.raises(TypeError, match="not an integer"):
            Polynomial(XY, {exp: 1})

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_coefficient_rejected(self, value):
        with pytest.raises(TypeError, match="exact rationals, got bool"):
            Polynomial(XY, {(1, 0): value})

    def test_ints_and_fractions_accepted(self):
        f = Polynomial(XY, {(1, 0): 2, (0, 3): Fraction(1, 2), (0, 0): 0})
        assert f.terms == {(1, 0): 2, (0, 3): Fraction(1, 2)}


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
polynomials = st.dictionaries(exponents, coefficients, max_size=6).map(lambda terms: Polynomial(XYZ, terms))


def product(f, g):
    return linear_combination([(f, g)], XYZ)


@given(polynomials)
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), XYZ) == f


@given(polynomials, polynomials)
def test_product_degree(f, g):
    fg = product(f, g)
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        assert fg.total_degree() == f.total_degree() + g.total_degree()


@given(polynomials, polynomials)
def test_derivative_is_leibniz(f, g):
    lhs = product(f, g).derivative("x")
    rhs = linear_combination([(f.derivative("x"), g), (f, g.derivative("x"))], XYZ)
    assert lhs == rhs


TOO_BIG = "exponents and degrees above 32767 are beyond the Groebner engine"
NAMES = ("x", "y", "z", "w")


def written(exp, variables):
    """A monomial as text, with a variable sometimes written as two factors."""
    factors = []
    for name, e in zip(variables, exp):
        if e > 1 and e % 3 == 0:
            factors += [f"{name}^{e // 3}", f"{name}^{e - e // 3}"]
        elif e:
            factors.append(name if e == 1 else f"{name}^{e}")
    return "*".join(factors)


@st.composite
def polynomial_texts(draw, exponent=st.integers(0, 5)):
    """(text, variables, degree): a sum of up to six terms in two to four
    variables, monomials repeated and cancelled, rational coefficients;
    ``degree`` is the largest degree of a term written."""
    variables = NAMES[: draw(st.integers(2, 4))]
    monomials = st.lists(st.tuples(*[exponent] * len(variables)), min_size=1, max_size=4)
    pool = draw(monomials)
    chunks, degree = [], 0
    for k, exp in enumerate(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))):
        degree = max(degree, sum(exp))
        c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=4))
        sign = "-" if c < 0 else ("+" if k or draw(st.booleans()) else "")
        magnitude = str(abs(c))
        monomial = written(exp, variables)
        if not monomial:
            term = magnitude
        elif abs(c) == 1 and draw(st.booleans()):
            term = monomial
        else:
            term = f"{magnitude}*{monomial}"
        chunks.append(f" {sign} {term}" if k else f"{sign}{term}")
    return "".join(chunks), variables, degree


def sympy_terms(poly):
    """The terms of a sympy Poly, as exponent tuples to Fractions."""
    return {e: Fraction(int(c.p), int(c.q)) for e, c in poly.as_dict().items()}


def sympy_poly(text, variables):
    sympy = pytest.importorskip("sympy")
    symbols = sympy.symbols(variables)
    return sympy.Poly(sympy.sympify(text.replace("^", "**")), *symbols, domain="QQ"), symbols


@settings(max_examples=80, deadline=None)
@given(polynomial_texts())
def test_parse_and_derivatives_match_sympy(case):
    text, variables, _ = case
    f = parse_polynomial(text, variables)
    poly, symbols = sympy_poly(text, variables)
    assert f.terms == sympy_terms(poly)
    assert all(type(c) is Fraction for c in f.terms.values())
    for i, symbol in enumerate(symbols):
        assert f.derivative(i).terms == sympy_terms(poly.diff(symbol))
        assert f.derivative(variables[i]) == f.derivative(i)
    if f.is_constant():
        with pytest.raises(ValueError, match="constant"):
            jacobian_ideal(f)
    else:
        gens = jacobian_ideal(f).generators
        assert [g.terms for g in gens] == [sympy_terms(poly.diff(s)) for s in symbols]
    expected = -1 if poly.is_zero else poly.total_degree()
    assert f.total_degree() == expected
    assert f.is_homogeneous() == (poly.is_zero or poly.is_homogeneous)


@settings(max_examples=80, deadline=None)
@given(polynomial_texts(), st.data())
def test_dehomogenize_matches_sympy(case, data):
    text, variables, _ = case
    chart = data.draw(st.integers(0, len(variables) - 1))
    poly, symbols = sympy_poly(text, variables)
    rest = symbols[:chart] + symbols[chart + 1 :]
    f = dehomogenize(parse_polynomial(text, variables), chart)
    assert f.variables == variables[:chart] + variables[chart + 1 :]
    assert f.terms == sympy_terms(poly.as_expr().subs(symbols[chart], 1).as_poly(*rest, domain="QQ"))


@settings(max_examples=40, deadline=None)
@given(polynomial_texts(exponent=st.sampled_from([0, 1, 2, 4096, 10922, 16383, 32767])))
def test_high_exponents_match_sympy(case):
    # Text with a term above the limit is refused, even when it cancels.
    text, variables, degree = case
    if degree > _LIMIT:
        with pytest.raises(ValueError) as err:
            parse_polynomial(text, variables)
        assert type(err.value) is ValueError and str(err.value) == TOO_BIG
        return
    f = parse_polynomial(text, variables)
    poly, symbols = sympy_poly(text, variables)
    assert f.terms == sympy_terms(poly)
    assert f.derivative(0).terms == sympy_terms(poly.diff(symbols[0]))


@st.composite
def over_the_limit(draw):
    """An exponent tuple of total degree above the limit, often with
    one entry past the field, in one to four variables."""
    nvars = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(0, 40000), st.sampled_from([_LIMIT, _LIMIT + 1, 1 << 16, 1 << 40]))
    exp = draw(st.tuples(*[entry] * nvars).filter(lambda e: sum(e) > _LIMIT))
    return exp, NAMES[:nvars]


@given(over_the_limit(), st.booleans())
def test_over_the_limit_is_refused_when_built_or_parsed(case, first):
    exp, variables = case
    with pytest.raises(ValueError) as err:
        Polynomial(variables, {exp: 1, (0,) * len(exp): 2})
    assert str(err.value) == TOO_BIG
    other = "3*" + variables[-1]
    text = f"{written(exp, variables)} + {other}" if first else f"{other} - {written(exp, variables)}"
    with pytest.raises(ValueError) as err:
        parse_polynomial(text, variables)
    assert type(err.value) is ValueError and str(err.value) == TOO_BIG


@pytest.mark.parametrize("nvars", [1, 2, 4])
def test_degree_at_the_limit_is_accepted(nvars):
    variables = NAMES[:nvars]
    exp = (_LIMIT - nvars + 1,) + (1,) * (nvars - 1)
    f = parse_polynomial(f"{written(exp, variables)} - 1", variables)
    assert f == Polynomial(variables, {exp: 1, (0,) * nvars: -1})
    assert f.terms == {exp: 1, (0,) * nvars: -1}
    assert f.total_degree() == _LIMIT


def test_the_limit_is_checked_term_by_term():
    # After the tokenizer, and before the grammar of the terms after it.
    with pytest.raises(PolyParseError, match="unexpected character"):
        parse_polynomial("x^40000 + $", XYZ)
    with pytest.raises(PolyParseError, match="unknown variable 'q'"):
        parse_polynomial("q + x^40000", XYZ)
    with pytest.raises(ValueError, match="beyond the Groebner engine"):
        parse_polynomial("x^40000 + q", XYZ)
