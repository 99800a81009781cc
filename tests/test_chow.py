"""Truncated Chow rings of products of projective spaces."""

import math
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

from milnorcalc import chow
from milnorcalc.charclasses import build_report, canonical_json, fulton_johnson, report_to_jsonable
from milnorcalc.chow import (
    AmbientSpace,
    ChowClass,
    divisor_class,
    hyperplane,
    pull_back,
    push_forward,
    self_intersection_check,
    tangent_class,
    unit_inverse,
)
from milnorcalc.scenefile import load_scene

P2 = AmbientSpace((2,))
P3 = AmbientSpace((3,))
P2xP1 = AmbientSpace((2, 1))


def cls(ambient, coefficients):
    return ChowClass(ambient, coefficients)


def naive_product(a, b):
    # Independent multiplication oracle: plain convolution of exponent
    # maps with explicit truncation at the factor dimensions.
    out = {}
    for e1, c1 in a.coefficients.items():
        for e2, c2 in b.coefficients.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            if all(i <= n for i, n in zip(e, a.ambient.factors)):
                out[e] = out.get(e, 0) + c1 * c2
    return ChowClass(a.ambient, out)


# Oracles for the closed forms and for division: the constructions the
# package used before, by repeated products and a geometric series.


def power(x, k):
    result = ChowClass.unit(x.ambient)
    for _ in range(k):
        result = result * x
    return result


def powered_factor_tangent(ambient, factor):
    n = ambient.factors[factor]
    return power(ChowClass.unit(ambient) + hyperplane(ambient, factor), n + 1)


def powered_tangent_class(ambient):
    result = ChowClass.unit(ambient)
    for i in range(len(ambient.factors)):
        result = result * powered_factor_tangent(ambient, i)
    return result


def series_inverse(u):
    # 1 + v + v^2 + ... with v = 1 - u nilpotent, so the sum is finite.
    assert u.constant_term() == 1
    nilpotent = ChowClass.unit(u.ambient) - u
    result = term = ChowClass.unit(u.ambient)
    for _ in range(u.ambient.dim):
        term = term * nilpotent
        result = result + term
    return result


class TestAmbient:
    def test_dim_and_top(self):
        assert P2xP1.dim == 3
        assert ChowClass.point(P2xP1).coefficients == {(2, 1): 1}

    def test_letters(self):
        assert P2.letters() == ("H",)
        assert P2xP1.letters() == ("H", "K")
        assert AmbientSpace((1, 1, 1)).letters() == ("H1", "H2", "H3")

    def test_extended(self):
        assert P2.extended(1) == P2xP1

    def test_box_size(self):
        assert len(list(P2xP1.box())) == 6

    def test_zero_dimensional_factor_allowed(self):
        point = AmbientSpace((0,))
        assert tangent_class(point) == ChowClass.unit(point)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AmbientSpace(())
        with pytest.raises(ValueError):
            AmbientSpace((2, -1))

    # Before, each was truncated by int(): (2.9,) became P^2.
    @pytest.mark.parametrize("factors", [(2.9,), (True,), ("2",), (2, 1.0)])
    def test_non_integer_dimension_rejected(self, factors):
        with pytest.raises(TypeError, match="factor dimensions must be integers"):
            AmbientSpace(factors)

    @pytest.mark.parametrize("extra_dim", [1.5, True])
    def test_non_integer_new_factor_rejected(self, extra_dim):
        with pytest.raises(TypeError, match="factor dimensions must be integers"):
            P2.extended(extra_dim)
        with pytest.raises(TypeError, match="factor dimensions must be integers"):
            pull_back(hyperplane(P2), extra_dim)


class TestBoxBudget:
    """A box of more than 400,000 positions is refused before it is built."""

    def test_product_box_of_p20_to_the_fourth(self):
        # At m = 1 it has 388,962 positions, and is built (but not kept);
        # at m = 2 it has 583,443.
        assert chow._layout.__wrapped__((20, 20, 20, 20, 1)).size == 388_962
        with pytest.raises(ValueError) as caught:
            chow._layout((20, 20, 20, 20, 2))
        assert str(caught.value) == (
            "the Chow ring of P^20 x P^20 x P^20 x P^20 x P^2 has more than 400000 coefficients,"
            " the most a class may hold"
        )

    def test_every_constructor_is_refused(self):
        big = AmbientSpace((40, 40, 40, 40))
        for build in (ChowClass.zero, ChowClass.unit, ChowClass.point, tangent_class, hyperplane, ChowClass):
            with pytest.raises(ValueError, match="P\\^40 x P\\^40 x P\\^40 x P\\^40 has more than 400000"):
                build(big)

    def test_pull_back_is_refused_before_its_product_is_allocated(self):
        with pytest.raises(ValueError, match="P\\^2 x P\\^99999999999 has more than 400000"):
            pull_back(hyperplane(P2), 99_999_999_999)

    def test_a_box_of_exactly_the_limit_is_built(self):
        # 10^4 * 5 * 8 = 400,000 positions; P^400000 has one more.
        assert chow._layout.__wrapped__((9, 9, 9, 9, 4, 7)).size == 400_000
        with pytest.raises(ValueError) as caught:
            chow._layout((400_000,))
        assert str(caught.value) == (
            "the Chow ring of P^400000 has more than 400000 coefficients, the most a class may hold"
        )

    def test_a_tangent_class_of_exactly_the_bit_limit_is_built(self):
        # 320,000 positions at dim + k = 125 bits each: 40,000,000 exactly.
        assert chow._layout.__wrapped__((4, 39, 39, 39)).size == 320_000
        with pytest.raises(ValueError) as caught:
            chow._layout((4, 39, 39, 40))
        assert str(caught.value) == (
            "the tangent class of P^4 x P^39 x P^39 x P^40 may need 41328000 bits,"
            " more than the 40000000 a class may hold"
        )

    def test_one_large_factor_is_refused_by_its_bits(self):
        # Inside the box limit, the tangent class of P^72447 would hold
        # binomials of up to 72,448 bits at each of its positions.
        assert chow._box_size((6323,)) == 6324
        for factors in ((6324,), (72447,), (2, 6400)):
            with pytest.raises(ValueError, match="may need [0-9]+ bits, more than the 40000000"):
                chow._box_size(factors)


class TestChowClass:
    def test_truncation_on_construction(self):
        assert cls(P2, {(5,): 3}).is_zero()

    def test_zero_coefficients_dropped(self):
        assert cls(P2, {(1,): 0}).coefficients == {}

    def test_bool_coefficient_rejected(self):
        with pytest.raises(TypeError):
            cls(P2, {(1,): True})

    # Before, each was read through int() as an H or H^2 term.
    @pytest.mark.parametrize("exp", [(1.7,), ("2",), (True,), (1.0,)])
    def test_non_integer_exponent_rejected(self, exp):
        with pytest.raises(TypeError, match="not an integer"):
            cls(P2, {exp: 3})

    def test_wrong_exponent_length(self):
        with pytest.raises(ValueError):
            cls(P2, {(1, 1): 1})

    def test_product_truncates(self):
        h = hyperplane(P2)
        assert (h * h * h).is_zero()
        assert h * h == cls(P2, {(2,): 1})

    def test_scalar_and_sub(self):
        h = hyperplane(P2)
        assert 2 * h - h == h
        assert h - h == ChowClass.zero(P2)

    def test_degree_reads_top_cell(self):
        x = cls(P2xP1, {(2, 1): 7, (1, 0): 5})
        assert x.degree() == 7
        assert ChowClass.zero(P2).degree() == 0

    def test_graded_piece(self):
        x = cls(P2xP1, {(2, 1): 7, (1, 0): 5, (0, 1): 2})
        assert x.graded_piece(1) == cls(P2xP1, {(1, 0): 5, (0, 1): 2})

    def test_point_class(self):
        assert ChowClass.point(P2xP1) == cls(P2xP1, {(2, 1): 1})

    def test_str_single_factor(self):
        assert str(cls(P2, {(1,): 3, (2,): 1})) == "3H + H^2"
        assert str(cls(P2, {(2,): -1})) == "-H^2"
        assert str(ChowClass.zero(P2)) == "0"
        assert str(ChowClass.unit(P2)) == "1"

    def test_str_two_factors(self):
        x = cls(P2xP1, {(2, 1): -2, (1, 0): 1})
        assert str(x) == "H - 2H^2K"


class TestStandardClasses:
    def test_tangent_class_p2(self):
        assert tangent_class(P2) == cls(P2, {(0,): 1, (1,): 3, (2,): 3})

    def test_tangent_class_product(self):
        expected = cls(
            P2xP1,
            {(0, 0): 1, (1, 0): 3, (2, 0): 3, (0, 1): 2, (1, 1): 6, (2, 1): 6},
        )
        assert tangent_class(P2xP1) == expected == powered_tangent_class(P2xP1)

    def test_factor_tangent(self):
        # The tangent class along the last factor is the pullback of the unit.
        assert pull_back(ChowClass.unit(P2), 1) == cls(P2xP1, {(0, 0): 1, (0, 1): 2})

    def test_divisor_class(self):
        assert divisor_class(P2xP1, (3, 2)) == cls(P2xP1, {(1, 0): 3, (0, 1): 2})
        with pytest.raises(ValueError):
            divisor_class(P2xP1, (3,))


class TestUnitInverse:
    def test_geometric_series(self):
        u = ChowClass.unit(P3) + divisor_class(P3, (2,))
        assert unit_inverse(u) == cls(P3, {(0,): 1, (1,): -2, (2,): 4, (3,): -8})

    def test_round_trip(self):
        u = tangent_class(P2xP1)
        assert u * unit_inverse(u) == ChowClass.unit(P2xP1)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="constant coefficient must be 1"):
            unit_inverse(hyperplane(P2))
        with pytest.raises(ValueError, match="constant coefficient must be 1"):
            unit_inverse(2 * ChowClass.unit(P2))


class TestFactorMaps:
    def test_insert_factor(self):
        # The lifted class, times the tangent class of the fiber P^1.
        x = cls(P2, {(2,): 5, (0,): 1})
        lifted = cls(P2xP1, {(2, 0): 5, (0, 0): 1})
        assert pull_back(x, 1) == powered_factor_tangent(P2xP1, 1) * lifted

    def test_forget_factor_keeps_full_fiber_power(self):
        x = cls(P2xP1, {(1, 1): 3, (2, 0): 9})
        assert push_forward(x) == cls(P2, {(1,): 3})

    def test_forget_last_factor_rejected(self):
        with pytest.raises(ValueError, match="cannot forget the only factor"):
            push_forward(hyperplane(P2))

    def test_push_pull_section(self):
        # Pushing forward after pulling back and multiplying by the fiber
        # point class recovers the original: the section has degree one.
        x = cls(P2, {(1,): 2, (2,): -1})
        fiber_point = cls(P2xP1, {(0, 1): 1})
        assert push_forward(pull_back(x, 1) * fiber_point) == x

    def test_pushforward_of_unit(self):
        # P^2 x P^1 -> P^2 has one-dimensional fibers: the unit pushes
        # to zero in the dimension count, not to the unit.
        assert push_forward(ChowClass.unit(P2xP1)).is_zero()


class TestGysin:
    def test_self_intersection_sweep(self):
        assert self_intersection_check(P2, (3,))
        assert self_intersection_check(P2xP1, (2, 1))

    def test_self_intersection_multiplies_no_classes(self, monkeypatch):
        products = []
        original = ChowClass.__mul__

        def counted(a, b):
            if isinstance(b, ChowClass):
                products.append((a, b))
            return original(a, b)

        monkeypatch.setattr(ChowClass, "__mul__", counted)
        assert self_intersection_check(AmbientSpace((3, 2, 2)), (1, 2, 3))
        assert products == []

    def test_self_intersection_fails_on_a_dropped_term(self, monkeypatch):
        original = ChowClass.graded_piece

        def lossy(x, d):
            terms = dict(original(x, d).coefficients)
            terms.pop(max(terms))
            return ChowClass(x.ambient, terms)

        monkeypatch.setattr(ChowClass, "graded_piece", lossy)
        assert not self_intersection_check(P2xP1, (2, 1))


class TestDivision:
    def test_divide_by_normal_class(self):
        u = ChowClass.unit(P3) + divisor_class(P3, (2,))
        x = cls(P3, {(1,): 2})
        assert x / u == cls(P3, {(1,): 2, (2,): -4, (3,): 8})

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            hyperplane(P2) / ChowClass.unit(P3)

    def test_only_classes_divide(self):
        with pytest.raises(TypeError):
            hyperplane(P2) / 2


ambients = st.sampled_from([P2, P3, P2xP1])
small_ambients = st.lists(st.integers(0, 3), min_size=1, max_size=3).map(
    lambda factors: AmbientSpace(tuple(factors))
)

# Products and quotients zero, for each factor and power, either one slice
# per run of small exponents or one extended slice per offset in a run,
# whichever list is shorter; which one depends on the dimensions before
# and after the factor.  These dimensions, from P^0 (one box position,
# its runs empty) up to P^8, mixed in up to five factors, give both kinds
# at the first, inner and last factors; the box stays at 729 entries or
# fewer.
FIELD_EDGE_DIMS = (0, 1, 2, 3, 4, 7, 8)
field_edge_ambients = (
    st.lists(st.sampled_from(FIELD_EDGE_DIMS), min_size=1, max_size=5)
    .filter(lambda factors: math.prod(n + 1 for n in factors) <= 729)
    .map(lambda factors: AmbientSpace(tuple(factors)))
)


@st.composite
def chow_classes(draw, ambient=None):
    if ambient is None:
        ambient = draw(ambients)
    box = list(ambient.box())
    coefficients = draw(
        st.dictionaries(st.sampled_from(box), st.integers(-50, 50), max_size=5)
    )
    return ChowClass(ambient, coefficients)


@st.composite
def classes_and_unit(draw, constants=st.just(1), ambients=small_ambients):
    # A class x and a class u of the given constant term on one random
    # ambient; the positive-degree part of u is arbitrary.
    ambient = draw(ambients)
    x = draw(chow_classes(ambient=ambient))
    rest = draw(chow_classes(ambient=ambient))
    positive = ChowClass(ambient, {e: c for e, c in rest.coefficients.items() if any(e)})
    return x, draw(constants) * ChowClass.unit(ambient) + positive


@given(field_edge_ambients)
def test_tangent_classes_match_powered_oracle(ambient):
    assert tangent_class(ambient) == powered_tangent_class(ambient)
    *base, last = ambient.factors
    if base:
        fiber_tangent = pull_back(ChowClass.unit(AmbientSpace(tuple(base))), last)
        assert fiber_tangent == powered_factor_tangent(ambient, len(base))


@given(classes_and_unit(ambients=field_edge_ambients))
def test_division_solves_the_product(pair):
    x, u = pair
    y = x / u
    assert y * u == x
    assert y == x * series_inverse(u)


@given(classes_and_unit(constants=st.sampled_from([0, 2, -1, 5])))
def test_division_by_non_unit_rejected(pair):
    x, u = pair
    with pytest.raises(ValueError, match="constant coefficient must be 1"):
        x / u


@st.composite
def class_pairs(draw):
    # Two classes on one random ambient at the field edges.
    ambient = draw(field_edge_ambients)
    return draw(chow_classes(ambient=ambient)), draw(chow_classes(ambient=ambient))


@given(class_pairs())
def test_product_matches_naive_oracle(pair):
    a, b = pair
    assert a * b == naive_product(a, b)


def assert_clean(x):
    # What the constructor would keep: no zero coefficient and every
    # exponent inside the box.
    for exp, value in x.coefficients.items():
        assert value != 0
        assert len(exp) == len(x.ambient.factors)
        assert all(0 <= e <= n for e, n in zip(exp, x.ambient.factors))


def test_cancelling_product_stores_nothing():
    p1xp1 = AmbientSpace((1, 1))
    h, k = hyperplane(p1xp1, 0), hyperplane(p1xp1, 1)
    assert ((h + k) * (h - k)).coefficients == {}


@given(classes_and_unit(ambients=field_edge_ambients))
def test_results_are_clean(pair):
    x, u = pair
    for result in (x * u, u * x, x / u, x + u, x + (-x), x * x):
        assert_clean(result)


# The ambients of the benchmark's chow workload, each extended by the
# product factor P^3, with a dense class divided by 1 + D.
WORKLOAD_AMBIENTS = [(6, 6), (3, 3, 3), (2, 2, 2, 2), (4, 4, 4)]


@pytest.mark.parametrize("factors", WORKLOAD_AMBIENTS)
def test_dense_division_on_workload_ambients(factors):
    rng = random.Random(sum(factors))
    ambient = AmbientSpace(factors).extended(3)
    divisor = divisor_class(ambient, [rng.randint(1, 4) for _ in ambient.factors])
    x = tangent_class(ambient) * divisor
    u = ChowClass.unit(ambient) + divisor
    y = x / u
    assert y == x * series_inverse(u)
    assert y * u == x


# Dense classes on ambients whose fields differ in width, so that every
# truncation and every f <= e test crosses a field edge somewhere.
@pytest.mark.parametrize("factors", [(8, 0, 1), (7,), (8,), (4, 3), (1, 1, 1, 1, 1), (0, 2, 8), (3, 4, 7)])
def test_dense_classes_at_field_edges(factors):
    rng = random.Random(repr(factors))
    ambient = AmbientSpace(factors)
    box = list(ambient.box())
    a = cls(ambient, {e: rng.randint(-9, 9) for e in box})
    b = cls(ambient, {e: rng.randint(-9, 9) for e in rng.sample(box, min(len(box), 12))})
    assert a * b == naive_product(a, b) == b * a
    u = ChowClass.unit(ambient) + divisor_class(ambient, [rng.randint(1, 4) for _ in factors])
    assert a / u == a * series_inverse(u)
    assert tangent_class(ambient) == powered_tangent_class(ambient)


# Ambients with a P^0 factor, one factor, five factors, and a product
# ambient Y x P^m with its P^m last.
@pytest.mark.parametrize(
    "factors", [(2, 0, 3), (1, 0), (0,), (6,), (1, 2, 1, 1, 2), AmbientSpace((2, 2)).extended(3).factors]
)
def test_tables_hold_the_predecessor_exactly_where_the_term_divides(factors):
    box = list(AmbientSpace(factors).box())
    # A fresh layout, so that every table is built here.
    layout = chow._layout.__wrapped__(factors)
    for f, exponent in enumerate(box):
        expected = [t - f + 1 if all(a >= b for a, b in zip(e, exponent)) else 0 for t, e in enumerate(box)]
        assert chow._tables(layout, (f,))[0] == tuple(expected)


def test_division_builds_no_classes(monkeypatch):
    ambient = AmbientSpace((4, 4, 4, 3))
    divisor = divisor_class(ambient, (1, 2, 3, 4))
    x = tangent_class(ambient) * divisor
    u = ChowClass.unit(ambient) + divisor
    calls = {"__mul__": 0, "__add__": 0, "__init__": 0}
    for name in calls:
        original = getattr(ChowClass, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(ChowClass, name, counted)
    x / u
    assert calls == {"__mul__": 0, "__add__": 0, "__init__": 0}


def test_factories_build_no_classes(monkeypatch):
    ambient = AmbientSpace((3, 2, 4))
    x = tangent_class(ambient) * divisor_class(ambient, (1, 2, 3))
    calls = {"__init__": 0}
    original = ChowClass.__init__

    def counted(*args, **kwargs):
        calls["__init__"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(ChowClass, "__init__", counted)
    results = [
        ChowClass.zero(ambient),
        x.graded_piece(2),
        pull_back(x, 2),
        push_forward(x),
    ]
    assert calls == {"__init__": 0}
    monkeypatch.undo()
    for result in results:
        assert_clean(result)
    assert results[0].is_zero()
    assert results[1] == cls(ambient, {e: c for e, c in x.coefficients.items() if sum(e) == 2})
    pulled = {e + (j,): math.comb(3, j) * c for e, c in x.coefficients.items() for j in range(3)}
    assert results[2] == cls(AmbientSpace((3, 2, 4, 2)), pulled)
    assert results[3] == cls(AmbientSpace((3, 2)), {e[:2]: c for e, c in x.coefficients.items() if e[2] == 4})


def test_zero_divided_without_walking_the_box(monkeypatch):
    ambient = AmbientSpace((4, 4, 4, 3))
    zero = ChowClass.zero(ambient)
    u = ChowClass.unit(ambient) + divisor_class(ambient, (1, 2, 3, 4))

    def no_box(self):
        raise AssertionError("box walked")

    monkeypatch.setattr(AmbientSpace, "box", no_box)
    assert zero / u == zero
    with pytest.raises(ValueError, match="constant coefficient must be 1"):
        zero / divisor_class(ambient, (1, 2, 3, 4))
    with pytest.raises(ValueError, match="ambient mismatch"):
        ChowClass.zero(P3) / u


@given(chow_classes(ambient=P3), chow_classes(ambient=P3), chow_classes(ambient=P3))
def test_ring_axioms(a, b, c):
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == ChowClass.zero(P3)
    assert a * ChowClass.unit(P3) == a


@given(chow_classes(ambient=P2xP1))
def test_unit_inverse_round_trip(x):
    u = ChowClass.unit(P2xP1) + x.graded_piece(1) + x.graded_piece(2)
    assert u * unit_inverse(u) == ChowClass.unit(P2xP1)


@given(chow_classes(ambient=P2), chow_classes(ambient=P2xP1))
def test_projection_formula(x, y):
    # forget(insert(x) * y) = x * forget(y) for the projection to P^2.
    lhs = push_forward(inserted_oracle(x, 1, 1) * y)
    rhs = x * push_forward(y)
    assert lhs == rhs


# Ring identities behind the report's product checks, on Y x P^m with
# the new factor last (k = len(Y.factors)).  (a) is what verdier_m* and
# lci_m* compare, (b) what pushdown_m* compares.

fiber_dims = st.sampled_from([1, 2, 3])


@st.composite
def ambients_and_degrees(draw):
    # A multidegree whose divisor class is nonzero in the truncated ring.
    ambient = draw(small_ambients)
    n = len(ambient.factors)
    degree = tuple(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    assume(not divisor_class(ambient, degree).is_zero())
    return ambient, degree


@given(ambients_and_degrees(), fiber_dims)
def test_product_fulton_johnson_is_pulled_back(case, m):
    Y, d = case
    assert fulton_johnson(Y.extended(m), [d + (0,)]) == pull_back(fulton_johnson(Y, [d]), m)


@given(small_ambients.flatmap(chow_classes), fiber_dims)
def test_pushdown_of_fiber_tangent_multiplies_by_fiber_euler(x, m):
    assert push_forward(pull_back(x, m)) == (m + 1) * x


@given(classes_and_unit(), fiber_dims, st.data())
def test_insert_factor_commutes_with_products_and_division(pair, m, data):
    # The pullback is linear over the plain lift of the base ring.
    x, u = pair
    y = data.draw(chow_classes(ambient=x.ambient))
    last = len(x.ambient.factors)
    assert pull_back(x * y, m) == pull_back(x, m) * inserted_oracle(y, m, last)
    assert pull_back(x / u, m) == pull_back(x, m) / inserted_oracle(u, m, last)


# Classes store packed exponents; these check the boundary against
# tuple-keyed oracles written here.


@st.composite
def ambients_and_raw_coefficients(draw):
    # Exponents up to one past each factor, so that some are truncated,
    # and zero values, so that some are dropped.
    ambient = draw(field_edge_ambients)
    exponents = st.tuples(*(st.integers(0, n + 1) for n in ambient.factors))
    return ambient, draw(st.dictionaries(exponents, st.integers(-3, 3), max_size=12))


@given(ambients_and_raw_coefficients())
def test_coefficients_round_trip_the_cleaned_map(case):
    ambient, raw = case
    clean = {e: c for e, c in raw.items() if c and all(a <= n for a, n in zip(e, ambient.factors))}
    x = ChowClass(ambient, raw)
    assert x.coefficients == clean
    assert ChowClass(ambient, x.coefficients) == x
    returned = x.coefficients
    returned[ambient.factors] = returned.get(ambient.factors, 0) + 1
    returned.pop((0,) * len(ambient.factors), None)
    assert x.coefficients == clean


def inserted_oracle(x, extra_dim, position):
    factors = x.ambient.factors
    ambient = AmbientSpace(factors[:position] + (extra_dim,) + factors[position:])
    return cls(ambient, {e[:position] + (0,) + e[position:]: c for e, c in x.coefficients.items()})


def forgotten_oracle(x, position):
    factors = x.ambient.factors
    ambient = AmbientSpace(factors[:position] + factors[position + 1 :])
    full = factors[position]
    return cls(ambient, {e[:position] + e[position + 1 :]: c for e, c in x.coefficients.items() if e[position] == full})


@given(field_edge_ambients.flatmap(chow_classes), st.sampled_from(FIELD_EDGE_DIMS))
def test_pull_back_and_push_forward_match_tuple_oracles(x, m):
    last = len(x.ambient.factors)
    pulled = pull_back(x, m)
    product = pulled.ambient
    assert pulled == powered_factor_tangent(product, last) * inserted_oracle(x, m, last)
    assert push_forward(pulled) == forgotten_oracle(pulled, last) == (m + 1) * x
    if last > 1:
        assert push_forward(x) == forgotten_oracle(x, last - 1)
    # The fiber point class H_new^m cuts the fiber tangent class to 1.
    assert push_forward(pulled * power(hyperplane(product, last), m)) == x


@given(field_edge_ambients)
def test_builders_match_the_validating_constructor(ambient):
    k = len(ambient.factors)
    for i, n in enumerate(ambient.factors):
        exp = tuple(int(j == i) for j in range(k))
        assert hyperplane(ambient, i) == cls(ambient, {exp: 1})
    if k > 1:
        n = ambient.factors[-1]
        tangent = {(0,) * (k - 1) + (a,): math.comb(n + 1, a) for a in range(n + 1)}
        assert pull_back(ChowClass.unit(AmbientSpace(ambient.factors[:-1])), n) == cls(ambient, tangent)
    degrees = [i + 2 for i in range(k)]
    divisor = {tuple(int(j == i) for j in range(k)): d for i, d in enumerate(degrees)}
    assert divisor_class(ambient, degrees) == cls(ambient, divisor)
    expected = {e: math.prod(math.comb(n + 1, a) for a, n in zip(e, ambient.factors)) for e in ambient.box()}
    assert tangent_class(ambient) == cls(ambient, expected)


def test_tangent_classes_are_independent_copies():
    # Every tangent class of an ambient shares the layout's tuple, which
    # cannot be changed in place; arithmetic on one leaves the next intact.
    first = tangent_class(P2xP1)
    with pytest.raises(TypeError):
        first._terms[0] = 5
    changed = [first + first, -first, 3 * first, first * hyperplane(P2xP1), first / first]
    assert changed[-1] == ChowClass.unit(P2xP1)
    assert tangent_class(P2xP1) == first == powered_tangent_class(P2xP1)


@pytest.mark.parametrize("factor", [-1, 2])
def test_hyperplane_rejects_a_factor_out_of_range(factor):
    with pytest.raises(ValueError, match="factor out of range"):
        hyperplane(P2xP1, factor)


def test_key_strings_are_built_only_for_emitted_ambients():
    # A report emits classes of its scene's ambient, never of the product
    # ambients X x P^m of its checks, so those layouts keep no key strings.
    chow._layout.cache_clear()
    scene, mu = load_scene(str(Path(__file__).resolve().parent.parent / "scenes" / "nodal-cubic.json"))
    for m in (1, 2, 3):
        text = canonical_json(report_to_jsonable(build_report(scene, mu, m=m)))
        assert '"2": ' in text
    assert chow._layout(scene.ambient.factors).keys
    for m in (1, 2, 3):
        assert chow._layout(scene.ambient.extended(m).factors).keys == {}
    assert ChowClass(P2xP1, {(1, 1): 3}).keyed_terms() == [("1,1", 3)]
    assert list(chow._layout((2, 1)).keys.values()) == sorted(",".join(map(str, e)) for e in P2xP1.box())


def test_classes_outlive_their_evicted_layout():
    # Classes hold only their coefficient tuples: once more than
    # _LAYOUT_CACHE_SIZE other ambients have evicted their layout, with its
    # predecessor tables and key strings, they still compute and emit.
    ambient = AmbientSpace((3, 2, 4))
    rng = random.Random(7)
    box = list(ambient.box())
    x = cls(ambient, {e: rng.randint(-9, 9) for e in rng.sample(box, 20)})
    y = cls(ambient, {e: rng.randint(-9, 9) for e in rng.sample(box, 3)})
    u = ChowClass.unit(ambient) + divisor_class(ambient, (1, 2, 3))
    expected = (x + y, naive_product(x, y), x * series_inverse(u), x.keyed_terms())
    layout = chow._layout(ambient.factors)
    assert layout.tables
    for n in range(chow._LAYOUT_CACHE_SIZE + 1):
        z = tangent_class(AmbientSpace((n + 1, 1)))
        z * hyperplane(z.ambient, 1) / (ChowClass.unit(z.ambient) + hyperplane(z.ambient, 0))
    assert chow._layout(ambient.factors) is not layout
    assert (x + y, x * y, x / u, x.keyed_terms()) == expected
    assert y * x == expected[1] and y / u * u == y
