"""A second route to the total Milnor number, from the ideals J + (f^k).

A = Q[x]/J, for J the Jacobian ideal of the chart equation f, is the
product of the local algebras at the critical points of f.  f is
nilpotent on the factors at points of the hypersurface and a unit on
the others, so dim Q[x]/(J + (f^k)) rises with k to the total Milnor
number.  It stops once two values agree: f^k = j + g f^(k+1) with j in J
puts f^k (1 - g f) in J, and 1 - g f is a unit wherever f is nilpotent.
At k = 1 the value is the total Tjurina number.

The route takes a basis of each J + (f^k) and counts its staircase.  It
shares ``groebner`` and ``quotient_dim`` with ``total_milnor_number``,
and none of that count's multiplication matrix and ranks.
"""

import json
import pathlib
from fractions import Fraction

import pytest

from milnorcalc.groebner import groebner, quotient_dim, total_milnor_number
from milnorcalc.polynomials import PolyIdeal, Polynomial, parse_polynomial
from milnorcalc.scenefile import load_scene

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"
POLYNOMIAL_SCENES = sorted(
    path.name for path in SCENES.glob("*.json") if "polynomial" in json.loads(path.read_text(encoding="utf-8"))
)


def chart_equation(F, chart):
    """F with its chart variable set to 1, read from its exponent tuples."""
    i = F.variables.index(chart)
    terms = {}
    for e, c in F.terms.items():
        rest = e[:i] + e[i + 1 :]
        terms[rest] = terms.get(rest, 0) + c
    return Polynomial(F.variables[:i] + F.variables[i + 1 :], terms)


def power(f, k):
    """f^k, multiplied out on packed terms: the packed form of a product
    of monomials is the sum of theirs."""
    terms = {0: Fraction(1)}
    for _ in range(k):
        product = {}
        for a, c in terms.items():
            for b, d in f._terms.items():
                product[a + b] = product.get(a + b, 0) + c * d
        terms = {m: c for m, c in product.items() if c}
    return Polynomial._of_clean(f.variables, terms)


def milnor_by_ideals(F, chart):
    """dim Q[x]/(J + (f^k)) for k = 1, 2, ..., up to the first value that repeats."""
    f = chart_equation(F, chart)
    jacobian = [f.derivative(i) for i in range(len(f.variables))]
    values = []
    while len(values) < 2 or values[-1] != values[-2]:
        values.append(quotient_dim(groebner(PolyIdeal([*jacobian, power(f, len(values) + 1)]))))
    return values


def test_the_corpus_has_six_polynomial_scenes():
    assert len(POLYNOMIAL_SCENES) == 6


@pytest.mark.parametrize("name", POLYNOMIAL_SCENES)
def test_the_route_matches_each_polynomial_scene(name):
    scene, _ = load_scene(str(SCENES / name))
    F, chart = scene.defining_polynomial, scene.chart
    assert milnor_by_ideals(F, chart)[-1] == total_milnor_number(F, chart).total_milnor


def test_one_power_is_not_enough_where_f_is_not_in_its_jacobian_ideal():
    # x^5 + y^4 + x^2 y^2 at the origin is not quasi-homogeneous: its
    # Tjurina number 9 is below its Milnor number 10.
    F = parse_polynomial("x^5 + y^4*z + x^2*y^2*z", ("x", "y", "z"))
    assert milnor_by_ideals(F, "z") == [9, 10, 10]
    assert total_milnor_number(F, "z").total_milnor == 10
