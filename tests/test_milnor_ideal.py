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

import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from milnorcalc.groebner import groebner, quotient_dim, total_milnor_number
from milnorcalc.polynomials import PolyIdeal, Polynomial, parse_polynomial
from milnorcalc.scenefile import load_scene
from test_thom_sebastiani import cross, line_product, suspension

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


def multiply(factors):
    """The product of ``factors``, multiplied out on packed terms: the
    packed form of a product of monomials is the sum of theirs."""
    terms = {0: Fraction(1)}
    for f in factors:
        product = {}
        for a, c in terms.items():
            for b, d in f._terms.items():
                product[a + b] = product.get(a + b, 0) + c * d
        terms = {m: c for m, c in product.items() if c}
    return Polynomial._of_clean(factors[0].variables, terms)


def milnor_by_ideals(F, chart):
    """dim Q[x]/(J + (f^k)) for k = 1, 2, ..., up to the first value that repeats."""
    f = chart_equation(F, chart)
    jacobian = [f.derivative(i) for i in range(len(f.variables))]
    values = []
    while len(values) < 2 or values[-1] != values[-2]:
        values.append(quotient_dim(groebner(PolyIdeal([*jacobian, multiply([f] * (len(values) + 1))]))))
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


@pytest.mark.parametrize("d, k", [(4, 1), (5, 1)])
def test_the_route_matches_suspended_lines(d, k):
    F = suspension(line_product(d, seed=d), k)
    assert milnor_by_ideals(F, "z")[-1] == total_milnor_number(F, "z").total_milnor == math.comb(d, 2) * (d - 1) ** k


def det(rows):
    return sum(map(int.__mul__, rows[0], cross(rows[1], rows[2])))


def value(q, p):
    """q(p, p) for the symmetric matrix q."""
    return sum(q[i][j] * p[i] * p[j] for i in range(3) for j in range(3))


def conic(q):
    """The quadratic form of the symmetric integer matrix q, in x, y, z."""
    terms = {}
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        e = [0, 0, 0]
        e[i] += 1
        e[j] += 1
        terms[tuple(e)] = q[i][j] * (1 if i == j else 2)
    return Polynomial(("x", "y", "z"), terms)


def conic_and_line(seed):
    """A smooth conic times a line that crosses it at two points of the
    chart: two nodes.  The line (a, b, c) is not tangent when the
    adjugate of q does not vanish on it, and (b, -a, 0) is its one point
    on z = 0."""
    rng = random.Random(seed)
    while True:
        q00, q01, q02, q11, q12, q22 = (rng.randint(-5, 5) for _ in range(6))
        q = ((q00, q01, q02), (q01, q11, q12), (q02, q12, q22))
        a, b, c = line = tuple(rng.randint(-9, 9) for _ in range(3))
        adjugate = (cross(q[1], q[2]), cross(q[2], q[0]), cross(q[0], q[1]))
        if det(q) and value(adjugate, line) and value(q, (b, -a, 0)):
            return multiply([conic(q), Polynomial(("x", "y", "z"), {(1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c})])


def two_conics(seed):
    """Two smooth conics of the pencil through four points of the chart,
    no three on a line.  They meet at those four points only, so their
    product has four nodes.  The pencil is spanned by two line pairs
    through the points; l m^T + m l^T is twice the matrix of the pair l m."""
    rng = random.Random(seed)
    while True:
        p, q, r, s = points = [(rng.randint(-9, 9), rng.randint(-9, 9), 1) for _ in range(4)]
        pairs = [
            [[l[i] * m[j] + l[j] * m[i] for j in range(3)] for i in range(3)]
            for l, m in ((cross(p, q), cross(r, s)), (cross(p, r), cross(q, s)))
        ]
        members = [
            [[x + t * y for x, y in zip(u, v)] for u, v in zip(*pairs)] for t in (rng.randint(1, 9), -rng.randint(1, 9))
        ]
        if all(det(t) for t in itertools.combinations(points, 3)) and all(map(det, members)):
            return multiply([conic(m) for m in members])


@pytest.mark.parametrize(
    "F, nodes",
    [(line_product(2, seed=1), 1), (conic_and_line(seed=2), 2), (line_product(3, seed=3), 3), (two_conics(seed=4), 4)],
    ids=["two-lines", "conic-and-line", "three-lines", "two-conics"],
)
def test_the_route_counts_the_nodes_of_plane_curves(F, nodes):
    # At a node f lies in its Jacobian ideal, so the values stop at k = 2.
    assert milnor_by_ideals(F, "z") == [nodes, nodes]
    assert total_milnor_number(F, "z").total_milnor == nodes
