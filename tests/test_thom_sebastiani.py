"""Thom-Sebastiani suspensions as an oracle for the total Milnor number.

Let F(x_0..x_a) be homogeneous of degree d with isolated singular points,
all in the chart, and G = y_1^d + ... + y_k^d.  The singular points of
V(F + G) are the points (p : 0) for p singular on V(F): dG = 0 forces
y = 0, and Euler's identity then gives F(p) = 0.  Each has Milnor number
(d - 1)^k mu_p(F) (Sebastiani-Thom, Invent. Math. 13, 1971), so the total
is (d - 1)^k mu(F).  A non-isolated or outside-the-chart F stays so after
the suspension.  For F a product of d general lines in the plane, mu(F)
is the C(d, 2) nodes, and dim A = (d - 1)^(2 + k) for the suspension.
"""

import functools
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from milnorcalc.groebner import NonIsolatedSingularitiesError, SingularitiesOutsideChartError, total_milnor_number
from milnorcalc.polynomials import Polynomial, parse_polynomial

SCENES = Path(__file__).resolve().parent.parent / "scenes"


def cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def line_product(d, seed):
    """The product of d lines a x + b y + c z with a, b, c in [-9, 9], drawn
    again until no node lies on z = 0 (so no two lines are proportional)
    and no three lines meet."""
    rng = random.Random(seed)
    while True:
        lines = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(d)]
        in_chart = all(cross(p, q)[2] for p, q in itertools.combinations(lines, 2))
        apart = all(
            sum(map(int.__mul__, cross(p, q), r)) for p, q, r in itertools.combinations(lines, 3)
        )
        if in_chart and apart:
            break
    terms = {(0, 0, 0): 1}
    for line in lines:
        product = {}
        for e, c in terms.items():
            for i, a in enumerate(line):
                raised = e[:i] + (e[i] + 1,) + e[i + 1 :]
                product[raised] = product.get(raised, 0) + a * c
        terms = product
    return Polynomial(("x", "y", "z"), terms)


def suspension(F, k):
    """F + y1^d + ... + yk^d, with d the degree of F."""
    d, width = F.total_degree(), len(F.variables)
    terms = {e + (0,) * k: c for e, c in F.terms.items()}
    for i in range(k):
        terms[(0,) * (width + i) + (d,) + (0,) * (k - 1 - i)] = 1
    return Polynomial(F.variables + tuple(f"y{i}" for i in range(1, k + 1)), terms)


@pytest.mark.parametrize("d, k", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (5, 3)])
def test_suspended_lines_have_the_closed_form_total(d, k):
    result = total_milnor_number(suspension(line_product(d, seed=d), k), "z")
    assert result.total_milnor == math.comb(d, 2) * (d - 1) ** k
    assert result.total_milnor + result.off_curve_dim == (d - 1) ** (2 + k)


def corpus_polynomials():
    """Each scene in ``scenes/`` that has a polynomial, by name, as (F, chart)."""
    out = {}
    for path in sorted(SCENES.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "polynomial" in data:
            variables = ("x", "y", "z", "w")[: data["ambient"][0] + 1]
            out[path.stem] = (parse_polynomial(data["polynomial"], variables), data["chart"])
    return out


CORPUS = corpus_polynomials()


@st.composite
def nodal_cubics(draw):
    """z q(x, y) + c(x, y) with q nondegenerate: a node at (0 : 0 : 1), and
    whatever other singular points the draw gives."""
    coefficient = st.integers(-5, 5)
    q = draw(st.tuples(coefficient, coefficient, coefficient).filter(lambda q: q[1] ** 2 != 4 * q[0] * q[2]))
    c = draw(st.tuples(coefficient, coefficient, coefficient, coefficient).filter(any))
    terms = {(2 - i, i, 1): a for i, a in enumerate(q)}
    terms.update({(3 - i, i, 0): a for i, a in enumerate(c)})
    return Polynomial(("x", "y", "z"), terms), "z"


@functools.cache
def reference_total(F, chart):
    import reference

    return reference.total_milnor(str(F), F.variables, chart)


# Few seeds for the lines, so that their sympy totals (0.25 s for five lines) repeat.
small_forms = st.one_of(
    st.builds(lambda d, seed: (line_product(d, seed), "z"), st.integers(2, 5), st.integers(0, 3)),
    st.sampled_from(list(CORPUS.values())),
    nodal_cubics(),
)


@settings(max_examples=8, deadline=None)
@given(small_forms, st.sampled_from([1, 2]))
# A suspension whose dim A, 243, is over 100 in every run.
@example(CORPUS["one-nodal-quartic-surface"], 2)
def test_a_suspension_multiplies_the_total_by_d_minus_1_to_the_k(form, k):
    F, chart = form
    d, suspended = F.total_degree(), suspension(F, k)
    try:
        base = total_milnor_number(F, chart)
    except (NonIsolatedSingularitiesError, SingularitiesOutsideChartError) as exc:
        with pytest.raises(type(exc)):
            total_milnor_number(suspended, chart)
        return
    assert total_milnor_number(suspended, chart).total_milnor == (d - 1) ** k * base.total_milnor
    if base.total_milnor + base.off_curve_dim <= 30:
        pytest.importorskip("sympy")
        assert base.total_milnor == reference_total(F, chart)
