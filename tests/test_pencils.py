"""Generic pencils: their singular members, counted by one Groebner basis,
against the Euler number of the pencil's total space from the Chow ring.

For general forms F, G of degree d in x_0..x_n, the pencil s F + t G has
(n + 1)(d - 1)^n singular members, the degree of the discriminant of
degree-d forms, each with one node.  In the chart t = 1, x_0 = 1 they are
the solutions of the n + 1 partials of H = s F + G in x_0..x_n, in the
unknowns x_1..x_n and s: by Euler's identity H vanishes there too.

The total space X = V(s F + t G) in P^n x P^1 is smooth, and it fibres
over P^1 with general fibre Y, a smooth degree-d hypersurface in P^n.  A
node in n variables has a Milnor fibre of Euler number 1 + (-1)^(n - 1),
so each singular fibre has Euler number chi(Y) + (-1)^n, and
chi(X) = 2 chi(Y) + (-1)^n (n + 1)(d - 1)^n.
"""

import itertools
import json
import random

import pytest

from milnorcalc.cli import main
from milnorcalc.groebner import groebner, quotient_dim
from milnorcalc.polynomials import PolyIdeal, Polynomial
from test_milnor_ideal import chart_equation


def critical_members(n, d, seed):
    """The number of singular members of s F + G, for F, G with seeded
    coefficients in [-9, 9], counted as dim Q[x_1..x_n, s]/(dH/dx_i)."""
    rng = random.Random(seed)
    monomials = [e for e in itertools.product(range(d + 1), repeat=n + 1) if sum(e) == d]
    terms = {e + (1,): rng.randint(-9, 9) for e in monomials}
    terms.update({e + (0,): rng.randint(-9, 9) for e in monomials})
    H = Polynomial([f"x{i}" for i in range(n + 1)] + ["s"], terms)
    partials = [chart_equation(H.derivative(i), "x0") for i in range(n + 1)]
    return quotient_dim(groebner(PolyIdeal(partials)))


@pytest.mark.parametrize("n, d", [(1, 3), (2, 2), (3, 2), (2, 3), (3, 3)])
def test_singular_members_match_the_euler_number_of_the_total_space(n, d, tmp_path, capsys):
    count = critical_members(n, d, seed=100 * n + d)
    assert count == (n + 1) * (d - 1) ** n
    path = tmp_path / "pencil.json"
    path.write_text(json.dumps({"ambient": [n, 1], "degrees": [[d, 1]], "smooth": True}), encoding="utf-8")
    assert main(["--json", "report", str(path)]) == 0
    fibre = ((1 - d) ** (n + 1) - 1) // d + n + 1
    assert json.loads(capsys.readouterr().out)["euler"] == 2 * fibre + (-1) ** n * count
