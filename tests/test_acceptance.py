"""Acceptance gate: every shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  All values are exact integers or exact Chow classes; there are
no tolerances anywhere.
"""

import random
from fractions import Fraction

from milnorcalc.charclasses import (
    build_report,
    fulton_johnson,
    localization,
    milnor_class,
    proper_pushdown_check,
    verdier_smooth_check,
)
from milnorcalc.chow import (
    AmbientSpace,
    ChowClass,
    divisor_class,
    pull_back,
    push_forward,
    unit_inverse,
)
from milnorcalc.groebner import (
    GREVLEX,
    dehomogenize,
    divide,
    groebner,
    quotient_dim,
    total_milnor_number,
)
from milnorcalc.polynomials import PolyIdeal, Polynomial, jacobian_ideal, parse_polynomial
from milnorcalc.scenes import (
    ConstructibleFunction,
    StrataScene,
    Stratum,
    unit_function,
)
from test_groebner import s_polynomial

P2 = AmbientSpace((2,))
P3 = AmbientSpace((3,))


def verdict(number, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"acceptance {number} ({label}): {status}")
    assert not failures, f"acceptance {number} ({label}): " + "; ".join(failures)


class Collector:
    def __init__(self):
        self.failures = []

    def expect(self, condition, message):
        if not condition:
            self.failures.append(message)


def test_acceptance_1_gauss_bonnet_table():
    expected = {
        (2, 1): 2, (2, 2): 2, (2, 3): 0, (2, 4): -4,
        (3, 3): 9, (3, 4): 24, (4, 3): -6,
    }
    c = Collector()
    for (n, d), chi in expected.items():
        got = fulton_johnson(AmbientSpace((n,)), [(d,)]).degree()
        c.expect(got == chi, f"chi(n={n}, d={d}) = {got}, expected {chi}")
    verdict(1, "gauss-bonnet table", c.failures)


def test_acceptance_2_milnor_numbers():
    # sympy's values, computed with nothing from milnorcalc; imported here so
    # that the other suites run where sympy is missing.
    import reference

    c = Collector()
    # A1, A2, A3 and E8 normal forms; mu is the Jacobian quotient dim.
    local_forms = {"x^2 + y^2": 1, "x^2 + y^3": 2, "x^2 + y^4": 3, "x^3 + y^5": 8}
    for text, mu in local_forms.items():
        f = parse_polynomial(text, ("x", "y"))
        got = quotient_dim(groebner(jacobian_ideal(f)))
        c.expect(got == mu, f"mu({text}) = {got}, expected {mu}")
    # Nodal cubic against sympy's values in tests/reference.py: the affine
    # chart has one off-curve critical point next to the node.
    text = "y^2*z - x^3 - x^2*z"
    F = parse_polynomial(text, ("x", "y", "z"))
    full = quotient_dim(groebner(jacobian_ideal(dehomogenize(F, "z"))))
    total, off = reference.total_milnor(text, F.variables, "z"), reference.off_curve_dim(text, F.variables, "z")
    c.expect(full == 2, f"nodal cubic Jacobian quotient dim = {full}, expected 2")
    c.expect(off == 1, f"nodal cubic off-curve dim from sympy = {off}, expected 1")
    result = total_milnor_number(F, "z")
    c.expect(result.total_milnor == 1, f"nodal cubic total mu = {result.total_milnor}")
    c.expect((result.total_milnor, result.off_curve_dim) == (total, off), "mismatch with sympy's total and off-curve dim")
    c.expect(result.total_milnor == full - off, "Jacobian quotient dim minus the off-curve dim mismatch")
    verdict(2, "milnor numbers via groebner", c.failures)


def test_acceptance_3_singular_plane_cubics(corpus_reports):
    c = Collector()
    nodal = corpus_reports["nodal-cubic"]
    c.expect(nodal.milnor_class == ChowClass(P2, {(2,): -1}), "nodal Milnor class")
    c.expect(nodal.csm == ChowClass(P2, {(1,): 3, (2,): 1}), "nodal csm class")
    c.expect(nodal.euler == 1, f"nodal euler = {nodal.euler}")
    cusp = corpus_reports["cuspidal-cubic"]
    c.expect(cusp.milnor_class == ChowClass(P2, {(2,): -2}), "cuspidal Milnor class")
    c.expect(cusp.csm == ChowClass(P2, {(1,): 3, (2,): 2}), "cuspidal csm class")
    c.expect(cusp.euler == 2, f"cuspidal euler = {cusp.euler}")
    # Independent confirmation from normalization-gluing strata: the
    # nodal curve is P^1 with two points glued (smooth part chi 0),
    # the cuspidal curve is P^1 with one point crimped (chi 1).
    nodal_scene = nodal.scene
    c.expect(nodal_scene.index["smooth_part"].chi_c == 0, "nodal smooth part chi")
    c.expect(nodal_scene.index["node"].chi_c == 1, "node chi")
    c.expect(unit_function(nodal_scene).euler() == 1, "nodal strata euler")
    c.expect(unit_function(cusp.scene).euler() == 2, "cuspidal strata euler")
    verdict(3, "singular plane cubics", c.failures)


def test_acceptance_4_four_nodal_quartic(corpus_reports):
    c = Collector()
    report = corpus_reports["four-nodal-quartic"]
    total = report.milnor_data.total_milnor
    c.expect(total == 4, f"engine total mu = {total}, expected 4")
    c.expect(report.euler == 0, f"euler = {report.euler}, expected -4 + 4 = 0")
    c.expect(unit_function(report.scene).euler() == 0, "strata euler for two glued conics")
    verdict(4, "four-nodal quartic", c.failures)


def test_acceptance_5_one_nodal_quartic_surface(corpus_reports):
    c = Collector()
    report = corpus_reports["one-nodal-quartic-surface"]
    total = report.milnor_data.total_milnor
    c.expect(total == 1, f"engine total mu = {total}, expected 1")
    c.expect(report.milnor_class == ChowClass(P3, {(3,): 1}), "Milnor class is +H^3")
    c.expect(report.euler == 23, f"euler = {report.euler}, expected 23")
    verdict(5, "one-nodal quartic surface", c.failures)


def test_acceptance_6_product_milnor_class(corpus_reports):
    c = Collector()
    report = corpus_reports["nodal-cubic"]
    product = AmbientSpace((2, 1))
    pm = pull_back(report.milnor_class, 1)
    c.expect(
        pm == ChowClass(product, {(2, 0): -1, (2, 1): -2}),
        f"pullback Milnor class = {pm}, expected -H^2 - 2H^2K",
    )
    product_fj = fulton_johnson(product, [(3, 0)])
    check = verdier_smooth_check(1, product_fj, pm, report.csm)
    c.expect(check.passed, f"verdier residual {check.residual}")
    product_csm = product_fj - pm
    c.expect(product_csm.degree() == 2, f"product csm degree = {product_csm.degree()}")
    verdict(6, "product milnor class", c.failures)


def test_acceptance_7_pushforward_factor(corpus_reports):
    c = Collector()
    for name in ("nodal-cubic", "cuspidal-cubic"):
        report = corpus_reports[name]
        base = report.milnor_class
        for m, factor in ((1, 2), (2, 3)):
            product_milnor = pull_back(base, m)
            pushed = push_forward(product_milnor)
            c.expect(
                pushed == factor * base,
                f"{name}, m={m}: pushforward is not {factor} times the base class",
            )
            check = proper_pushdown_check(m, product_milnor, base)
            c.expect(check.passed, f"{name}, m={m}: pushdown residual {check.residual}")
    verdict(7, "pushforward factor", c.failures)


def test_acceptance_8_defect_checks_on_corpus(corpus_reports):
    required = (
        "smooth-conic",
        "smooth-cubic-curve",
        "smooth-quartic-curve",
        "fermat-quartic-surface",
        "nodal-cubic",
        "cuspidal-cubic",
        "four-nodal-quartic",
        "one-nodal-quartic-surface",
    )
    c = Collector()
    for name in required:
        c.expect(name in corpus_reports, f"missing corpus scene {name}")
    for name, report in corpus_reports.items():
        for key in ("defect_codim1", "lci_m1", "lci_m2"):
            check = report.checks[key]
            c.expect(
                check.passed and check.residual.is_zero(),
                f"{name}: {key} residual {check.residual}",
            )
        for key, check in report.checks.items():
            c.expect(check.passed, f"{name}: {key} failed")
    verdict(8, "defect and lci checks on corpus", c.failures)


# Acceptance 9: six randomized property suites, at least 500 cases each.


def random_chow(rng, ambient, bound=9):
    coefficients = {}
    for exp in ambient.box():
        if rng.random() < 0.7:
            coefficients[exp] = rng.randint(-bound, bound)
    return ChowClass(ambient, coefficients)


def random_unit(rng, ambient):
    r = random_chow(rng, ambient)
    positive_part = {e: v for e, v in r.coefficients.items() if any(e)}
    return ChowClass.unit(ambient) + ChowClass(ambient, positive_part)


def suite_ring_axioms(c, cases):
    rng = random.Random(101)
    ambient = AmbientSpace((2, 1))
    one = ChowClass.unit(ambient)
    for i in range(cases):
        a, b, x = (random_chow(rng, ambient) for _ in range(3))
        c.expect((a + b) * x == a * x + b * x, f"ring case {i}: distributivity")
        c.expect(a * b == b * a, f"ring case {i}: commutativity")
        c.expect((a * b) * x == a * (b * x), f"ring case {i}: associativity")
        u = random_unit(rng, ambient)
        v = unit_inverse(u)
        c.expect(u * v == one, f"ring case {i}: unit inverse")
        c.expect(unit_inverse(v) == u, f"ring case {i}: inverse round-trip")
        c.expect(x / u == x * v, f"ring case {i}: division")


def suite_projection_formula(c, cases):
    rng = random.Random(202)
    base = AmbientSpace((2,))
    product = AmbientSpace((2, 1))
    for i in range(cases):
        x = random_chow(rng, base)
        y = random_chow(rng, product)
        # x lifted to the product: the same coefficients, with no power of the new factor.
        lifted = ChowClass(product, {e + (0,): v for e, v in x.coefficients.items()})
        lhs = push_forward(lifted * y)
        rhs = x * push_forward(y)
        c.expect(lhs == rhs, f"projection case {i}")


def random_affine_poly(rng, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = (rng.randint(0, 2), rng.randint(0, 2))
        coeff = rng.choice([-3, -2, -1, 1, 2, 3])
        terms[exp] = terms.get(exp, 0) + coeff
    cleaned = {e: Fraction(v) for e, v in terms.items() if v}
    return Polynomial(("x", "y"), cleaned)


def suite_groebner(c, cases):
    rng = random.Random(303)
    done = 0
    while done < cases:
        gens = [random_affine_poly(rng) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = groebner(PolyIdeal(tuple(gens)))
        for i in range(len(gb.basis)):
            for j in range(i + 1, len(gb.basis)):
                sp = s_polynomial(gb.basis[i], gb.basis[j], GREVLEX)
                if not divide(sp, gb.basis)[1].is_zero():
                    c.expect(False, f"groebner case {done}: S-polynomial survives")
        for g in gens:
            reduced = divide(g, gb.basis)[1]
            c.expect(reduced.is_zero(), f"groebner case {done}: a generator does not reduce to zero")
        done += 1


def random_poset_scene(rng):
    count = rng.randint(1, 6)
    strata = []
    for i in range(count):
        parents = tuple(s.id for s in strata if rng.random() < 0.4)
        # Each parent comes earlier, so it has the larger dim.
        strata.append(Stratum(id=f"s{i}", dim=5 - i, parents=parents))
    return StrataScene(ambient=AmbientSpace((6,)), multidegrees=((2,),), strata=tuple(strata))


def random_values(rng, scene):
    return {s.id: rng.randint(-5, 5) for s in scene.strata if rng.random() < 0.8}


def suite_poset_round_trip(c, cases):
    rng = random.Random(404)
    for i in range(cases):
        scene = random_poset_scene(rng)
        values = random_values(rng, scene)
        ups = scene.upsets

        def summed_over_upsets(coefficients):
            return {s: sum(coefficients.get(t, 0) for t in ups[s]) for s in scene.index}

        # Stratumwise -> indicator -> stratumwise.
        f = ConstructibleFunction(scene, values)
        trip = ConstructibleFunction(scene, summed_over_upsets(f.indicator_coefficients()))
        c.expect(trip == f, f"poset case {i}: stratumwise trip")
        # Indicator -> stratumwise -> indicator.
        g = ConstructibleFunction(scene, summed_over_upsets(values))
        nonzero = {k: v for k, v in values.items() if v}
        c.expect(g.indicator_coefficients() == nonzero, f"poset case {i}: indicator trip")


def linearity_scene():
    strata = (
        Stratum(id="surface", dim=2, chi_c=-3, csm_class=fulton_johnson(P3, [(2,)])),
        # A line in P^3: [line] c(TP^1) = H^2 + 2H^3.
        Stratum(id="line", dim=1, chi_c=2, csm_class=ChowClass(P3, {(2,): 1, (3,): 2}), parents=("surface",)),
        Stratum(id="pt", dim=0, chi_c=1, parents=("line",)),
    )
    return StrataScene(ambient=P3, multidegrees=((2,),), strata=strata)


def suite_linearity(c, cases):
    rng = random.Random(505)
    scene = linearity_scene()
    normal = ChowClass.unit(P3) + divisor_class(P3, (2,))
    for i in range(cases):
        a = ConstructibleFunction(scene, random_values(rng, scene))
        b = ConstructibleFunction(scene, random_values(rng, scene))
        k = rng.randint(-4, 4)
        combo = ConstructibleFunction(
            scene, {s: k * a.values.get(s, 0) + b.values.get(s, 0) for s in scene.index}
        )
        c.expect(
            combo.euler() == k * a.euler() + b.euler(),
            f"linearity case {i}: euler",
        )
        combo_c, a_c, b_c = (f.indicator_coefficients() for f in (combo, a, b))
        lhs = milnor_class(scene, combo_c, normal)
        rhs = k * milnor_class(scene, a_c, normal) + milnor_class(scene, b_c, normal)
        c.expect(lhs == rhs, f"linearity case {i}: milnor class")
        combined = dict(localization(scene, combo_c, normal))
        split_a = dict(localization(scene, a_c, normal))
        split_b = dict(localization(scene, b_c, normal))
        zero = ChowClass.zero(P3)
        for sid in scene.index:
            want = k * split_a.get(sid, zero) + split_b.get(sid, zero)
            c.expect(
                combined.get(sid, zero) == want,
                f"linearity case {i}: localization at {sid}",
            )


def test_acceptance_9_property_suites():
    suites = [
        ("ring axioms and unit inverse", suite_ring_axioms),
        ("projection formula", suite_projection_formula),
        ("groebner reductions", suite_groebner),
        ("poset round-trip", suite_poset_round_trip),
        ("euler and localization linearity", suite_linearity),
    ]
    c = Collector()
    for label, suite in suites:
        before = len(c.failures)
        suite(c, 500)
        if len(c.failures) > before:
            c.failures = c.failures[:before] + [f"{label}: {len(c.failures) - before} failures"]
    verdict(9, "property suites (5 x 500 cases)", c.failures)
