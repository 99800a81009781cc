"""Fulton-Johnson, Milnor and CSM classes, and the identity checks."""

from fractions import Fraction

import pytest

from milnorcalc import charclasses, chow
from milnorcalc.charclasses import (
    MissingCsmClassError,
    build_report,
    defect_codim1_check,
    csm_of_function,
    fulton_johnson,
    lci_defect_check,
    localization,
    milnor_class,
    proper_pushdown_check,
    resolve_mu,
    verdier_smooth_check,
)
from milnorcalc.chow import AmbientSpace, ChowClass, divisor_class, pull_back, push_forward
from milnorcalc.polynomials import parse_polynomial
from milnorcalc.scenes import (
    SINGULAR_STRATUM,
    ConstructibleFunction,
    SceneValidationError,
    StrataScene,
    Stratum,
)
from test_chow import power, series_inverse

P2 = AmbientSpace((2,))
P3 = AmbientSpace((3,))


def series_fulton_johnson(n, d):
    """Independent oracle: (1+H)^(n+1) (1+dH)^(-1) dH as a coefficient
    list modulo H^(n+1), computed with plain Fraction lists."""

    def mul(a, b):
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x and y and i + j <= n:
                    out[i + j] += x * y
        return out

    one = [Fraction(1)] + [Fraction(0)] * n
    linear = [Fraction(1), Fraction(1)] + [Fraction(0)] * (n - 1)
    tangent = one
    for _ in range(n + 1):
        tangent = mul(tangent, linear)
    step = [Fraction(0), Fraction(-d)] + [Fraction(0)] * (n - 1)
    inverse, term = list(one), list(one)
    for _ in range(n):
        term = mul(term, step)
        inverse = [a + b for a, b in zip(inverse, term)]
    divisor = [Fraction(0), Fraction(d)] + [Fraction(0)] * (n - 1)
    return mul(mul(tangent, inverse), divisor)


class TestFultonJohnson:
    def test_against_series_oracle(self):
        for n in (1, 2, 3, 4):
            for d in (1, 2, 3, 4, 5):
                got = fulton_johnson(AmbientSpace((n,)), [(d,)])
                expected = series_fulton_johnson(n, d)
                for i, c in enumerate(expected):
                    assert c.denominator == 1
                    assert got.coefficients.get((i,), 0) == int(c)

    def test_plane_cubic(self):
        assert fulton_johnson(P2, [(3,)]) == ChowClass(P2, {(1,): 3})

    def test_quartic_surface(self):
        assert fulton_johnson(P3, [(4,)]) == ChowClass(P3, {(1,): 4, (3,): 24})

    def test_complete_intersection_elliptic_curve(self):
        fj = fulton_johnson(P3, [(2,), (2,)])
        assert fj.degree() == 0
        assert fj.graded_piece(2) == ChowClass(P3, {(2,): 4})

    def test_gauss_bonnet_values(self):
        table = {(2, 1): 2, (2, 2): 2, (2, 3): 0, (2, 4): -4, (3, 3): 9, (3, 4): 24, (4, 3): -6}
        for (n, d), chi in table.items():
            assert fulton_johnson(AmbientSpace((n,)), [(d,)]).degree() == chi

    def test_zero_multidegree_rejected(self):
        with pytest.raises(ValueError, match="zero multidegree"):
            fulton_johnson(P2, [(0,)])
        # A library caller gets the same refusal for a degree on P^0 alone,
        # which a scene refuses in its own words.
        with pytest.raises(ValueError, match="zero multidegree"):
            fulton_johnson(AmbientSpace((2, 0)), [(0, 3)])
        with pytest.raises(ValueError):
            fulton_johnson(P2, [])

    def test_forms_no_class_product(self, monkeypatch):
        # x dH / (1+dH) is formed as x - x / (1+dH), since 1+dH is a unit.
        ambient = AmbientSpace((3, 2))
        degrees = [(1, 2), (2, 1)]
        expected = chow.tangent_class(ambient)
        for d in degrees:
            divisor = divisor_class(ambient, d)
            expected = expected * divisor / (ChowClass.unit(ambient) + divisor)
        products = []
        original = ChowClass.__mul__

        def counted(a, b):
            if isinstance(b, ChowClass):
                products.append((a, b))
            return original(a, b)

        monkeypatch.setattr(ChowClass, "__mul__", counted)
        assert fulton_johnson(ambient, degrees) == expected
        assert products == []


def csm_library(shape, ambient):
    """CSM classes of a few standard closed subvarieties.

    Shapes: ``("point",)``, ``("linear", k)`` for a linear P^k,
    ``("smooth_ci", multidegrees)``, and ``("product", s1, s2)`` where
    the first factor shape lives in the first ambient factor and the
    second in the rest.
    """
    kind = shape[0]
    if kind == "point":
        return ChowClass.point(ambient)
    if kind == "linear":
        k = int(shape[1])
        if len(ambient.factors) != 1:
            raise ValueError("linear shapes live in a single projective space")
        n = ambient.factors[0]
        if not 0 <= k <= n:
            raise ValueError(f"no linear P^{k} inside P^{n}")
        h = ChowClass(ambient, {(1,): 1})
        return power(ChowClass.unit(ambient) + h, k + 1) * power(h, n - k)
    if kind == "smooth_ci":
        return fulton_johnson(ambient, shape[1])
    if kind == "product":
        if len(ambient.factors) < 2:
            raise ValueError("product shapes need at least two ambient factors")
        left = csm_library(shape[1], AmbientSpace(ambient.factors[:1]))
        right = csm_library(shape[2], AmbientSpace(ambient.factors[1:]))
        # The exterior product: the exponents of a term of each side, side by side.
        pairs = [(a + b, c * d) for a, c in left.coefficients.items() for b, d in right.coefficients.items()]
        return ChowClass(ambient, dict(pairs))
    raise ValueError(f"unknown shape {shape!r}")


class TestCsmLibrary:
    def test_point(self):
        assert csm_library(("point",), P3) == ChowClass(P3, {(3,): 1})

    def test_linear_line_in_p3(self):
        cls = csm_library(("linear", 1), P3)
        assert cls == ChowClass(P3, {(2,): 1, (3,): 2})
        assert cls.degree() == 2

    def test_linear_full_space(self):
        # P^2 inside P^2 is the smooth ambient itself.
        assert csm_library(("linear", 2), P2) == ChowClass(P2, {(0,): 1, (1,): 3, (2,): 3})

    def test_smooth_ci(self):
        assert csm_library(("smooth_ci", [(3,)]), P2) == fulton_johnson(P2, [(3,)])

    def test_product_point_times_line(self):
        ambient = AmbientSpace((2, 1))
        cls = csm_library(("product", ("point",), ("linear", 1)), ambient)
        assert cls == ChowClass(ambient, {(2, 0): 1, (2, 1): 2})

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            csm_library(("linear", 5), P2)
        with pytest.raises(ValueError):
            csm_library(("blob",), P2)
        with pytest.raises(ValueError):
            csm_library(("product", ("point",), ("point",)), P2)


def normal(scene):
    return ChowClass.unit(scene.ambient) + divisor_class(scene.ambient, scene.multidegrees[0])


def point_mu_scene(ambient, degree, value):
    scene = StrataScene(
        ambient=ambient,
        multidegrees=((degree,),),
        strata=(Stratum(id="sing", dim=0),),
    )
    return scene, ConstructibleFunction(scene, {"sing": value})


class TestMilnorClass:
    def test_isolated_point_value(self):
        scene, mu = point_mu_scene(P2, 3, -1)
        got = milnor_class(scene, mu.indicator_coefficients(), normal(scene))
        assert got == ChowClass(P2, {(2,): -1})

    def test_zero_for_zero_mu(self):
        scene, mu = point_mu_scene(P2, 3, 0)
        assert milnor_class(scene, mu.indicator_coefficients(), normal(scene)).is_zero()

    def test_positive_dimensional_locus(self):
        # mu = m on a linear P^1 inside P^3 for a degree-2 hypersurface.
        scene = StrataScene(
            ambient=P3,
            multidegrees=((2,),),
            strata=(
                Stratum(id="line", dim=1, csm_class=csm_library(("linear", 1), P3)),
            ),
        )
        mu = ConstructibleFunction(scene, {"line": -1})
        got = milnor_class(scene, mu.indicator_coefficients(), normal(scene))
        expected = series_inverse(normal(scene)) * (-1 * csm_library(("linear", 1), P3))
        assert got == expected == ChowClass(P3, {(2,): -1})

    def test_missing_csm_class(self):
        scene = StrataScene(
            ambient=P3,
            multidegrees=((2,),),
            strata=(Stratum(id="line", dim=1),),
        )
        mu = ConstructibleFunction(scene, {"line": 1})
        with pytest.raises(MissingCsmClassError):
            milnor_class(scene, mu.indicator_coefficients(), normal(scene))

    def test_needs_single_degree(self):
        scene = StrataScene(
            ambient=P3,
            multidegrees=((2,), (2,)),
            strata=(Stratum(id="sing", dim=0),),
        )
        mu = ConstructibleFunction(scene, {"sing": 1})
        with pytest.raises(ValueError, match="codimension-one"):
            build_report(scene, mu)


class TestCsmOfFunction:
    def test_uses_indicator_coefficients(self):
        # 1 on the closure of the open stratum is one indicator term,
        # even though it is nonzero on both strata pointwise.
        scene = StrataScene(
            ambient=P2,
            multidegrees=((3,),),
            strata=(
                Stratum(id="open_part", dim=1, csm_class=ChowClass(P2, {(1,): 3, (2,): 1})),
                Stratum(id="pt", dim=0, parents=("open_part",)),
            ),
        )
        alpha = ConstructibleFunction(scene, {"open_part": 1, "pt": 1})
        got = csm_of_function(scene, alpha.indicator_coefficients())
        assert got == ChowClass(P2, {(1,): 3, (2,): 1})
        beta = ConstructibleFunction(scene, {"pt": 1})
        assert csm_of_function(scene, beta.indicator_coefficients()) == ChowClass.point(P2)


class TestCorpusClasses:
    def test_nodal_cubic_classes(self, nodal_report):
        assert nodal_report.fulton_johnson == ChowClass(P2, {(1,): 3})
        assert nodal_report.milnor_class == ChowClass(P2, {(2,): -1})
        assert nodal_report.csm == ChowClass(P2, {(1,): 3, (2,): 1})
        assert nodal_report.euler == 1

    def test_cuspidal_cubic_classes(self, cuspidal_report):
        assert cuspidal_report.milnor_class == ChowClass(P2, {(2,): -2})
        assert cuspidal_report.csm == ChowClass(P2, {(1,): 3, (2,): 2})
        assert cuspidal_report.euler == 2

    def test_four_nodal_quartic(self, corpus_reports):
        report = corpus_reports["four-nodal-quartic"]
        assert report.milnor_data.total_milnor == 4
        assert report.milnor_class == ChowClass(P2, {(2,): -4})
        assert report.euler == 0

    def test_quartic_surface(self, corpus_reports):
        report = corpus_reports["one-nodal-quartic-surface"]
        assert report.milnor_data.total_milnor == 1
        assert report.milnor_class == ChowClass(P3, {(3,): 1})
        assert report.euler == 23

    def test_fermat_surface_smooth(self, corpus_reports):
        report = corpus_reports["fermat-quartic-surface"]
        assert report.milnor_class.is_zero()
        assert report.csm == report.fulton_johnson
        assert report.euler == 24

    def test_reducible_quadric_user_mu(self, corpus_reports):
        report = corpus_reports["reducible-quadric-surface"]
        assert report.milnor_class == ChowClass(P3, {(2,): -1})
        assert report.csm == ChowClass(P3, {(1,): 2, (2,): 5, (3,): 4})
        assert report.euler == 4

    def test_all_checks_pass_everywhere(self, corpus_reports):
        for name, report in corpus_reports.items():
            for key, check in report.checks.items():
                assert check.passed, f"{name}: {key} failed with residual {check.residual}"

    def test_reports_satisfy_defining_identities(self, corpus_reports):
        for report in corpus_reports.values():
            assert report.csm == report.fulton_johnson - report.milnor_class
            assert report.euler == report.csm.degree()

    def test_euler_agrees_with_strata_data(self, corpus_reports):
        from milnorcalc.scenes import unit_function

        for name, report in corpus_reports.items():
            strata_euler = unit_function(report.scene).euler()
            assert strata_euler == report.euler, name


def product_fulton_johnson(report, m):
    """The Fulton-Johnson class of X x P^m, as ``build_report`` forms it."""
    return fulton_johnson(report.scene.ambient.extended(m), [report.scene.multidegrees[0] + (0,)])


class TestProductChecks:
    def test_pullback_milnor_values(self, nodal_report):
        pm = pull_back(nodal_report.milnor_class, 1)
        assert pm == ChowClass(AmbientSpace((2, 1)), {(2, 0): -1, (2, 1): -2})

    def test_pullback_milnor_smooth_is_zero(self, corpus_reports):
        report = corpus_reports["smooth-conic"]
        assert pull_back(report.milnor_class, 2).is_zero()

    def test_pullback_milnor_surface(self, corpus_reports):
        report = corpus_reports["one-nodal-quartic-surface"]
        pm = pull_back(report.milnor_class, 1)
        assert pm == ChowClass(AmbientSpace((3, 1)), {(3, 0): 1, (3, 1): 2})

    def test_product_csm_degree_multiplies(self, nodal_report):
        product_fj = product_fulton_johnson(nodal_report, 1)
        assert product_fj == pull_back(fulton_johnson(P2, [(3,)]), 1)
        assert (product_fj - pull_back(nodal_report.milnor_class, 1)).degree() == 2

    def test_pushdown_factor(self, cuspidal_report):
        base = cuspidal_report.milnor_class
        for m in (1, 2, 3):
            assert push_forward(pull_back(base, m)) == (m + 1) * base

    def test_verdier_check_named_by_m(self, nodal_report):
        product_milnor = pull_back(nodal_report.milnor_class, 2)
        check = verdier_smooth_check(2, product_fulton_johnson(nodal_report, 2), product_milnor, nodal_report.csm)
        assert check.name == "verdier_m2"
        assert check.passed and check.residual.is_zero()

    def test_product_dimension_must_be_positive(self, corpus_scenes):
        scene, mu = corpus_scenes["nodal-cubic"]
        with pytest.raises(ValueError):
            build_report(scene, mu, m_values=(0,))

    def test_defect_check_sides(self, nodal_report):
        # Both sides of the divisor defect identity equal the Milnor
        # class itself; spot-check the left side explicitly.
        from milnorcalc.chow import tangent_class

        divisor = divisor_class(P2, (3,))
        csm, milnor = nodal_report.csm, nodal_report.milnor_class
        lhs = series_inverse(ChowClass.unit(P2) + divisor) * (divisor * tangent_class(P2)) - csm
        assert lhs == milnor == ChowClass(P2, {(2,): -1})
        check = defect_codim1_check(tangent_class(P2), divisor, normal(nodal_report.scene), csm, milnor)
        assert check.passed

    def test_lci_and_pushdown_checks_standalone(self, corpus_reports):
        from milnorcalc.chow import tangent_class

        report = corpus_reports["four-nodal-quartic"]
        product_fj, product_milnor = product_fulton_johnson(report, 1), pull_back(report.milnor_class, 1)
        coefficients = report.mu.indicator_coefficients()
        assert lci_defect_check(report.scene, coefficients, tangent_class(P2), 1, product_fj, product_milnor).passed
        assert proper_pushdown_check(2, pull_back(report.milnor_class, 2), report.milnor_class).passed


class TestLocalization:
    def test_single_isolated_term(self, corpus_reports):
        report = corpus_reports["nodal-cubic"]
        assert report.localization == [("node", ChowClass(P2, {(2,): -1}))]

    def test_terms_sum_to_milnor_class(self, corpus_reports):
        for report in corpus_reports.values():
            total = ChowClass.zero(report.scene.ambient)
            for _, term in report.localization:
                total = total + term
            assert total == report.milnor_class

    def test_empty_for_smooth(self, corpus_reports):
        assert corpus_reports["smooth-conic"].localization == []

    def test_two_components_add(self):
        scene = StrataScene(
            ambient=P2,
            multidegrees=((4,),),
            strata=(
                Stratum(id="p", dim=0),
                Stratum(id="q", dim=0),
            ),
        )
        mu = ConstructibleFunction(scene, {"p": -1, "q": -3})
        coefficients = mu.indicator_coefficients()
        terms = dict(localization(scene, coefficients, normal(scene)))
        assert terms["p"] == ChowClass(P2, {(2,): -1})
        assert terms["q"] == ChowClass(P2, {(2,): -3})
        assert milnor_class(scene, coefficients, normal(scene)) == ChowClass(P2, {(2,): -4})


class TestResolveMu:
    def test_user_mu_wins(self):
        scene, mu = point_mu_scene(P2, 3, -9)
        got_scene, got_mu, data = resolve_mu(scene, mu)
        assert got_scene is scene and got_mu is mu and data is None

    def test_mu_scene_must_match(self):
        scene, _ = point_mu_scene(P2, 3, 1)
        other, mu = point_mu_scene(P2, 4, 1)
        with pytest.raises(ValueError, match="different scene"):
            resolve_mu(scene, mu)

    def test_polynomial_without_strata_builds_scene(self):
        F = parse_polynomial("y^2*z - x^3", ("x", "y", "z"))
        scene = StrataScene(ambient=P2, multidegrees=((3,),), defining_polynomial=F, chart="z")
        got_scene, got_mu, data = resolve_mu(scene)
        assert data.total_milnor == 2
        assert got_mu.values == {SINGULAR_STRATUM: -2}
        assert got_scene.index[SINGULAR_STRATUM].csm_class == ChowClass.point(P2)

    def test_default_strata_of_points_keep_the_dim_rules(self):
        # On P^1 the smooth locus is points too, so the singular point is
        # not in its closure.  A double root and a simple one: mu 1, chi 2.
        P1 = AmbientSpace((1,))
        F = parse_polynomial("x^2*y", ("x", "y"))
        scene = StrataScene(ambient=P1, multidegrees=((3,),), defining_polynomial=F, chart="y")
        got_scene, got_mu, data = resolve_mu(scene)
        assert data.total_milnor == 1 and got_mu.values == {SINGULAR_STRATUM: 1}
        assert got_scene.index[SINGULAR_STRATUM].parents == ()
        report = build_report(scene)
        assert report.milnor_class == ChowClass.point(P1) and report.euler == 2
        assert all(check.passed for check in report.checks.values())

    def test_a_polynomial_scene_names_its_chart(self):
        # No variable is taken as the chart: a scene without one is refused.
        F = parse_polynomial("y^2*z - x^3", ("x", "y", "z"))
        with pytest.raises(SceneValidationError, match="^a polynomial needs a chart variable$"):
            StrataScene(ambient=P2, multidegrees=((3,),), defining_polynomial=F)

    def test_plain_scene_is_smooth(self):
        scene = StrataScene(ambient=P2, multidegrees=((2,),))
        _, mu, data = resolve_mu(scene)
        assert mu.is_zero() and data is None


class TestBuildReport:
    def test_report_records_milnor_data(self, nodal_report):
        assert nodal_report.milnor_data is not None
        assert nodal_report.milnor_data.total_milnor == 1
        assert nodal_report.milnor_data.chart == "z"

    def test_requested_m_values_present(self, corpus_reports):
        report = corpus_reports["nodal-cubic"]
        for key in ("verdier_m1", "verdier_m2", "pushdown_m1", "pushdown_m2", "lci_m1", "lci_m2"):
            assert key in report.checks

    def test_euler_strata_detail(self, nodal_report):
        check = nodal_report.checks["euler_strata"]
        assert check.passed
        assert check.detail == "strata give 1, classes give 1"

    def test_each_class_is_computed_once(self, corpus_scenes, monkeypatch):
        # One report resolves mu once, builds the Milnor class once, and
        # builds Fulton-Johnson classes once for the ambient and once for
        # the product; the checks reuse them.  No (1+D)^-1 is formed:
        # every class that needs it divides by 1+D instead, so
        # unit_inverse, which stays only as a benchmark trace point, is
        # never called.  The Moebius inversion of mu runs once, and its
        # coefficients are passed on.
        calls = {"resolve_mu": 0, "fulton_johnson": 0, "milnor_class": 0, "unit_inverse": 0}
        for module in (charclasses, chow):
            for name in calls:
                if not hasattr(module, name):
                    continue
                original = getattr(module, name)

                def counted(*args, _name=name, _original=original, **kwargs):
                    calls[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        inversions = []
        invert = ConstructibleFunction.indicator_coefficients

        def counted_inversion(self):
            inversions.append(self)
            return invert(self)

        monkeypatch.setattr(ConstructibleFunction, "indicator_coefficients", counted_inversion)
        scene, mu = corpus_scenes["cuspidal-cubic"]
        report = build_report(scene, mu, m_values=(2,))
        assert not report.mu.is_zero()
        assert all(check.passed for check in report.checks.values())
        assert calls == {"resolve_mu": 1, "fulton_johnson": 2, "milnor_class": 1, "unit_inverse": 0}
        assert len(inversions) == 1

    def test_complete_intersection_report_skips_divisor_checks(self):
        scene = StrataScene(ambient=P3, multidegrees=((2,), (2,)))
        report = build_report(scene)
        assert report.milnor_class.is_zero()
        assert report.euler == 0
        assert "defect_codim1" not in report.checks
