"""Reference values computed with sympy alone: nothing here comes from
``milnorcalc``, so a fault there cannot reach the values it is checked
against.

``total_milnor`` is the total Milnor number of a projective hypersurface
in one affine chart.  With f the chart equation and J its Jacobian ideal,
d_k = dim Q[x]/(J + (f^k)) counts, for k large, the Milnor numbers of the
critical points on the hypersurface only: at a critical point off it, f
is a unit and the local quotient is zero.  The ideals J + (f^k) shrink as
k grows, so once d_k = d_{k+1} they are equal from then on, and that d_k
is the total.  ``off_curve_dim`` is dim Q[x]/J less that total, the part
of Q[x]/J at the critical points off the hypersurface.  Each dimension is
a staircase count: the monomials that no leading monomial of a grevlex
Groebner basis divides.

``reference_report`` gives the classes that ``report --json`` prints, from
the scene file's JSON data.  The Chow ring of P^(n_1) x ... x P^(n_k) is
Z[H_1..H_k] reduced mod each H_i^(n_i+1); 1/u for u with constant term 1
is the truncated series sum (1 - u)^j.  With D the class of the
multidegree, c_FJ = prod (1+H_i)^(n_i+1) * D/(1+D).  The vanishing-cycle
function mu is the scene's own, or, on a polynomial scene, the total
Milnor number above on its one point stratum, with the sign
(-1)^(dim Y - 1) of Parusinski-Pragacz (J. Alg. Geom. 10, 2001): the
Milnor fiber of an isolated singular point of X has Euler characteristic
1 + (-1)^(dim X) mu.  Written as sum a_S 1_(closure S), by a Moebius
inversion over the strata's ``parents``, mu has c_*(mu) = sum a_S
[closure S], with the point class for a point stratum given no ``csm``;
a larger stratum without one has no class, and a KeyError says so.
Then M = c_*(mu)/(1+D), each localization term is a_S [closure S]/(1+D),
c_SM = c_FJ - M, and euler is the degree of c_SM.
"""

import itertools

import sympy


def staircase_size(leads, nvars):
    """The number of exponent vectors that no vector of ``leads`` bounds
    from below; the count is finite only when each variable has a pure
    power among the leads, which a zero-dimensional ideal gives."""
    if any(not any(lead) for lead in leads):
        return 0
    bounds = []
    for i in range(nvars):
        powers = [lead[i] for lead in leads if sum(lead) == lead[i] > 0]
        if not powers:
            raise ValueError("the quotient is not finite-dimensional")
        bounds.append(min(powers))
    return sum(
        1
        for exponents in itertools.product(*(range(b) for b in bounds))
        if not any(all(e >= l for e, l in zip(exponents, lead)) for lead in leads)
    )


def quotient_dim(generators, symbols):
    """dim Q[symbols] / (generators), from sympy's grevlex basis."""
    basis = sympy.groebner(generators, *symbols, order="grevlex", domain="QQ")
    leads = [sympy.Poly(g, *symbols).monoms(order="grevlex")[0] for g in basis.exprs]
    return staircase_size(leads, len(symbols))


def chart_equation(text, variables, chart):
    """(f, its variables, its partials) for the hypersurface ``text`` = 0
    in the chart ``chart`` = 1, ``^`` read as a power."""
    symbols = sympy.symbols(variables)
    names = dict(zip(variables, symbols))
    f = sympy.expand(sympy.sympify(text.replace("^", "**"), locals=names).subs(names[chart], 1))
    affine = [s for s in symbols if s != names[chart]]
    return f, affine, [sympy.diff(f, x) for x in affine]


def total_milnor(text, variables, chart):
    """The total Milnor number of the hypersurface ``text`` = 0 in the
    chart ``chart`` = 1, ``^`` read as a power."""
    f, affine, jacobian = chart_equation(text, variables, chart)
    dims = []
    while len(dims) < 2 or dims[-1] != dims[-2]:
        dims.append(quotient_dim(jacobian + [f ** (len(dims) + 1)], affine))
    return dims[-1]


def off_curve_dim(text, variables, chart):
    """dim Q[x]/J minus the total: the Milnor numbers of the critical
    points of the chart equation that lie off the hypersurface."""
    _, affine, jacobian = chart_equation(text, variables, chart)
    return quotient_dim(jacobian, affine) - total_milnor(text, variables, chart)


def hyperplanes(factors):
    """H_1..H_k, one hyperplane class per factor P^(n_i)."""
    return sympy.symbols(f"H1:{len(factors) + 1}")


def truncate(expr, factors):
    """``expr`` mod H_i^(n_i+1): the terms outside the box are dropped."""
    H = hyperplanes(factors)
    kept = [
        c * sympy.prod([h**e for h, e in zip(H, exps)])
        for exps, c in sympy.Poly(sympy.expand(expr), *H).terms()
        if all(e <= n for e, n in zip(exps, factors))
    ]
    return sympy.Add(*kept)


def over_unit(x, u, factors):
    """x/u for a class u with constant term 1: (1 - u)^j is zero past j = dim."""
    step = truncate(1 - u, factors)
    inverse, power = sympy.Integer(0), sympy.Integer(1)
    for _ in range(sum(factors) + 1):
        inverse += power
        power = truncate(power * step, factors)
    return truncate(x * inverse, factors)


def class_of(terms, factors):
    """The class of a scene file's csm map, keyed by comma-separated exponents."""
    H = hyperplanes(factors)
    return sympy.Add(*(c * sympy.prod([h ** int(e) for h, e in zip(H, key.split(","))]) for key, c in terms.items()))


def as_json(x, factors):
    """A class as ``report --json`` writes it: exponent key to nonzero coefficient."""
    terms = sympy.Poly(x, *hyperplanes(factors)).terms()
    return {",".join(map(str, exps)): int(c) for exps, c in terms if c}


def scene_mu(data):
    """The scene's strata and mu: given, or the total Milnor number placed
    on the point stratum; a polynomial scene without strata gets the smooth
    locus, and the singular points when the total is nonzero."""
    strata = data.get("strata", [])
    if "polynomial" not in data:
        return strata, data.get("mu", {})
    dim = sum(data["ambient"])
    variables = data.get("variables") or (list("xyzw")[: dim + 1] if dim <= 3 else [f"x{i}" for i in range(dim + 1)])
    total = total_milnor(data["polynomial"], variables, data["chart"])
    points = [s["id"] for s in strata if s["dim"] == 0]
    if not strata:
        strata, points = [{"id": "smooth_locus", "dim": dim - 1}], ["singular_points"]
        if total:
            strata.append({"id": "singular_points", "dim": 0, "parents": ["smooth_locus"] if dim > 1 else []})
    if not total:
        return strata, {}
    (point,) = points
    return strata, {point: (-1) ** (dim - 1) * total}


def closure_coefficients(strata, mu):
    """The a_S with mu = sum a_S 1_(closure S): the value of mu on T is the
    sum of a_S over the strata S whose closure holds T, T itself and,
    through ``parents``, every stratum above it.  Solved from the top."""
    parents = {s["id"]: s.get("parents", []) for s in strata}

    def above(i):
        return {i}.union(*(above(p) for p in parents[i]))

    coefficients = {}
    for s in sorted(strata, key=lambda s: -s["dim"]):
        i = s["id"]
        coefficients[i] = mu.get(i, 0) - sum(coefficients[j] for j in above(i) - {i})
    return {i: a for i, a in coefficients.items() if a}


def reference_report(data):
    """``fulton_johnson``, ``milnor_class``, ``csm``, ``localization`` and
    ``euler`` of a codimension-one scene, given its scene file's data."""
    factors = data["ambient"]
    H = hyperplanes(factors)
    (degree,) = data["degrees"]
    divisor = sum(d * h for d, h in zip(degree, H))
    tangent = sympy.prod([(1 + h) ** (n + 1) for h, n in zip(H, factors)])
    fj = over_unit(tangent * divisor, 1 + divisor, factors)
    strata, mu = scene_mu(data)
    point = sympy.prod([h**n for h, n in zip(H, factors)])
    closures = {s["id"]: class_of(s["csm"], factors) for s in strata if "csm" in s}
    closures.update({s["id"]: point for s in strata if "csm" not in s and s["dim"] == 0})
    coefficients = closure_coefficients(strata, mu)
    milnor = over_unit(sympy.Add(*(a * closures[i] for i, a in coefficients.items())), 1 + divisor, factors)
    localization = [(i, over_unit(a * closures[i], 1 + divisor, factors)) for i, a in sorted(coefficients.items())]
    csm = sympy.expand(fj - milnor)
    return {
        "fulton_johnson": as_json(fj, factors),
        "milnor_class": as_json(milnor, factors),
        "csm": as_json(csm, factors),
        "localization": [{"stratum": i, "class": as_json(term, factors)} for i, term in localization],
        "euler": int(sympy.Poly(csm, *H).coeff_monomial(point)),
    }
