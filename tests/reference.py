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
