"""Intersection arithmetic on products of projective spaces.

Homology classes pushed forward to P^{n_1} x ... x P^{n_k} are written
in the truncated polynomial ring Z[H_1..H_k]/(H_i^{n_i+1}), where H_i
is the hyperplane class of the i-th factor.  A monomial H^a stands for
the class H^a cap [ambient]; truncation is applied eagerly, so stored
exponents always satisfy 0 <= a_i <= n_i.  Coefficients are plain
Python integers and therefore exact at any size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import add, gt, sub
from typing import Iterable, Mapping, Sequence

from .polynomials import render_terms

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class AmbientSpace:
    """A product of projective spaces, recorded by factor dimensions."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if not factors:
            raise ValueError("an ambient space needs at least one factor")
        if any(n < 0 for n in factors):
            raise ValueError("factor dimensions must be nonnegative")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    @property
    def top(self) -> Exponent:
        """Exponent of the class of a point."""
        return self.factors

    def extended(self, extra_dim: int) -> "AmbientSpace":
        return AmbientSpace(self.factors + (int(extra_dim),))

    def letters(self) -> tuple[str, ...]:
        k = len(self.factors)
        if k == 1:
            return ("H",)
        if k == 2:
            return ("H", "K")
        return tuple(f"H{i + 1}" for i in range(k))

    def box(self) -> Iterable[Exponent]:
        """Iterate over all monomial exponents of the truncated ring."""
        return itertools.product(*(range(n + 1) for n in self.factors))


class ChowClass:
    """An integer class in the truncated ring of an ambient space."""

    __slots__ = ("ambient", "coefficients")

    def __init__(self, ambient: AmbientSpace, coefficients: Mapping[Exponent, int] = ()):
        self.ambient = ambient
        box = ambient.factors
        clean: dict[Exponent, int] = {}
        for exp, value in dict(coefficients).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(box):
                raise ValueError(f"exponent {exp} has wrong length for {ambient}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError("coefficients must be integers")
            if value == 0:
                continue
            if any(e > n for e, n in zip(exp, box)):
                continue
            clean[exp] = value
        self.coefficients = clean

    @classmethod
    def _of_clean(cls, ambient: AmbientSpace, coefficients: dict[Exponent, int]) -> "ChowClass":
        """Wrap coefficients that are already clean, without validating them."""
        result = object.__new__(cls)
        result.ambient = ambient
        result.coefficients = coefficients
        return result

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_clean(ambient, {})

    @classmethod
    def constant(cls, ambient: AmbientSpace, value: int) -> "ChowClass":
        return cls(ambient, {(0,) * len(ambient.factors): value})

    @classmethod
    def unit(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls.constant(ambient, 1)

    @classmethod
    def monomial(cls, ambient: AmbientSpace, exp: Exponent, value: int = 1) -> "ChowClass":
        return cls(ambient, {tuple(exp): value})

    @classmethod
    def point(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls.monomial(ambient, ambient.top)

    def _check_compatible(self, other: "ChowClass") -> None:
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def is_zero(self) -> bool:
        return not self.coefficients

    def constant_term(self) -> int:
        return self.coefficients.get((0,) * len(self.ambient.factors), 0)

    def degree(self) -> int:
        """Coefficient of the point class: the pushforward to a point."""
        return self.coefficients.get(self.ambient.top, 0)

    def graded_piece(self, d: int) -> "ChowClass":
        """Return the part of total codimension ``d``."""
        return ChowClass._of_clean(
            self.ambient,
            {e: c for e, c in self.coefficients.items() if sum(e) == d},
        )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_compatible(other)
        out = dict(self.coefficients)
        for exp, value in other.coefficients.items():
            acc = out.get(exp, 0) + value
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return ChowClass._of_clean(self.ambient, out)

    def __neg__(self) -> "ChowClass":
        return ChowClass._of_clean(self.ambient, {e: -c for e, c in self.coefficients.items()})

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-other)

    def __mul__(self, other) -> "ChowClass":
        if isinstance(other, int) and not isinstance(other, bool):
            scaled = {e: c * other for e, c in self.coefficients.items()} if other else {}
            return ChowClass._of_clean(self.ambient, scaled)
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_compatible(other)
        box = self.ambient.factors
        inner = list(other.coefficients.items())
        out: dict[Exponent, int] = {}
        for ea, ca in self.coefficients.items():
            room = tuple(map(sub, box, ea))
            for eb, cb in inner:
                if any(map(gt, eb, room)):
                    continue
                exp = tuple(map(add, ea, eb))
                out[exp] = out.get(exp, 0) + ca * cb
        return ChowClass._of_clean(self.ambient, {e: c for e, c in out.items() if c})

    def __rmul__(self, other) -> "ChowClass":
        if isinstance(other, int) and not isinstance(other, bool):
            return self * other
        return NotImplemented

    def __truediv__(self, unit: "ChowClass") -> "ChowClass":
        """Solve ``unit * y == self`` exactly, one monomial at a time.

        With unit = 1 + v, v of positive degree, the coefficient of H^e
        in y is y_e = self_e - sum v_f y_(e-f) over the terms f <= e of
        v.  Each e - f precedes e in box order, so it is already solved.
        """
        if not isinstance(unit, ChowClass):
            return NotImplemented
        if unit.constant_term() != 1:
            raise ValueError("division by a non-unit: constant coefficient must be 1")
        self._check_compatible(unit)
        if not self.coefficients:
            return ChowClass._of_clean(self.ambient, {})
        v = [(f, c) for f, c in unit.coefficients.items() if any(f)]
        x = self.coefficients
        y: dict[Exponent, int] = {}
        for e in self.ambient.box():
            acc = x.get(e, 0)
            for f, c in v:
                if any(map(gt, f, e)):
                    continue
                acc -= c * y.get(tuple(map(sub, e, f)), 0)
            if acc:
                y[e] = acc
        return ChowClass._of_clean(self.ambient, y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ambient == other.ambient
            and self.coefficients == other.coefficients
        )

    def __repr__(self) -> str:
        return f"ChowClass({str(self)!r}, ambient={self.ambient.factors})"

    def __str__(self) -> str:
        items = sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return render_terms(items, self.ambient.letters(), "")


def hyperplane(ambient: AmbientSpace, factor: int = 0) -> ChowClass:
    """Return the hyperplane class of one factor."""
    exp = tuple(1 if i == factor else 0 for i in range(len(ambient.factors)))
    return ChowClass.monomial(ambient, exp)


def tangent_class(ambient: AmbientSpace) -> ChowClass:
    """Total Chern class of the tangent bundle, prod (1+H_i)^(n_i+1).

    In the truncated ring the coefficient of H^e is prod C(n_i+1, e_i).
    """
    coefficients = {
        e: math.prod(math.comb(n + 1, k) for n, k in zip(ambient.factors, e)) for e in ambient.box()
    }
    return ChowClass._of_clean(ambient, coefficients)


def factor_tangent_class(ambient: AmbientSpace, factor: int) -> ChowClass:
    """Total Chern class of the tangent bundle along one factor, (1+H)^(n+1)."""
    if not 0 <= factor < len(ambient.factors):
        raise ValueError("factor out of range")
    n = ambient.factors[factor]
    zeros = (0,) * len(ambient.factors)
    coefficients = {
        zeros[:factor] + (e,) + zeros[factor + 1 :]: math.comb(n + 1, e) for e in range(n + 1)
    }
    return ChowClass._of_clean(ambient, coefficients)


def divisor_class(ambient: AmbientSpace, multidegree: Sequence[int]) -> ChowClass:
    """Return sum d_i H_i for a hypersurface of the given multidegree."""
    if len(multidegree) != len(ambient.factors):
        raise ValueError("multidegree length does not match the ambient factors")
    result = ChowClass.zero(ambient)
    for i, d in enumerate(multidegree):
        result = result + hyperplane(ambient, i) * int(d)
    return result


def unit_inverse(u: ChowClass) -> ChowClass:
    """Invert a class with constant coefficient 1."""
    return ChowClass.unit(u.ambient) / u


def insert_factor(x: ChowClass, extra_dim: int, position: int) -> ChowClass:
    """Pull back along the projection that forgets a new factor.

    The new factor of dimension ``extra_dim`` is inserted at ``position``
    in the ambient factor list; coefficients are unchanged.
    """
    factors = x.ambient.factors
    if not 0 <= position <= len(factors):
        raise ValueError("position out of range")
    new_ambient = AmbientSpace(factors[:position] + (int(extra_dim),) + factors[position:])
    coeffs = {
        e[:position] + (0,) + e[position:]: c for e, c in x.coefficients.items()
    }
    return ChowClass._of_clean(new_ambient, coeffs)


def forget_factor(x: ChowClass, position: int) -> ChowClass:
    """Push forward along the projection that forgets one factor.

    Only terms carrying the full power H_position^{n} of the forgotten
    P^n factor survive (the rest die for dimension reasons); the
    variable is stripped from the survivors.
    """
    factors = x.ambient.factors
    if not 0 <= position < len(factors):
        raise ValueError("position out of range")
    if len(factors) == 1:
        raise ValueError("cannot forget the only factor")
    full = factors[position]
    new_ambient = AmbientSpace(factors[:position] + factors[position + 1 :])
    coeffs = {
        e[:position] + e[position + 1 :]: c
        for e, c in x.coefficients.items()
        if e[position] == full
    }
    return ChowClass._of_clean(new_ambient, coeffs)


def self_intersection_check(ambient: AmbientSpace, multidegree: Sequence[int]) -> bool:
    """Check k^* k_* = c_1(N) cap on every monomial class.

    The two routes are the divisor Gysin composite (pullback to the
    multidegree-d divisor, then pushforward: a product with the divisor
    class) and multiplication by the degree-one part of the normal line
    bundle class.
    """
    divisor = divisor_class(ambient, multidegree)
    # The box starts at the unit monomial, so the products differ on
    # some monomial exactly when the two multipliers differ; when they
    # are equal, every product compares equal classes.
    return (ChowClass.unit(ambient) + divisor).graded_piece(1) == divisor
