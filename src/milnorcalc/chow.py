"""Intersection arithmetic on products of projective spaces.

Homology classes pushed forward to P^{n_1} x ... x P^{n_k} are written
in the truncated polynomial ring Z[H_1..H_k]/(H_i^{n_i+1}), where H_i
is the hyperplane class of the i-th factor.  A monomial H^a stands for
the class H^a cap [ambient]; truncation is applied eagerly, so stored
exponents always satisfy 0 <= a_i <= n_i.  Coefficients are plain
Python integers and therefore exact at any size.

A class stores its terms on packed exponents: one int per exponent,
with one bit field per factor and the first factor in the top field.
The field of a factor of dimension n has b = n.bit_length() value bits
and one guard bit above them, so n < 2^b.  Two things must hold:

- a sum of two box exponents (at most 2n < 2^(b+1) per field) and the
  sum a + (2^b - 1 - n) + c that tests a + c > n stay inside their
  fields, so packed addition never carries from one factor into the next;
- packed order equals box order, because the first factor is the most
  significant field.

Exponent tuples appear only at the public boundary: the ``ChowClass``
constructor packs them, ``ChowClass.coefficients`` and ``__str__``
unpack them, and ``graded_piece`` reads degrees from the unpack map.
Adding or forgetting a factor moves the fields above its own by the
width of its field.  The layout of an ambient, built once from
``AmbientSpace.box()``, holds the pack and unpack maps, the shift of
each field, the guard and overflow masks, the ``"a,b,c"`` key string of
each exponent in key order (built when a class of the ambient is first
emitted, which product ambients never are), and the terms of the
tangent class.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .polynomials import _is_int, render_terms

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class AmbientSpace:
    """A product of projective spaces, recorded by factor dimensions."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = tuple(self.factors)
        if not all(map(_is_int, factors)):
            raise TypeError("factor dimensions must be integers")
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
        return AmbientSpace(self.factors + (extra_dim,))

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


# Packed layouts kept at once, so that a process meeting many ambients
# holds a bounded number.  A report meets its ambient and one product
# ambient per m; a run of reports that cycles through more ambients
# than this rebuilds a layout on every product.
_LAYOUT_CACHE_SIZE = 32


class _Layout(NamedTuple):
    """The packed exponents of one ambient and what classes read from them."""

    # Both maps in box order.
    pack: dict[Exponent, int]
    unpack: dict[int, Exponent]
    # The lowest bit of each factor's field.
    shifts: tuple[int, ...]
    # Per field, 2^b - 1 - n and the guard bit 2^b: see the module docstring.
    over: int
    guard: int
    # The "a,b,c" key string of each exponent, in key order; empty until emitted.
    keys: dict[int, str]
    # prod (1+H_i)^(n_i+1), in box order; copied into each tangent class.
    tangent: dict[int, int]


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(factors: tuple[int, ...]) -> _Layout:
    shifts = []
    over = guard = shift = 0
    for n in reversed(factors):
        bits = n.bit_length()
        shifts.append(shift)
        over |= ((1 << bits) - 1 - n) << shift
        guard |= 1 << (shift + bits)
        shift += bits + 1
    shifts.reverse()
    pack = {e: sum(a << s for a, s in zip(e, shifts)) for e in AmbientSpace(factors).box()}
    unpack = {p: e for e, p in pack.items()}
    # The coefficient of H^e is prod C(n_i+1, e_i), one binomial row per factor.
    tangent = {0: 1}
    for n, s in zip(factors, shifts):
        row = [(k << s, math.comb(n + 1, k)) for k in range(n + 1)]
        tangent = {p + q: c * b for p, c in tangent.items() for q, b in row}
    return _Layout(pack, unpack, tuple(shifts), over, guard, {}, tangent)


class ChowClass:
    """An integer class in the truncated ring of an ambient space."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: AmbientSpace, coefficients: Mapping[Exponent, int] = ()):
        self.ambient = ambient
        box = ambient.factors
        pack = _layout(box).pack
        terms: dict[int, int] = {}
        for exp, value in dict(coefficients).items():
            exp = tuple(exp)
            if not all(map(_is_int, exp)):
                raise TypeError(f"exponent {exp} has an entry that is not an integer")
            if len(exp) != len(box):
                raise ValueError(f"exponent {exp} has wrong length for {ambient}")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            if not _is_int(value):
                raise TypeError("coefficients must be integers")
            if value == 0:
                continue
            if any(e > n for e, n in zip(exp, box)):
                continue
            terms[pack[exp]] = value
        self._terms = terms

    @classmethod
    def _of_terms(cls, ambient: AmbientSpace, terms: dict[int, int]) -> "ChowClass":
        """Wrap packed terms that are already clean, without validating them."""
        result = object.__new__(cls)
        result.ambient = ambient
        result._terms = terms
        return result

    @property
    def coefficients(self) -> dict[Exponent, int]:
        """A fresh map from exponent tuples to the nonzero coefficients."""
        unpack = _layout(self.ambient.factors).unpack
        return {unpack[p]: c for p, c in self._terms.items()}

    def keyed_terms(self) -> list[tuple[str, int]]:
        """(``"a,b,c"`` exponent key, coefficient) pairs in the string order of the keys."""
        terms, layout = self._terms, _layout(self.ambient.factors)
        if not layout.keys:
            pairs = ((p, ",".join(map(str, e))) for e, p in layout.pack.items())
            layout.keys.update(sorted(pairs, key=lambda pair: pair[1]))
        return [(key, terms[p]) for p, key in layout.keys.items() if p in terms]

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_terms(ambient, {})

    @classmethod
    def constant(cls, ambient: AmbientSpace, value: int) -> "ChowClass":
        return cls(ambient, {(0,) * len(ambient.factors): value})

    @classmethod
    def unit(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_terms(ambient, {0: 1})

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
        return not self._terms

    def constant_term(self) -> int:
        return self._terms.get(0, 0)

    def degree(self) -> int:
        """Coefficient of the point class: the pushforward to a point."""
        return self._terms.get(_layout(self.ambient.factors).pack[self.ambient.top], 0)

    def graded_piece(self, d: int) -> "ChowClass":
        """Return the part of total codimension ``d``."""
        unpack = _layout(self.ambient.factors).unpack
        return ChowClass._of_terms(
            self.ambient,
            {p: c for p, c in self._terms.items() if sum(unpack[p]) == d},
        )

    def _plus(self, other: "ChowClass", sign: int) -> "ChowClass":
        """self + sign * other, in one pass over the terms of ``other``."""
        self._check_compatible(other)
        out = dict(self._terms)
        for p, value in other._terms.items():
            acc = out.get(p, 0) + sign * value
            if acc:
                out[p] = acc
            else:
                del out[p]
        return ChowClass._of_terms(self.ambient, out)

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return self._plus(other, 1)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self._plus(other, -1)

    def __neg__(self) -> "ChowClass":
        return ChowClass._of_terms(self.ambient, {p: -c for p, c in self._terms.items()})

    def __mul__(self, other) -> "ChowClass":
        if _is_int(other):
            scaled = {p: c * other for p, c in self._terms.items()} if other else {}
            return ChowClass._of_terms(self.ambient, scaled)
        if not isinstance(other, ChowClass):
            return NotImplemented
        self._check_compatible(other)
        layout = _layout(self.ambient.factors)
        over, guard = layout.over, layout.guard
        inner = list(other._terms.items())
        out: dict[int, int] = {}
        for pa, ca in self._terms.items():
            # A guard bit set in pa + over + pb marks a field past n.
            room = pa + over
            for pb, cb in inner:
                if (room + pb) & guard:
                    continue
                p = pa + pb
                out[p] = out.get(p, 0) + ca * cb
        return ChowClass._of_terms(self.ambient, {p: c for p, c in out.items() if c})

    def __rmul__(self, other) -> "ChowClass":
        if _is_int(other):
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
        if not self._terms:
            return ChowClass._of_terms(self.ambient, {})
        layout = _layout(self.ambient.factors)
        guard = layout.guard
        v = [(f, c) for f, c in unit._terms.items() if f]
        x = self._terms
        y: dict[int, int] = {}
        for p in layout.unpack:
            acc = x.get(p, 0)
            # f <= e exactly when every field of guard + e - f keeps its guard bit.
            top = p + guard
            for f, c in v:
                if (top - f) & guard == guard:
                    acc -= c * y.get(p - f, 0)
            if acc:
                y[p] = acc
        return ChowClass._of_terms(self.ambient, y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ChowClass)
            and self.ambient == other.ambient
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"ChowClass({str(self)!r}, ambient={self.ambient.factors})"

    def __str__(self) -> str:
        items = sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return render_terms(items, self.ambient.letters(), "")


def _check_factor(ambient: AmbientSpace, factor: int) -> None:
    if not 0 <= factor < len(ambient.factors):
        raise ValueError("factor out of range")


def hyperplane(ambient: AmbientSpace, factor: int = 0) -> ChowClass:
    """Return the hyperplane class of one factor (zero on a P^0 factor)."""
    _check_factor(ambient, factor)
    if not ambient.factors[factor]:
        return ChowClass.zero(ambient)
    return ChowClass._of_terms(ambient, {1 << _layout(ambient.factors).shifts[factor]: 1})


def tangent_class(ambient: AmbientSpace) -> ChowClass:
    """Total Chern class of the tangent bundle, prod (1+H_i)^(n_i+1).

    In the truncated ring the coefficient of H^e is prod C(n_i+1, e_i);
    the layout of the ambient holds these terms.
    """
    return ChowClass._of_terms(ambient, dict(_layout(ambient.factors).tangent))


def factor_tangent_class(ambient: AmbientSpace, factor: int) -> ChowClass:
    """Total Chern class of the tangent bundle along one factor, (1+H)^(n+1)."""
    _check_factor(ambient, factor)
    n = ambient.factors[factor]
    shift = _layout(ambient.factors).shifts[factor]
    return ChowClass._of_terms(ambient, {k << shift: math.comb(n + 1, k) for k in range(n + 1)})


def divisor_class(ambient: AmbientSpace, multidegree: Sequence[int]) -> ChowClass:
    """Return sum d_i H_i for a hypersurface of the given multidegree."""
    if len(multidegree) != len(ambient.factors):
        raise ValueError("multidegree length does not match the ambient factors")
    result = ChowClass.zero(ambient)
    for i, d in enumerate(multidegree):
        result = result + hyperplane(ambient, i) * d
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
    new_ambient = AmbientSpace(factors[:position] + (extra_dim,) + factors[position:])
    # The fields of the factors from ``position`` on lie below bit lo and
    # stay; the others move up by the width of the new field, which
    # holds exponent 0.
    lo = _layout(new_ambient.factors).shifts[position]
    up = lo + extra_dim.bit_length() + 1
    low = (1 << lo) - 1
    return ChowClass._of_terms(new_ambient, {(p >> lo) << up | (p & low): c for p, c in x._terms.items()})


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
    # The forgotten field holds bits lo to hi - 1; the fields below it
    # stay and those above move down by its width.
    lo = _layout(factors).shifts[position]
    hi = lo + full.bit_length() + 1
    low, field = (1 << lo) - 1, (1 << (hi - lo)) - 1
    terms = {(p >> hi) << lo | (p & low): c for p, c in x._terms.items() if (p >> lo) & field == full}
    return ChowClass._of_terms(new_ambient, terms)


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
