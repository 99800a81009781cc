"""Intersection arithmetic on products of projective spaces.

Homology classes pushed forward to P^{n_1} x ... x P^{n_k} are written
in the truncated polynomial ring Z[H_1..H_k]/(H_i^{n_i+1}), where H_i
is the hyperplane class of the i-th factor.  A monomial H^a stands for
the class H^a cap [ambient]; truncation is applied eagerly, so stored
exponents always satisfy 0 <= a_i <= n_i.  Coefficients are plain
Python integers and therefore exact at any size.

A class stores all N = prod (n_i + 1) coefficients of its box as one
tuple, zeros included, in box order: H^e sits at index sum e_i s_i for
the strides s_i = prod_{j > i} (n_j + 1).  Sums and scalings are one
``map``; the pullback and pushforward along the projection that forgets
the last factor are extended slices.  The predecessor table of a term
H^f holds t - f + 1 at each index t whose monomial H^f divides, else 0,
and is read on a vector with a leading zero.  A product reads the other
operand through the tables of the terms of the operand with fewer
nonzero entries, four terms per pass; ``x / u`` solves
y_t = x_t - sum_f u_f y_(t - f) in box order.  The layout of an ambient
holds the table of each term read so far, built when it is first read
(a report reads those of D and of any class sparser than D), the
``"a,b,c"`` key strings (built when a class of the ambient is first
emitted, which product ambients never are) and the tangent class.

The module also holds what every other module uses without the Groebner
engine: the records' base ``_Record``, the exit-3 errors' base
``MathObstruction``, and the writers ``decimal_text`` and ``render_terms``.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from itertools import compress, repeat
from operator import add, mul, neg, sub
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

if TYPE_CHECKING:
    from .polynomials import Scalar

Exponent = tuple[int, ...]
_set = object.__setattr__  # how _Record.__init__ sets a slot past the refusing __setattr__


class MathObstruction(ValueError):
    """Well-formed input that breaks a hypothesis of the formulas; the CLI exits 3 on it."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def decimal_text(value: Scalar) -> str:
    """``str(value)``, refusing an integer past Python's int-string limit in plain words.

    The ValueError names the digit count, found without converting: the
    estimate bit_length * 1233 >> 12 (1233 / 4096 < log10 2) is at most
    the count and is raised to it by comparison with powers of ten.
    """
    try:
        return str(value)
    except ValueError:
        n = max(abs(value.numerator), value.denominator)
        digits = n.bit_length() * 1233 >> 12
        while 10**digits <= n:
            digits += 1
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer of {digits} digits, over the {limit}-digit limit for writing it") from None


def render_terms(items: Iterable[tuple[Exponent, Scalar]], names: Sequence[str], joiner: str) -> str:
    """Write (exponent, coefficient) pairs, in the order given, as a sum.

    A magnitude other than 1 and the ``name^e`` factors of a term are
    joined by ``joiner``; the empty sum is "0".
    """
    chunks: list[str] = []
    for exp, coeff in items:
        magnitude = abs(coeff)
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exp) if e]
        if magnitude != 1 or not factors:
            factors.insert(0, decimal_text(magnitude))
        chunks.append((" - " if coeff < 0 else " + ") + joiner.join(factors))
    text = "".join(chunks)
    if not text:
        return "0"
    return text[3:] if text.startswith(" + ") else "-" + text[3:]


class _Record:
    """A frozen record: equal only to a record of its own class with equal
    ``_fields``, hashed and shown by them, and refusing assignment.  Its
    constructor checks its arguments and ends in ``_Record.__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        # Sets the slots of _fields to values, in order; each set returns None, so any() runs them all.
        any(map(_set, repeat(self), self._fields, values))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    # Copies and pickles are built by the constructor, which refused assignment leaves as the only way.
    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__


class AmbientSpace(_Record):
    """A product of projective spaces, recorded by factor dimensions."""

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: Sequence[int]):
        factors = tuple(factors)
        if not all(map(_is_int, factors)):
            raise TypeError("factor dimensions must be integers")
        if not factors:
            raise ValueError("an ambient space needs at least one factor")
        if any(n < 0 for n in factors):
            raise ValueError("factor dimensions must be nonnegative")
        _Record.__init__(self, factors)

    @property
    def dim(self) -> int:
        return sum(self.factors)

    def extended(self, extra_dim: int) -> "AmbientSpace":
        return AmbientSpace(self.factors + (extra_dim,))

    def letters(self) -> tuple[str, ...]:
        k = len(self.factors)
        return ("H",) if k == 1 else ("H", "K") if k == 2 else tuple(f"H{i + 1}" for i in range(k))

    def box(self) -> Iterable[Exponent]:
        """Iterate over all monomial exponents of the truncated ring."""
        return itertools.product(*(range(n + 1) for n in self.factors))


def _ambient_label(factors: Sequence[int]) -> str:
    return " x ".join(f"P^{n}" for n in factors)


# Layouts kept at once, so that a process meeting many ambients holds a
# bounded number.  A report meets its ambient and one product ambient
# per m; a run of reports that cycles through more ambients than this
# rebuilds a layout on every product.
_LAYOUT_CACHE_SIZE = 32
# The most box positions N an ambient may have, and the most bits N (dim + k)
# its tangent class may need, each coefficient being a product over the k
# factors of C(n_i + 1, e_i) < 2^(n_i + 1); both refused before anything is
# allocated.  P^20^4 x P^1, the product box of m = 1: 388,962 and 33,450,732.
_MAX_BOX_SIZE = 400_000
_MAX_BOX_BITS = 40_000_000


class _Layout(NamedTuple):
    """The box positions of one ambient and what classes read from them."""

    size: int
    strides: tuple[int, ...]
    grades: tuple[int, ...]  # total degree of each index
    tables: dict[int, tuple[int, ...]]  # the predecessor table of each term index read so far
    zeros: tuple[int, ...]  # all zero: the padding table, which reads the leading zero
    keys: dict[int, str]  # the "a,b,c" key of each index, in box order; empty until emitted
    tangent: tuple[int, ...]  # prod (1+H_i)^(n_i+1), shared by every tangent class


def _binomials(n: int) -> list[int]:
    """C(n, j) for j = 0..n, each from the one before: far cheaper than
    ``math.comb`` per entry when n is large."""
    return list(itertools.accumulate(range(1, n + 1), lambda c, j: c * (n + 1 - j) // j, initial=1))


def _box_size(factors: Sequence[int]) -> int:
    size, label = math.prod(n + 1 for n in factors), _ambient_label(factors)
    if size > _MAX_BOX_SIZE:
        raise ValueError(
            f"the Chow ring of {label} has more than {_MAX_BOX_SIZE} coefficients, the most a class may hold"
        )
    bits = size * (sum(factors) + len(factors))
    if bits > _MAX_BOX_BITS:
        raise ValueError(
            f"the tangent class of {label} may need {bits} bits, more than the {_MAX_BOX_BITS} a class may hold"
        )
    return size


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(factors: tuple[int, ...]) -> _Layout:
    size = _box_size(factors)
    strides = [math.prod(n + 1 for n in factors[i + 1 :]) for i in range(len(factors))]
    # The coefficient of H^e in the tangent class is prod C(n_i+1, e_i).
    grades, tangent = [0], [1]
    for n in factors:
        grades = [g + a for g in grades for a in range(n + 1)]
        row = _binomials(n + 1)[:-1]
        tangent = [c * b for c in tangent for b in row]
    return _Layout(size, tuple(strides), tuple(grades), {}, (0,) * size, {}, tuple(tangent))


def _tables(layout: _Layout, terms: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The predecessor tables of the term indices ``terms``, padded to four
    with the table of zeros.

    A missing table starts as t - f + 1 at every index t.  H^f fails to
    divide H^e exactly where e_i < f_i for some factor i, and those
    entries form runs of f_i s_i every (n_i + 1) s_i, which is the stride
    of the factor before (the box size for the first): each run is zeroed.
    """
    tables, size = layout.tables, layout.size
    for f in terms:
        if f not in tables:
            values, period = list(range(1 - f, size + 1 - f)), size
            for stride in layout.strides:
                run = f % period - f % stride  # f_i s_i
                if run:
                    zeros = [0] * run
                    for start in range(0, size, period):
                        values[start : start + run] = zeros
                period = stride
            tables[f] = tuple(values)
    return [tables[f] for f in terms] + [layout.zeros] * (4 - len(terms))


class ChowClass:
    """An integer class in the truncated ring of an ambient space."""

    __slots__ = ("ambient", "_terms")

    def __init__(self, ambient: AmbientSpace, coefficients: Mapping[Exponent, int] = ()):
        self.ambient, box = ambient, ambient.factors
        layout = _layout(box)
        terms = [0] * layout.size
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
            if all(e <= n for e, n in zip(exp, box)):
                terms[sum(map(mul, exp, layout.strides))] = value
        self._terms = tuple(terms)

    @classmethod
    def _of_terms(cls, ambient: AmbientSpace, terms: tuple[int, ...]) -> "ChowClass":
        """Wrap a full coefficient tuple in box order, without validating it."""
        result = object.__new__(cls)
        result.ambient = ambient
        result._terms = terms
        return result

    @property
    def coefficients(self) -> dict[Exponent, int]:
        """A fresh map from exponent tuples to the nonzero coefficients."""
        return dict(compress(zip(self.ambient.box(), self._terms), self._terms))

    def keyed_terms(self) -> list[tuple[str, int]]:
        """(``"a,b,c"`` exponent key, coefficient) pairs of the nonzero terms, in box order."""
        terms, keys = self._terms, _layout(self.ambient.factors).keys
        if not keys:
            keys.update(enumerate(",".join(map(str, e)) for e in self.ambient.box()))
        return [(key, terms[t]) for t, key in keys.items() if terms[t]]

    @classmethod
    def zero(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_terms(ambient, _layout(ambient.factors).zeros)

    @classmethod
    def unit(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_terms(ambient, (1,) + (0,) * (_layout(ambient.factors).size - 1))

    @classmethod
    def point(cls, ambient: AmbientSpace) -> "ChowClass":
        return cls._of_terms(ambient, _layout(ambient.factors).zeros[1:] + (1,))

    def _check_compatible(self, other: "ChowClass") -> None:
        if self.ambient.factors != other.ambient.factors:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")

    def is_zero(self) -> bool:
        return not any(self._terms)

    def constant_term(self) -> int:
        return self._terms[0]

    def degree(self) -> int:
        """Coefficient of the point class: the pushforward to a point."""
        return self._terms[-1]

    def graded_piece(self, d: int) -> "ChowClass":
        """Return the part of total codimension ``d``."""
        grades = _layout(self.ambient.factors).grades
        return ChowClass._of_terms(self.ambient, tuple(map(mul, self._terms, map(d.__eq__, grades))))

    def _map(self, op, other: "ChowClass") -> "ChowClass":
        self._check_compatible(other)
        return ChowClass._of_terms(self.ambient, tuple(map(op, self._terms, other._terms)))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        return self._map(add, other)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self._map(sub, other)

    def __neg__(self) -> "ChowClass":
        return ChowClass._of_terms(self.ambient, tuple(map(neg, self._terms)))

    def __mul__(self, other) -> "ChowClass":
        if not isinstance(other, ChowClass):
            if _is_int(other):
                return ChowClass._of_terms(self.ambient, tuple(map(mul, self._terms, repeat(other))))
            return NotImplemented
        self._check_compatible(other)
        sparse, dense = self._terms, other._terms
        if sparse.count(0) < dense.count(0):
            sparse, dense = dense, sparse
        layout = _layout(self.ambient.factors)
        terms = tuple(compress(range(layout.size), sparse))
        if not terms:
            return ChowClass._of_terms(self.ambient, sparse)
        d, out = (0,) + dense, None
        # Four terms per pass, padded with terms of coefficient 0.
        for start in range(0, len(terms), 4):
            chunk = terms[start : start + 4]
            c0, c1, c2, c3 = [sparse[f] for f in chunk] + [0] * (4 - len(chunk))
            rows = zip(*_tables(layout, chunk))
            part = [c0 * d[p0] + c1 * d[p1] + c2 * d[p2] + c3 * d[p3] for p0, p1, p2, p3 in rows]
            out = part if out is None else list(map(add, out, part))
        return ChowClass._of_terms(self.ambient, tuple(out))

    def __rmul__(self, other) -> "ChowClass":
        if _is_int(other):
            return self * other
        return NotImplemented

    def __truediv__(self, unit: "ChowClass") -> "ChowClass":
        """Solve ``unit * y == self`` exactly, one box position at a time.

        With unit = 1 + sum_f u_f H^f, y_t = self_t - sum_f u_f y_(t - f)
        over the f with H^f dividing H^e_t, each t - f solved already.
        """
        if not isinstance(unit, ChowClass):
            return NotImplemented
        if unit.constant_term() != 1:
            raise ValueError("division by a non-unit: constant coefficient must be 1")
        self._check_compatible(unit)
        x, u = self._terms, unit._terms
        terms = tuple(compress(range(len(u)), u))[1:]
        if not terms or not any(x):
            return self
        tables = _tables(_layout(self.ambient.factors), terms)
        y = [0]
        write = y.append
        if len(terms) <= 4:
            # Unrolled, padded with terms of coefficient 0: on the units 1 + D
            # of the reports, two to three times as fast as the loop below.
            c0, c1, c2, c3 = [u[f] for f in terms] + [0] * (4 - len(terms))
            for xt, p0, p1, p2, p3 in zip(x, *tables):
                write(xt - c0 * y[p0] - c1 * y[p1] - c2 * y[p2] - c3 * y[p3])
        else:
            coefficients, read = [u[f] for f in terms], y.__getitem__
            for xt, before in zip(x, zip(*tables)):
                write(xt - sum(map(mul, coefficients, map(read, before))))
        return ChowClass._of_terms(self.ambient, tuple(y[1:]))

    def __eq__(self, other) -> bool:
        return isinstance(other, ChowClass) and (self.ambient, self._terms) == (other.ambient, other._terms)

    def __repr__(self) -> str:
        return f"ChowClass({str(self)!r}, ambient={self.ambient.factors})"

    def __str__(self) -> str:
        items = sorted(self.coefficients.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return render_terms(items, self.ambient.letters(), "")


def _written(ambient: AmbientSpace, entries: Iterable[tuple[int, int]]) -> ChowClass:
    """The class with the given (index, coefficient) entries and zeros elsewhere."""
    terms = [0] * _layout(ambient.factors).size
    for t, c in entries:
        terms[t] = c
    return ChowClass._of_terms(ambient, tuple(terms))


def hyperplane(ambient: AmbientSpace, factor: int = 0) -> ChowClass:
    """Return the hyperplane class of one factor (zero on a P^0 factor)."""
    if not 0 <= factor < len(ambient.factors):
        raise ValueError("factor out of range")
    stride = _layout(ambient.factors).strides[factor]
    return _written(ambient, [(stride, 1)] if ambient.factors[factor] else [])


def tangent_class(ambient: AmbientSpace) -> ChowClass:
    """Total Chern class of the tangent bundle, prod (1+H_i)^(n_i+1), held by the layout."""
    return ChowClass._of_terms(ambient, _layout(ambient.factors).tangent)


def divisor_class(ambient: AmbientSpace, multidegree: Sequence[int]) -> ChowClass:
    """Return sum d_i H_i for a hypersurface of the given multidegree."""
    if len(multidegree) != len(ambient.factors):
        raise ValueError("multidegree length does not match the ambient factors")
    if not all(map(_is_int, multidegree)):
        raise TypeError("coefficients must be integers")
    strides = _layout(ambient.factors).strides
    return _written(ambient, [(s, d) for s, n, d in zip(strides, ambient.factors, multidegree) if n])


def unit_inverse(u: ChowClass) -> ChowClass:
    """Invert a class with constant coefficient 1."""
    return ChowClass.unit(u.ambient) / u


def pull_back(x: ChowClass, m: int) -> ChowClass:
    """c(T_pi) cap pi^* x for the projection pi that forgets a last factor P^m.

    The coefficient of H^e H_new^j is C(m+1, j) x_e: one extended slice per j.
    """
    product = x.ambient.extended(m)
    # The layout of the product refuses a box over the limit before it is allocated.
    terms, out = x._terms, [0] * _layout(product.factors).size
    for j, c in enumerate(_binomials(m + 1)[:-1]):
        out[j :: m + 1] = map(mul, terms, repeat(c))
    return ChowClass._of_terms(product, tuple(out))


def push_forward(x: ChowClass) -> ChowClass:
    """Push forward along the projection that forgets the last factor P^n.

    Only the terms carrying H_last^n survive (the rest die for dimension
    reasons), without that power.
    """
    factors = x.ambient.factors
    if len(factors) == 1:
        raise ValueError("cannot forget the only factor")
    n = factors[-1]
    return ChowClass._of_terms(AmbientSpace(factors[:-1]), x._terms[n :: n + 1])


def self_intersection_check(ambient: AmbientSpace, multidegree: Sequence[int]) -> bool:
    """Check k^* k_* = c_1(N) cap on every monomial class.

    The two routes are the divisor Gysin composite (pullback to the
    multidegree-d divisor, then pushforward: a product with the divisor
    class) and multiplication by the degree-one part of the normal line
    bundle class 1 + D, with D summed from the hyperplane classes.
    """
    divisor = divisor_class(ambient, multidegree)
    first_chern = sum((d * hyperplane(ambient, i) for i, d in enumerate(multidegree)), ChowClass.zero(ambient))
    # The box starts at the unit monomial, so the products differ on
    # some monomial exactly when the two multipliers differ; when they
    # are equal, every product compares equal classes.
    return (ChowClass.unit(ambient) + divisor).graded_piece(1) == first_chern
