"""Exact multivariate polynomials over the rationals.

The representation is sparse: a map from packed grevlex monomials to
nonzero Fraction coefficients, over a fixed ordered tuple of variable
names; ``terms`` gives a copy keyed by exponent tuples.  The zero
polynomial is the empty map.  All arithmetic is exact; floats are
rejected.

A packed monomial is one int, with a field per variable and one for the
degree, each of ``_FIELD_BITS`` bits under a guard bit.  A product is
a + b, a quotient b - a, a divides b when ((b | G) - a) & G == G for
the guard bits G, and an lcm is taken field by field.  Int order is
grevlex order once ``key`` has flipped the variable fields: the degree
is on top, then the variables from the last.
An exponent or degree above ``_LIMIT``, or more than ``_MAX_VARIABLES``
variables, is refused with ``ValueError`` when a polynomial is built or
parsed.

The text grammar accepted by ``parse_polynomial`` (and emitted by
``str``) is a sum of terms joined by ``+`` or ``-``, where a term is an
optional rational coefficient followed by ``*``-separated variable
powers, for example ``y^2*z - x^3 - 1/2*x^2*z + 4``.  Juxtaposition
(``2x``) is a syntax error, and so are parentheses: a product such as
``(y^2*z - x^3)*(y - z)`` must be expanded into a sum of terms.
Integer literals are ASCII digits, at most ``sys.get_int_max_str_digits()``
of them (4,300 by default).
"""

from __future__ import annotations

import functools
import operator
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .chow import _is_int, render_terms

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]

# Value bits of a packed field; its guard bit sits just above them.
_FIELD_BITS = 15
_LIMIT = (1 << _FIELD_BITS) - 1
_TOO_BIG = f"exponents and degrees above {_LIMIT} are beyond the Groebner engine"
# The most variables a layout may have, refused before anything is
# allocated: its n packed units are of about 16(n + 1) bits each, so a
# layout grows with the square of n (2 MB at the limit).
_MAX_VARIABLES = 1000
# Layouts kept at once, so that a process meeting many variable counts holds
# at most 16 x 2.2 MB.  A polynomial in n variables meets the layouts of n
# and n - 1 (and ``ideal_quotient`` the one of n + 1).
_LAYOUT_CACHE_SIZE = 16


class _Layout(NamedTuple):
    """How grevlex packs monomials in one number of variables."""

    shifts: tuple[int, ...]  # the lowest bit of each variable's field
    units: tuple[int, ...]  # each variable, packed
    degree_shift: int
    guards: int
    ones: int  # 1 in the field of each variable
    # (v * spread) >> top gathers the sum of the variable fields of v.
    spread: int
    top: int
    key: Callable[[int], int]


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _layout(nvars: int) -> _Layout:
    if nvars > _MAX_VARIABLES:
        raise ValueError(f"a polynomial in {nvars} variables is over the limit of {_MAX_VARIABLES} variables")
    # The fields from the bottom up: x_0, ..., x_(n-1), then the degree.
    shifts, degree_shift = tuple(i * (_FIELD_BITS + 1) for i in range(nvars)), nvars * (_FIELD_BITS + 1)
    top, flip = max(shifts, default=0), sum(_LIMIT << s for s in shifts)
    units, spread = tuple((1 << s) + (1 << degree_shift) for s in shifts), sum(1 << (top - s) for s in shifts)
    guards = sum(1 << (s + _FIELD_BITS) for s in (*shifts, degree_shift))
    return _Layout(shifts, units, degree_shift, guards, sum(1 << s for s in shifts), spread, top, flip.__xor__)


def _pack(exp: Exponent, lay: _Layout) -> int:
    if sum(exp) > _LIMIT:
        raise ValueError(_TOO_BIG)
    return sum(map(operator.mul, exp, lay.units))


def _unpack(m: int, lay: _Layout) -> Exponent:
    return tuple(m >> s & _LIMIT for s in lay.shifts)


class PolyParseError(ValueError):
    """Malformed polynomial text; ``position`` is the character offset.

    ``position`` is None when the fault is in the variable list, not in
    the text.
    """

    def __init__(self, message: str, position: Optional[int]):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class VariableMismatchError(ValueError):
    """Operands live over different variable lists."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    """A sparse polynomial with Fraction coefficients, on packed grevlex monomials."""

    __slots__ = ("variables", "_terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Scalar] = ()):
        self.variables: tuple[str, ...] = tuple(variables)
        nvars = len(self.variables)
        lay = _layout(nvars)
        clean: dict[int, Fraction] = {}
        for exp, coeff in dict(terms).items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            exp = tuple(exp)
            if not all(map(_is_int, exp)):
                raise TypeError(f"exponent {exp} has an entry that is not an integer")
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong length for {nvars} variables")
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            clean[_pack(exp, lay)] = coeff
        self._terms: dict[int, Fraction] = clean

    @classmethod
    def _of_clean(cls, variables: tuple[str, ...], terms: dict[int, Fraction]) -> "Polynomial":
        """Wrap packed terms that are already clean, without validating them."""
        result = object.__new__(cls)
        result.variables = variables
        result._terms = terms
        return result

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {})

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A fresh copy of the terms, keyed by exponent tuples."""
        lay = _layout(len(self.variables))
        return {_unpack(m, lay): c for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return self.total_degree() <= 0

    def total_degree(self) -> int:
        """Return the total degree, with -1 for the zero polynomial."""
        if not self._terms:
            return -1
        # The degree field is the top one.
        return max(self._terms) >> _layout(len(self.variables)).degree_shift

    def is_homogeneous(self) -> bool:
        shift = _layout(len(self.variables)).degree_shift
        return len({m >> shift for m in self._terms}) <= 1

    def derivative(self, var: Union[int, str]) -> "Polynomial":
        """Return the partial derivative with respect to one variable."""
        idx = self.variables.index(var) if isinstance(var, str) else var
        lay = _layout(len(self.variables))
        s, unit = lay.shifts[idx], lay.units[idx]
        terms = {m - unit: c * (m >> s & _LIMIT) for m, c in self._terms.items() if m >> s & _LIMIT}
        return Polynomial._of_clean(self.variables, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, variables={self.variables})"

    def __str__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return render_terms(items, self.variables, "*")


class PolyIdeal:
    """An ideal given by a nonempty generator list over common variables."""

    __slots__ = ("variables", "generators")

    def __init__(self, generators: Iterable[Polynomial]):
        gens = tuple(generators)
        if not gens:
            raise ValueError("an ideal needs at least one generator")
        variables = gens[0].variables
        for g in gens[1:]:
            if g.variables != variables:
                raise VariableMismatchError("ideal generators use different variable lists")
        self.variables = variables
        self.generators = gens

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyIdeal)
            and self.variables == other.variables
            and self.generators == other.generators
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(g) for g in self.generators)
        return f"PolyIdeal({inner})"


def jacobian_ideal(f: Polynomial) -> PolyIdeal:
    """Return the ideal of all partial derivatives of ``f``."""
    if f.is_constant():
        raise ValueError("the Jacobian ideal of a constant is not defined")
    return PolyIdeal(tuple(f.derivative(i) for i in range(len(f.variables))))


# Parsing.  Tokens are single-character operators, unsigned integer
# literals of ASCII digits, and identifiers; whitespace separates tokens
# but is never required.

_OPERATORS = "+-*/^"
_Token = tuple[str, str, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    # Literals longer than Python's int-string limit are refused here,
    # in the parser's words.
    limit = sys.get_int_max_str_digits()
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if limit and j - i > limit:
                raise PolyParseError(f"an integer with more than {limit} digits", i)
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "()":
            raise PolyParseError("parentheses are not supported: expand products first", i)
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _read_term(tokens: list[_Token], start: int, units: dict[str, int]) -> tuple[int, Fraction, int]:
    """Read the unsigned term at ``tokens[start]``: an optional rational
    coefficient, then ``*``-separated variable powers.  Return its packed
    monomial, its coefficient and the index of the token after it."""
    coeff = Fraction(1)
    monomial = 0
    i = start
    while True:
        kind, text, pos = tokens[i]
        i += 1
        if kind == "int" and i == start + 1:
            coeff = Fraction(int(text))
            if tokens[i][0] == "/":
                kind, text, pos = tokens[i + 1]
                if kind != "int":
                    raise PolyParseError("expected an integer denominator", pos)
                denominator = int(text)
                if denominator <= 0:
                    raise PolyParseError("denominator must be a positive integer", pos)
                coeff /= denominator
                i += 2
        elif kind != "name":
            raise PolyParseError("expected a variable", pos)
        elif text not in units:
            raise PolyParseError(f"unknown variable {text!r}", pos)
        else:
            name, power = text, 1
            if tokens[i][0] == "^":
                kind, text, pos = tokens[i + 1]
                if kind == "-":
                    raise PolyParseError("negative exponent", pos)
                if kind != "int":
                    raise PolyParseError("expected a positive integer exponent", pos)
                power = int(text)
                if power <= 0:
                    raise PolyParseError("exponent must be a positive integer", pos)
                i += 2
            monomial += power * units[name]
        kind, _, pos = tokens[i]
        if kind != "*":
            if kind in ("name", "int"):
                raise PolyParseError("implicit multiplication is not allowed", pos)
            return monomial, coeff, i
        i += 1


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse polynomial text over the given variables: the grammar and
    the limit are checked, and the terms are summed into one map, wrapped once."""
    variables = tuple(variables)
    lay = _layout(len(variables))
    units = dict(zip(variables, lay.units))
    if len(units) != len(variables):
        repeated = next(name for name in variables if variables.count(name) > 1)
        raise PolyParseError(f"variable {repeated!r} is listed more than once", None)
    tokens = _tokenize(text)
    terms: dict[int, Fraction] = {}
    i = 0
    while True:
        sign, _, pos = tokens[i]
        if sign in "+-":
            i += 1
        elif i:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        m, coeff, i = _read_term(tokens, i, units)
        # A field past the limit carries only up, into the degree field on top.
        if m >> lay.degree_shift > _LIMIT:
            raise ValueError(_TOO_BIG)
        acc = terms.get(m, 0) + (-coeff if sign == "-" else coeff)
        if acc:
            terms[m] = acc
        else:
            terms.pop(m, None)
        if tokens[i][0] == "end":
            return Polynomial._of_clean(variables, terms)
