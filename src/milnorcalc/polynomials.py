"""Exact multivariate polynomials over the rationals.

The representation is sparse: a map from exponent tuples to nonzero
Fraction coefficients, over a fixed ordered tuple of variable names.
The zero polynomial is the empty map.  All arithmetic is exact; floats
are rejected.

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

import sys
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction]


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if _is_int(value):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class Polynomial:
    """A sparse polynomial with Fraction coefficients."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exponent, Scalar] = ()):
        self.variables: tuple[str, ...] = tuple(variables)
        nvars = len(self.variables)
        clean: dict[Exponent, Fraction] = {}
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
            clean[exp] = coeff
        self.terms: dict[Exponent, Fraction] = clean

    @classmethod
    def _of_clean(cls, variables: tuple[str, ...], terms: dict[Exponent, Fraction]) -> "Polynomial":
        """Wrap terms that are already clean, without validating them."""
        result = object.__new__(cls)
        result.variables = variables
        result.terms = terms
        return result

    @classmethod
    def zero(cls, variables: Iterable[str]) -> "Polynomial":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Iterable[str], value: Scalar) -> "Polynomial":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Iterable[str], name: str) -> "Polynomial":
        variables = tuple(variables)
        idx = variables.index(name)
        exp = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {exp: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self) -> int:
        """Return the total degree, with -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable lists differ: {self.variables} vs {other.variables}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_compatible(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            acc = out.get(exp, Fraction(0)) + coeff
            if acc:
                out[exp] = acc
            else:
                out.pop(exp, None)
        return Polynomial._of_clean(self.variables, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of_clean(self.variables, {exp: -coeff for exp, coeff in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exp = tuple(a + b for a, b in zip(ea, eb))
                acc = out.get(exp, Fraction(0)) + ca * cb
                if acc:
                    out[exp] = acc
                else:
                    out.pop(exp, None)
        return Polynomial._of_clean(self.variables, out)

    def __rmul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, power: int) -> "Polynomial":
        if power < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.variables, 1)
        for _ in range(power):
            result = result * self
        return result

    def scaled(self, scalar: Scalar) -> "Polynomial":
        scalar = _as_fraction(scalar)
        terms = {exp: coeff * scalar for exp, coeff in self.terms.items()} if scalar else {}
        return Polynomial._of_clean(self.variables, terms)

    def derivative(self, var: Union[int, str]) -> "Polynomial":
        """Return the partial derivative with respect to one variable."""
        idx = self.variables.index(var) if isinstance(var, str) else var
        out: dict[Exponent, Fraction] = {}
        for exp, coeff in self.terms.items():
            e = exp[idx]
            if e == 0:
                continue
            new = exp[:idx] + (e - 1,) + exp[idx + 1 :]
            out[new] = coeff * e
        return Polynomial._of_clean(self.variables, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r}, variables={self.variables})"

    def __str__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
        return render_terms(items, self.variables, "*")


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


def _read_term(tokens: list[_Token], start: int, index: dict[str, int]) -> tuple[Exponent, Fraction, int]:
    """Read the unsigned term at ``tokens[start]``: an optional rational
    coefficient, then ``*``-separated variable powers.  Return its
    exponent, its coefficient and the index of the token after it."""
    coeff = Fraction(1)
    exponents = [0] * len(index)
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
        elif text not in index:
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
            exponents[index[name]] += power
        kind, _, pos = tokens[i]
        if kind != "*":
            if kind in ("name", "int"):
                raise PolyParseError("implicit multiplication is not allowed", pos)
            return tuple(exponents), coeff, i
        i += 1


def parse_polynomial(text: str, variables: Iterable[str]) -> Polynomial:
    """Parse polynomial text over the given variables: only the grammar
    is checked, and the terms are summed into one map, wrapped once."""
    variables = tuple(variables)
    index = {name: i for i, name in enumerate(variables)}
    if len(index) != len(variables):
        repeated = next(name for name in variables if variables.count(name) > 1)
        raise PolyParseError(f"variable {repeated!r} is listed more than once", None)
    tokens = _tokenize(text)
    terms: dict[Exponent, Fraction] = {}
    i = 0
    while True:
        sign, _, pos = tokens[i]
        if sign in "+-":
            i += 1
        elif i:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        exp, coeff, i = _read_term(tokens, i, index)
        acc = terms.get(exp, 0) + (-coeff if sign == "-" else coeff)
        if acc:
            terms[exp] = acc
        else:
            terms.pop(exp, None)
        if tokens[i][0] == "end":
            return Polynomial._of_clean(variables, terms)
