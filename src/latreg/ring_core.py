"""Weighted polynomial-ring bookkeeping: gradings, exponent vectors,
pure-difference binomials, and monomial orders.

Exponent vectors are plain tuples of nonnegative ints; signed lattice vectors
are plain tuples of ints.  A binomial t^a - t^b is a pair of exponent vectors;
coefficients never appear anywhere, which keeps every computation valid over
all fields at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from math import gcd
from operator import mul, neg

from .errors import DimensionError, InvalidArgumentError, ParseError


@dataclass(frozen=True)
class Grading:
    """Variable weights (d_1, ..., d_s) inducing deg(t_i) = d_i."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.weights, tuple):
            object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.weights) == 0:
            raise InvalidArgumentError("grading needs at least one weight")
        if any(not isinstance(w, int) or w < 1 for w in self.weights):
            raise InvalidArgumentError("weights must be positive integers")

    @property
    def num_vars(self) -> int:
        return len(self.weights)

    @property
    def r(self) -> int:
        """gcd(d_1, ..., d_s)."""
        return reduce(gcd, self.weights)

    @property
    def total(self) -> int:
        return sum(self.weights)


def standard_grading(s: int) -> Grading:
    return Grading((1,) * s)


def weighted_degree(a, d: Grading) -> int:
    """Sum a_i * d_i."""
    if len(a) != d.num_vars:
        raise DimensionError(f"vector length {len(a)} != grading length {d.num_vars}")
    return sum(x * w for x, w in zip(a, d.weights))


def split_parts(c):
    """Split an integer vector into c = c+ - c- with disjoint supports."""
    plus = tuple(x if x > 0 else 0 for x in c)
    minus = tuple(-x if x < 0 else 0 for x in c)
    return plus, minus


def exponent_vectors(vs) -> list[tuple[int, ...]]:
    """The exponent vectors y^{v_1}, ..., y^{v_s} of a monomial
    parameterization as int tuples: nonzero, nonnegative, one common
    length."""
    vs = [tuple(int(e) for e in v) for v in vs]
    if not vs or len({len(v) for v in vs}) != 1:
        raise InvalidArgumentError("need exponent vectors of one common length")
    if any(e < 0 for v in vs for e in v) or any(all(e == 0 for e in v) for v in vs):
        raise InvalidArgumentError("exponent vectors must be nonzero and nonnegative")
    return vs


class Binomial:
    """A pure difference t^plus - t^minus.

    The zero binomial is any instance with plus == minus.  Equality and
    hashing treat t^a - t^b and t^b - t^a as the same object (the sign is
    immaterial for every ideal-theoretic use in this package).
    """

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        plus = tuple(plus)
        minus = tuple(minus)
        if len(plus) != len(minus):
            raise DimensionError("binomial sides have different lengths")
        for x in plus + minus:
            if not isinstance(x, int) or x < 0:
                raise InvalidArgumentError("exponents must be nonnegative integers")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, *a):
        raise AttributeError("Binomial is immutable")

    @property
    def num_vars(self) -> int:
        return len(self.plus)

    def is_zero(self) -> bool:
        return self.plus == self.minus

    def is_canonical(self) -> bool:
        """True when the two sides have disjoint support (or the binomial is zero)."""
        if self.is_zero():
            return True
        return all(p == 0 or m == 0 for p, m in zip(self.plus, self.minus))

    def canonical(self) -> "Binomial":
        """Strip the common monomial factor, leaving disjoint supports.

        Note this divides the binomial by a monomial, so it does not in
        general represent the same element of an ideal's generating set.
        """
        if self.is_zero():
            z = (0,) * self.num_vars
            return Binomial(z, z)
        common = tuple(min(p, m) for p, m in zip(self.plus, self.minus))
        return Binomial(
            tuple(p - c for p, c in zip(self.plus, common)),
            tuple(m - c for m, c in zip(self.minus, common)),
        )

    def is_homogeneous(self, d: Grading) -> bool:
        return weighted_degree(self.plus, d) == weighted_degree(self.minus, d)

    def __eq__(self, other):
        if not isinstance(other, Binomial):
            return NotImplemented
        return {self.plus, self.minus} == {other.plus, other.minus}

    def __hash__(self):
        return hash(frozenset((self.plus, self.minus)))

    def __repr__(self):
        return f"Binomial({render_binomial(self)!r})"


LESS, EQUAL, GREATER = -1, 0, 1


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on exponent vectors, one of the two the CLI offers.

    kinds:
      * ``grevlex`` -- weighted graded reverse lexicographic order for the
        given weights, t_1 > ... > t_s within a degree.
      * ``lex`` -- lexicographic, t_1 > ... > t_s; ``weights`` is None.

    ``key`` and ``degree`` do not check the length of their vectors;
    ``buchberger`` and ``compare`` check it where an order meets outside
    input.  Saturation needs grevlex with some t_i cheapest: it permutes
    the coordinates so that t_i comes last (``saturate_variable``).
    """

    kind: str
    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise InvalidArgumentError(f"unknown order kind {self.kind!r}")

    @staticmethod
    def grevlex(weights: Grading) -> "MonomialOrder":
        return MonomialOrder("grevlex", weights.weights)

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder("lex")

    def degree(self, a) -> int:
        """Degree used by the S-pair selection strategy."""
        if self.weights is None:
            return sum(a)
        return sum(map(mul, a, self.weights))

    def key(self, a) -> tuple:
        """Sort key: key(a) < key(b) iff t^a < t^b in this order."""
        if self.kind == "lex":
            return tuple(a)
        # In grevlex, within one degree class t^b > t^a iff the last nonzero
        # entry of b - a is negative; reversing and negating turns that into
        # ordinary tuple comparison.
        return (sum(map(mul, a, self.weights)), *map(neg, reversed(a)))


def compare(order: MonomialOrder, a, b) -> int:
    """Compare t^a with t^b: -1 (less), 0 (equal), or 1 (greater)."""
    if len(a) != len(b):
        raise DimensionError("exponent vectors have different lengths")
    if order.weights is not None and len(a) != len(order.weights):
        raise DimensionError("exponent vector does not match order")
    ka, kb = order.key(tuple(a)), order.key(tuple(b))
    if ka < kb:
        return LESS
    if ka > kb:
        return GREATER
    return EQUAL


_TERM_RE = re.compile(r"^t(\d+)(?:\^(\d+))?$")


def _parse_side(text: str, num_vars: int, where: str):
    if text == "1":
        return (0,) * num_vars
    exps = [0] * num_vars
    for term in text.split("*"):
        m = _TERM_RE.match(term)
        if not m:
            raise ParseError(f"{where}: bad term {term!r}")
        idx = int(m.group(1))
        if not 1 <= idx <= num_vars:
            raise ParseError(f"{where}: variable t{idx} out of range 1..{num_vars}")
        exps[idx - 1] += int(m.group(2)) if m.group(2) else 1
    return tuple(exps)


def parse_binomial(text: str, num_vars: int) -> Binomial:
    """Parse ``"t1^3 - t2^2"`` (optional ``*`` separators, ``1`` for the
    empty monomial, ``0`` for the zero binomial)."""
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError("empty binomial")
    if compact == "0":
        z = (0,) * num_vars
        return Binomial(z, z)
    if "+" in compact:
        raise ParseError(f"only pure differences are accepted: {text!r}")
    sides = compact.split("-")
    if len(sides) != 2 or not sides[0] or not sides[1]:
        raise ParseError(f"expected exactly one '-' between two monomials: {text!r}")
    return Binomial(
        _parse_side(sides[0], num_vars, text),
        _parse_side(sides[1], num_vars, text),
    )


def render_monomial(a) -> str:
    if all(x == 0 for x in a):
        return "1"
    parts = []
    for i, e in enumerate(a):
        if e == 1:
            parts.append(f"t{i + 1}")
        elif e > 1:
            parts.append(f"t{i + 1}^{e}")
    return "*".join(parts)


def render_binomial(b: Binomial) -> str:
    if b.is_zero():
        return "0"
    return f"{render_monomial(b.plus)} - {render_monomial(b.minus)}"


def max_variable_index(text: str) -> int:
    """Largest t<k> index mentioned in a binomial string (0 if none)."""
    return max((int(m) for m in re.findall(r"t(\d+)", text)), default=0)
