"""Numerical semigroups: membership, Apery sets, and Frobenius numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import (
    BudgetExceededError,
    InternalError,
    InvalidArgumentError,
    InvalidSemigroupError,
)

# steps m * k the table of least elements per residue mod m may take for k
# generators, checked before its m entries are allocated: at the budget the
# table takes 1.5-1.8 s and 120-140 MB, and past it memory grows with m
_APERY_BUDGET = 4_000_000


@dataclass(frozen=True)
class NumericalSemigroup:
    """The additive monoid generated by a set of positive integers."""

    generators: tuple[int, ...]

    def __post_init__(self):
        gens = tuple(sorted(set(int(g) for g in self.generators)))
        if not gens or gens[0] < 1:
            raise InvalidArgumentError("generators must be positive integers")
        object.__setattr__(self, "generators", gens)

    @property
    def gcd(self) -> int:
        return reduce(gcd, self.generators)

    def reduced(self) -> tuple["NumericalSemigroup", int]:
        """Divide out r = gcd(generators); returns (semigroup, r)."""
        r = self.gcd
        return NumericalSemigroup(tuple(g // r for g in self.generators)), r


def _least_per_residue(gens, m):
    """dist[r] = least element of the monoid congruent to r mod m, or None.

    Round robin of Boecker and Liptak: add one generator g at a time.  The
    residues split into gcd(g, m) cycles r, r + g, r + 2g, ... mod m; walk
    each cycle once, from its least known value, relaxing dist[r + g] by
    dist[r] + g.  Nothing in a cycle lies below its start, so one walk
    finishes it, and the whole table costs O(m) per generator.  Raises
    BudgetExceededError when m times the number of generators passes
    _APERY_BUDGET.
    """
    if m * len(gens) > _APERY_BUDGET:
        raise BudgetExceededError(
            f"Apery table of {m} residues and {len(gens)} generators passes "
            f"{_APERY_BUDGET} steps"
        )
    dist = [None] * m
    dist[0] = 0
    for g in gens:
        d = gcd(g, m)
        for p in range(d):
            known = [r for r in range(p, m, d) if dist[r] is not None]
            if not known:
                continue
            r = min(known, key=dist.__getitem__)
            cur = dist[r]
            for _ in range(m // d - 1):
                r = (r + g) % m
                if dist[r] is None or cur + g < dist[r]:
                    dist[r] = cur + g
                cur = dist[r]
    return dist


def membership(S: NumericalSemigroup, n: int) -> bool:
    """True iff n is a nonnegative integer combination of the generators."""
    if n < 0:
        return False
    if n == 0:
        return True
    a = S.generators[0]
    dist = _least_per_residue(S.generators, a)
    d = dist[n % a]
    return d is not None and d <= n


def apery_set(S: NumericalSemigroup, m: int) -> list[int]:
    """Least element of S in each residue class mod m, for m in S."""
    if m < 1 or not membership(S, m):
        raise InvalidArgumentError(f"{m} is not a positive element of the semigroup")
    dist = _least_per_residue(S.generators, m)
    if any(d is None for d in dist):
        raise InternalError("apery set requires gcd 1 reachability")
    return list(dist)


def frobenius_number(S: NumericalSemigroup) -> int:
    """Largest integer not in S; -1 when S = N.

    Undefined (error) when gcd(generators) != 1.
    """
    if S.gcd != 1:
        raise InvalidSemigroupError(
            f"gcd of generators is {S.gcd}, Frobenius number undefined"
        )
    a = S.generators[0]
    dist = _least_per_residue(S.generators, a)
    return max(dist) - a
