"""Numerical semigroups: membership, Apery sets, and Frobenius numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import InternalError, InvalidArgumentError, InvalidSemigroupError


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
    """dist[r] = least element of the monoid congruent to r mod m.

    Round-robin label correction on the cyclic graph of residues; exact and
    fast at desk scale.
    """
    INF = None
    dist = [INF] * m
    dist[0] = 0
    changed = True
    while changed:
        changed = False
        for r in range(m):
            dr = dist[r]
            if dr is None:
                continue
            for g in gens:
                nd = dr + g
                nr = nd % m
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    changed = True
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
