"""Closed-form regularity and degree formulas: monomial curves, degree
transfer for dimension-1 lattice ideals, degenerate tori over prime fields,
prescribed-regularity construction, and block additivity."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import (
    BudgetExceededError,
    InternalError,
    InvalidArgumentError,
    UnsupportedFieldError,
)
from .intlat import Lattice, is_homogeneous, is_prime, torsion_order
from .numsgp import NumericalSemigroup, frobenius_number
from .ring_core import Grading

# candidates q = k m + 1 that prescribe_regularity tests before it gives up;
# is_prime is cheap at any size, so the count is capped and not q
_PRIME_CANDIDATE_BUDGET = 10**6


def curve_spec(exponents) -> Grading:
    """The monomial curve t_i |-> y^{d_i}, given by its exponents d_i."""
    return Grading(tuple(int(d) for d in exponents))


def mcurve_regularity(d: Grading) -> int:
    """reg of the homogenized monomial-curve ideal:
    r * g(S) + 1 + sum (d_i - 1), S generated by the d_i / r, r = gcd d_i."""
    if d.num_vars < 2:
        raise InvalidArgumentError("monomial curve needs at least two exponents")
    S, r = NumericalSemigroup(d.weights).reduced()
    return r * frobenius_number(S) + 1 + sum(w - 1 for w in d.weights)


def mcurve_degree(d: Grading) -> int:
    """deg of the homogenized monomial-curve ideal: d_1 ... d_s / r."""
    if d.num_vars < 2:
        raise InvalidArgumentError("monomial curve needs at least two exponents")
    return prod(d.weights) // d.r


def degree_transfer(d: Grading, deg_weighted: int) -> int:
    """Degree of the homogenized ideal from the weighted degree:
    (d_1 ... d_s / max d_i) * deg(S/I), for dimension-1 graded lattice ideals."""
    if deg_weighted < 1:
        raise InvalidArgumentError("degree must be positive")
    return (prod(d.weights) // max(d.weights)) * deg_weighted


def lattice_degree_dim1(L: Lattice, d: Grading) -> int:
    """deg(S/I(L)) = (max d_i / r) * |T(Z^s/L)| for homogeneous L of rank s-1."""
    if not is_homogeneous(L, d):
        raise InvalidArgumentError("lattice is not homogeneous for the grading")
    if L.rank != L.ambient_dim - 1:
        raise InvalidArgumentError("degree formula needs rank s-1")
    return (max(d.weights) // d.r) * torsion_order(L)


class TorusInvariants(NamedTuple):
    reg: int
    deg: int


@dataclass(frozen=True)
class TorusSpec:
    """A degenerate projective torus of type v over F_q (q prime)."""

    q: int
    v: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        if any(x < 1 for x in self.v):
            raise InvalidArgumentError("torus type entries must be positive")
        if not is_prime(self.q):
            raise UnsupportedFieldError(f"{self.q} is not prime")

    @property
    def derived_weights(self) -> Grading:
        """d_i = (q-1) / gcd(v_i, q-1); each divides q-1."""
        return Grading(tuple((self.q - 1) // gcd(x, self.q - 1) for x in self.v))


def degenerate_torus_invariants(spec: TorusSpec) -> TorusInvariants:
    """Regularity and degree of the vanishing ideal of a degenerate torus,
    via the monomial-curve formulas on the derived exponents."""
    d = spec.derived_weights
    return TorusInvariants(mcurve_regularity(d), mcurve_degree(d))


def prescribe_regularity(d: Grading) -> TorusSpec:
    """Smallest prime q = 1 (mod lcm(d_i)), q >= 3, and v_i = (q-1)/d_i, so the
    degenerate torus over F_q realizes exactly the invariants of d.  Raises
    BudgetExceededError when none of the first _PRIME_CANDIDATE_BUDGET
    candidates k lcm(d_i) + 1 is prime."""
    m = reduce(lcm, d.weights)
    for k in range(1, _PRIME_CANDIDATE_BUDGET + 1):
        q = k * m + 1
        if q >= 3 and is_prime(q):
            spec = TorusSpec(q, tuple((q - 1) // w for w in d.weights))
            if spec.derived_weights != d:
                raise InternalError("prescribed type failed to round-trip")
            return spec
    raise BudgetExceededError(
        f"no admissible prime among the first {_PRIME_CANDIDATE_BUDGET} candidates"
    )


def additive_regularity(reg_parts, ell: int) -> int:
    """Sum of block regularities plus the cross-term (c-1)(ell-1)."""
    parts = list(reg_parts)
    if not parts:
        raise InvalidArgumentError("need at least one part")
    if ell < 1:
        raise InvalidArgumentError("ell must be a positive integer")
    return sum(parts) + (len(parts) - 1) * (ell - 1)
