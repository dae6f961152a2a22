"""Point sets over prime fields: monomially parameterized sets, Hilbert
functions and regularity, and subgroup classification.

A set X parameterized by y^{v_1}, ..., y^{v_s} is a subgroup of the
projective torus, and on it a degree-d monomial t^a is the character
x |-> x^{V a} of (F_p^*)^n.  Distinct characters are linearly independent
(Dedekind), so H_X(d) is the number of residues V a mod (p-1) with |a| = d.
``parameterized_hilbert_table`` and ``vanishing_ideal_table`` read the
table, and I(X) with it, off the one route that ``binomial_gb`` picks
under one budget: the breadth-first walk over packed characters, with no
point enumerated and no linear algebra, or past it the Hilbert series of
the colon J : t_s^infty.

Arbitrary point sets get their Hilbert function as an evaluation rank over
F_p, in exact Python integers, so any prime p is handled.  Projective points
are normalized so the last nonzero coordinate is 1, making set semantics
canonical.  Instead of building the full (monomials x points) matrix, the
degree-d evaluation space is grown as V_d = sum_i x_i * V_{d-1}, which spans
exactly the image of the degree-d forms and gives the same rank.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .binomial_gb import BinomialIdeal, _vanishing_ideal
from .errors import (
    BudgetExceededError,
    DimensionError,
    InternalError,
    InvalidArgumentError,
    UnsupportedFieldError,
)
from .hilbert import monomial_hilbert, reg_cm
from .intlat import Matrix, is_prime, subgroup_mod
from .ring_core import exponent_vectors, standard_grading


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise UnsupportedFieldError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)


def normalize_point(field: PrimeField, coords) -> tuple[int, ...]:
    """Scale so the last nonzero coordinate is 1."""
    c = tuple(x % field.p for x in coords)
    last = next((i for i in range(len(c) - 1, -1, -1) if c[i] != 0), None)
    if last is None:
        raise InvalidArgumentError("projective point needs a nonzero coordinate")
    u = field.inv(c[last])
    return tuple((x * u) % field.p for x in c)


@dataclass(frozen=True)
class PointSet:
    """Deduplicated normalized points of P^{s-1} over a prime field."""

    field: PrimeField
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        pts = sorted(set(self.points))
        if not pts:
            raise InvalidArgumentError("empty point set")
        if len({len(p) for p in pts}) != 1:
            raise DimensionError("points have different coordinate counts")
        object.__setattr__(self, "points", tuple(pts))

    @property
    def num_coords(self) -> int:
        return len(self.points[0])

    def __len__(self):
        return len(self.points)


def point_set(field: PrimeField, coords_iterable) -> PointSet:
    return PointSet(field, tuple(normalize_point(field, c) for c in coords_iterable))


def _parameterization(field: PrimeField, vs) -> list[tuple[int, ...]]:
    """The checked exponent vectors of a set parameterized over field."""
    if field.p < 3:
        raise UnsupportedFieldError("parameterized sets need p >= 3")
    return exponent_vectors(vs)


# parameter tuples enumerate_parameterized walks before it gives up: over
# 20x the 6^6 of K33 at q = 7
_ENUMERATION_BUDGET = 1_000_000


def enumerate_parameterized(field: PrimeField, vs) -> PointSet:
    """{[x^{v_1} : ... : x^{v_s}] : x in (F_p^*)^n}.

    Walks all (p-1)^n parameter tuples; raises BudgetExceededError instead
    when there are more than _ENUMERATION_BUDGET.
    """
    vs = _parameterization(field, vs)
    p = field.p
    n = len(vs[0])
    if (p - 1) ** n > _ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration needs more than {_ENUMERATION_BUDGET} parameter tuples"
        )
    # x^e for all units x and exponents appearing in vs
    pw = {x: {e: pow(x, e, p) for e in {e for v in vs for e in v}} for x in range(1, p)}
    pts = set()
    for x in itertools.product(range(1, p), repeat=n):
        coords = tuple(
            _prod_mod((pw[x[j]][v[j]] for j in range(n)), p) for v in vs
        )
        pts.add(normalize_point(field, coords))
    return PointSet(field, tuple(pts))


def _hilbert_route(field: PrimeField, vs):
    """H_X(0), ..., H_X(reg) and a function of no arguments that gives I(X),
    for X parameterized by y^{v_1}, ..., y^{v_s}, off the route that
    ``binomial_gb._vanishing_ideal`` picks.

    Within the walk budget the table comes off the walk over the characters
    of X.  Past it, I(X) is the colon J : t_s^infty and no character is
    counted: |X| can be huge where the ideal is small.  S/I(X) is
    Cohen-Macaulay of dimension 1, so reg is read off the Hilbert series of
    its leads, and the table is that series expanded to reg.  The colon
    raises BudgetExceededError when its degree bound (s-1)(p-1) passes the
    numerator budget, or its lattice kernel the work budget.
    """
    vs = _parameterization(field, vs)
    table, ideal = _vanishing_ideal(vs, field.p)
    if table is None:
        F = monomial_hilbert([g.plus for g in ideal().gens], standard_grading(len(vs)))
        table = F.expand(reg_cm(F, len(vs) - 1))
    return table, ideal


def parameterized_hilbert_table(field: PrimeField, vs) -> list[int]:
    """H_X(0), ..., H_X(reg) for X parameterized by y^{v_1}, ..., y^{v_s}.

    H_X(d) counts the distinct characters x |-> x^{V a} of the torus
    (F_p^*)^n over |a| = d, i.e. the residues V a mod (p-1), and no point is
    enumerated.  Layer d of the walk holds the classes first reached in d
    steps u_i = v_i - v_s, the table stops at reg, the first d whose next
    layer is empty, i.e. with H_X(d) = H_X(d+1), and its last entry is |X|.
    Past the walk budget it is read off the colon (``_hilbert_route``), and
    no binomial of I(X) is built on the walk.
    """
    return _hilbert_route(field, vs)[0]


def vanishing_ideal_table(field: PrimeField, vs) -> tuple[BinomialIdeal, list[int]]:
    """I(X) and its Hilbert table H_X(0), ..., H_X(reg), whose last entry
    is |X|, for X parameterized by y^{v_1}, ..., y^{v_s}, off one route
    (``_hilbert_route``)."""
    table, ideal = _hilbert_route(field, vs)
    return ideal(), table


def _prod_mod(factors, p):
    out = 1
    for f in factors:
        out = out * f % p
    return out


def degenerate_torus_vectors(v) -> list[tuple[int, ...]]:
    """v_i e_i for each entry of the type v: each v_i on its own parameter."""
    v = tuple(int(x) for x in v)
    if any(x < 1 for x in v):
        raise InvalidArgumentError("torus type entries must be positive")
    s = len(v)
    return [tuple(v[i] if j == i else 0 for j in range(s)) for i in range(s)]


def enumerate_degenerate_torus(field: PrimeField, v) -> PointSet:
    """{[x_1^{v_1} : ... : x_s^{v_s}]}: the parameterized set with each v_i on
    its own parameter."""
    return enumerate_parameterized(field, degenerate_torus_vectors(v))


def _extend_basis(basis: dict[int, list[int]], rows, p: int) -> None:
    """Add rows to a row echelon basis over F_p, kept as pivot column -> row
    with 1 at its pivot and 0 before it.  A new row is reduced against the
    pivots in ascending order, which clears it at every pivot column."""
    for row in rows:
        for c in sorted(basis):
            f = row[c]
            if f:  # basis[c] is zero before column c
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], basis[c][c:])]
        k = next((k for k, x in enumerate(row) if x), None)
        if k is None:
            continue
        u = pow(row[k], p - 2, p)
        row[k:] = [x * u % p for x in row[k:]]
        basis[k] = row


def _evaluation_chain(X: PointSet):
    """Yield (d, H_X(d)) for d = 0, 1, 2, ...: the size of a basis of V_d,
    the evaluations of degree-d forms on X.  Each degree rebuilds the basis
    of V_{d+1} = sum_i x_i V_d from x_i * row for every basis row of V_d."""
    p = X.field.p
    coords = list(zip(*X.points))
    basis = {0: [1] * len(X)}
    d = 0
    while True:
        yield d, len(basis)
        rows = list(basis.values())
        basis = {}
        _extend_basis(
            basis, ([x * y % p for x, y in zip(row, col)] for col in coords for row in rows), p
        )
        d += 1


def hilbert_function_points(X: PointSet, d: int) -> int:
    """H_{I(X)}(d): the rank over F_p of the evaluation of degree-d monomials
    at the points.  Monotone nondecreasing in d and bounded by |X|."""
    if d < 0:
        raise InvalidArgumentError("degree must be nonnegative")
    for k, rank in _evaluation_chain(X):
        if k == d:
            return rank


def hilbert_table_points(X: PointSet, dmax: int) -> list[int]:
    out = []
    for k, rank in _evaluation_chain(X):
        if k > dmax:
            return out
        out.append(rank)


def regularity_points(X: PointSet) -> int:
    """Least d with H_X(d) = |X|; the regularity of the vanishing ideal
    (Cohen-Macaulay of dimension 1, so regularity = index of regularity)."""
    m = len(X)
    for d, rank in _evaluation_chain(X):
        if rank == m:
            return d
        # Hilbert functions of points strictly increase until |X|
        if d > m + 1:
            raise InternalError("evaluation rank failed to reach |X|")


def _root_of_unity(p: int, m: int) -> int:
    """A generator of mu_m, the m-th roots of unity in F_p^*, for m | p-1:
    the first b^{(p-1)/m}, b = 1, 2, ..., of order m.  Only m is factored,
    in m steps, which the table of logs in mu_m takes anyway."""
    factors = [f for f in range(2, m + 1) if m % f == 0 and is_prime(f)]
    for b in range(1, p):
        g = pow(b, (p - 1) // m, p)
        if all(pow(g, m // f, p) != 1 for f in factors):
            return g


def _log_lattice(X: PointSet) -> tuple[Matrix, int] | None:
    """The Hermite basis of the log lattice of X and m = gcd(|X|, p-1), or
    None when X is not a subgroup of the torus.

    Every coordinate x of a subgroup has x^{|X|} = 1 (Lagrange), so it lies
    in the cyclic group mu_m; a zero coordinate fails this.  Taking logs to
    a generator of mu_m, the normalized points (x_1, ..., x_n, 1), n = s-1,
    are distinct vectors of (Z/m)^n, and together with m Z^n they span a
    lattice L whose image L / m Z^n is the group that X generates.  That
    group has m^n / prod(pivots of L) elements (``subgroup_mod``),
    so X is a subgroup iff it has |X| of them.
    """
    p, size = X.field.p, len(X)
    m = gcd(size, p - 1)
    if any(pow(x, size, p) != 1 for pt in X.points for x in pt):
        return None
    g = _root_of_unity(p, m)
    log = {pow(g, k, p): k for k in range(m)}
    n = X.num_coords - 1
    logs = [tuple(log[x] for x in pt[:n]) for pt in X.points]
    basis, order = subgroup_mod(m, logs, n)
    if order != size:
        return None
    return basis, m


def is_subgroup_of_torus(X: PointSet) -> bool:
    """True iff all coordinates are nonzero and X is closed under
    componentwise products, decided by the size of the group X generates
    in its log lattice (``_log_lattice``); no product is formed."""
    return _log_lattice(X) is not None


def subgroup_to_monomials(X: PointSet) -> list[tuple[int, ...]]:
    """Exponent vectors parameterizing the subgroup X, read off the Hermite
    basis of its log lattice: at most max(1, s-1) parameters, and canonical
    for X.

    With m = gcd(|X|, p-1) and c = (p-1)/m, L / m Z^n = X for the lattice
    L of logs to a generator g of mu_m (``_log_lattice``), n = s-1.  For the rows h_1, ..., h_r of
    L's Hermite basis that are not 0 mod m, set v_i = c (h_1[i], ..., h_r[i])
    for i <= n and v_s = 0.  As y_j runs over F_p^*, y_j^c runs over all of
    mu_m, say as g^{k_j}, so the point at y has logs sum_j k_j h_j, and these
    run over all of L mod m.  The result is what logs to a primitive root of
    F_p^* give, since those are c times the logs in mu_m and the Hermite
    basis of c L is c times that of L.  A zero entry is written p-1 (the
    same value on units, and it keeps every vector nonzero); the trivial
    group gets one parameter.
    """
    found = _log_lattice(X)
    if found is None:
        raise InvalidArgumentError("point set is not a subgroup of the torus")
    basis, m = found
    p = X.field.p
    c = (p - 1) // m
    n = X.num_coords - 1
    rows = [h for h in basis if any(x % m for x in h)] or [(0,) * n]
    vs = [tuple(c * h[i] or p - 1 for h in rows) for i in range(n)]
    return vs + [(p - 1,) * len(rows)]


def check_vanishing(I: BinomialIdeal, X: PointSet) -> bool:
    """True iff every generator vanishes at every point.

    Generators must be homogeneous under the standard grading so the zero
    test does not depend on the chosen representatives.
    """
    if I.num_vars != X.num_coords:
        raise DimensionError("ideal and point set have different variable counts")
    std = standard_grading(I.num_vars)
    for g in I.gens:
        if not g.is_homogeneous(std):
            raise InvalidArgumentError("generator is not homogeneous")
    p = X.field.p
    for pt in X.points:
        for g in I.gens:
            lhs = _prod_mod((pow(x, e, p) for x, e in zip(pt, g.plus) if e), p)
            rhs = _prod_mod((pow(x, e, p) for x, e in zip(pt, g.minus) if e), p)
            if (lhs - rhs) % p != 0:
                return False
    return True
