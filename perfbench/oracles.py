"""Reference answers for the benchmark, kept independent of the code they
check.

Hilbert functions are obtained by counting classes, never by Groebner bases
or F_p linear algebra of the package:

* a point set parameterized by y^{v_1}, ..., y^{v_s} over F_q has
  H_X(d) = #{V a mod (q-1) : |a| = d}, because distinct characters of the
  torus are linearly independent;
* a dimension-1 lattice ideal I(D) with D inside {sum a = 0} has
  H(d) = #{a mod D : |a| = d}, because I(D) is spanned by the binomials
  t^u - t^v with u - v in D.

Both counts are sumsets S_d = S_{d-1} + {steps}; they stop growing exactly
when the Hilbert function reaches its constant value, which gives the degree
(the constant) and the regularity (the first d that reaches it).  The naive
F_p rank below cross-checks the character count on small point sets.
"""

from __future__ import annotations

import itertools


class OracleError(Exception):
    """Two independent reference computations disagree."""


def sumset_table(steps, reduce):
    """[|S_0|, |S_1|, ...] up to the first d where |S_d| = |S_{d+1}|."""
    steps = [tuple(s) for s in steps]
    cur = {reduce(tuple(0 for _ in steps[0]))}
    table = [1]
    while True:
        nxt = {reduce(tuple(a + b for a, b in zip(u, w))) for u in cur for w in steps}
        if len(nxt) == len(cur):
            return table
        cur = nxt
        table.append(len(cur))


def character_table(vs, q: int) -> list[int]:
    """Hilbert function of the points parameterized by y^{v_1}, ..., y^{v_s}
    over F_q, from degree 0 to the regularity."""
    m = q - 1
    return sumset_table(
        [tuple(x % m for x in v) for v in vs], lambda u: tuple(x % m for x in u)
    )


def _hnf(rows):
    """Row-style Hermite form (pivots positive, entries above pivots reduced)."""
    A = [list(r) for r in rows if any(r)]
    n = len(A[0]) if A else 0
    out = []
    col = 0
    while A and col < n:
        nz = [r for r in A if r[col]]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            for r in nz[1:]:
                f = r[col] // p[col]
                for k in range(n):
                    r[k] -= f * p[k]
            nz = [r for r in nz if r[col]]
        p = nz[0]
        if p[col] < 0:
            p[:] = [-x for x in p]
        A = [r for r in A if r is not p and any(r)]
        out.append(p)
        col += 1
    for i, p in enumerate(out):
        c = next(k for k, x in enumerate(p) if x)
        for r in out[:i]:
            f = r[c] // p[c]
            if f:
                for k in range(n):
                    r[k] -= f * p[k]
    return out


def lattice_class_table(gens) -> list[int]:
    """Hilbert function of S/I(D), D spanned by gens (inside sum a = 0), from
    degree 0 to the regularity, by counting degree-d classes mod D."""
    basis = _hnf(gens)
    pivots = [(next(k for k, x in enumerate(r) if x), r) for r in basis]
    s = len(gens[0])

    def reduce(a):
        a = list(a)
        for c, r in pivots:
            f = a[c] // r[c]
            if f:
                a = [x - f * y for x, y in zip(a, r)]
        return tuple(a)

    steps = [tuple(1 if k == i else 0 for k in range(s)) for i in range(s)]
    return sumset_table(steps, reduce)


def reg_deg(table):
    """(regularity, degree) of a table that ends where it stabilizes."""
    return len(table) - 1, table[-1]


def extend(table, dmax):
    """Table H(0..dmax), continuing the constant value."""
    return (table + [table[-1]] * (dmax + 1))[: dmax + 1]


def parameterized_points(vs, q):
    """Normalized projective points {[x^{v_1} : ... : x^{v_s}]} over F_q."""
    n = len(vs[0])
    pts = set()
    for x in itertools.product(range(1, q), repeat=n):
        coords = []
        for v in vs:
            c = 1
            for xj, e in zip(x, v):
                c = c * pow(xj, e, q) % q
            coords.append(c)
        inv = pow(coords[-1], q - 2, q)
        pts.add(tuple(c * inv % q for c in coords))
    return sorted(pts)


def naive_rank(points, p, d):
    """Rank over F_p of the (degree-d monomials) x (points) evaluation matrix."""
    s = len(points[0])
    rows = []
    for mono in itertools.product(range(d + 1), repeat=s):
        if sum(mono) != d:
            continue
        row = []
        for pt in points:
            val = 1
            for x, e in zip(pt, mono):
                val = val * pow(x, e, p) % p
            row.append(val)
        rows.append(row)
    rank = 0
    for c in range(len(points)):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


NAIVE_RANK_MAX_POINTS = 64


def point_table(vs, q):
    """Character-count table of the points; on sets of at most
    NAIVE_RANK_MAX_POINTS points it must also equal the naive F_q rank."""
    table = character_table(vs, q)
    if table[-1] <= NAIVE_RANK_MAX_POINTS:
        pts = parameterized_points(vs, q)
        if len(pts) != table[-1]:
            raise OracleError(f"oracle disagreement: |X| = {len(pts)} != {table[-1]}")
        naive = [naive_rank(pts, q, d) for d in range(len(table) + 1)]
        if naive != extend(table, len(table)):
            raise OracleError(f"oracle disagreement: naive rank {naive} != {table}")
    return table
