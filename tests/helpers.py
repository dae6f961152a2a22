"""Shared test fixtures: random homogeneous lattices, brute-force oracles
kept independent of the code paths they check, and the engine's earlier
algorithms as reference routes."""

import heapq
import itertools
import random
from dataclasses import dataclass

from latreg.errors import DimensionError, InvalidArgumentError
from latreg.intlat import Lattice, as_matrix, is_prime, kernel_lattice
from latreg.ring_core import Binomial, Grading


def det(M) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    A = [list(r) for r in as_matrix(M)]
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


def random_homogeneous_lattice(rng: random.Random, s=None, max_weight=4, max_mix=2):
    """A random rank-(s-1) lattice homogeneous for a random grading.

    Start from the full orthogonal complement of the weight vector and mix its
    basis with a random invertible integer matrix, which varies the torsion.
    """
    if s is None:
        s = rng.randint(2, 4)
    d = tuple(rng.randint(1, max_weight) for _ in range(s))
    full = kernel_lattice([d])
    k = full.rank
    while True:
        T = [[rng.randint(-max_mix, max_mix) for _ in range(k)] for _ in range(k)]
        if det(T) != 0:
            break
    rows = [
        tuple(sum(T[i][j] * full.basis[j][c] for j in range(k)) for c in range(s))
        for i in range(k)
    ]
    return Lattice(s, rows), Grading(d)


def frobenius_oracle(gens):
    """Largest non-representable integer by boolean DP (Schur bound)."""
    gens = sorted(gens)
    bound = (gens[0] - 1) * (gens[-1] - 1) + gens[-1] + 1
    reach = [False] * (bound + 1)
    reach[0] = True
    for i in range(1, bound + 1):
        reach[i] = any(i >= g and reach[i - g] for g in gens)
    return max((i for i in range(bound + 1) if not reach[i]), default=-1)


def monomials_of_degree(s, deg):
    """All exponent vectors in s variables of total degree exactly deg."""
    if s == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in monomials_of_degree(s - 1, deg - first):
            yield (first,) + rest


def monomials_up_to(s, deg):
    for k in range(deg + 1):
        yield from monomials_of_degree(s, k)


def in_kernel(matrix_rows, vec):
    """Independent membership test for ker_Z: literally multiply."""
    return all(sum(a * x for a, x in zip(row, vec)) == 0 for row in matrix_rows)


def naive_point_rank(points, p, d):
    """Rank over F_p of the (monomials of degree d) x (points) matrix, by
    plain fraction-free elimination on small ints; the textbook definition."""
    s = len(points[0])
    rows = []
    for mono in monomials_of_degree(s, d):
        row = []
        for pt in points:
            val = 1
            for x, e in zip(pt, mono):
                if e:
                    val = val * pow(x, e, p) % p
            row.append(val)
        rows.append(row)
    rank = 0
    cols = len(points)
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def product_grid(*ranges):
    return itertools.product(*ranges)


# sums the sumset forms before it gives up, as in the library's own budget
SUMSET_BUDGET = 4_000_000


def sumset_table(field, vs):
    """H_X(0), ..., H_X(reg) for X parameterized by y^{v_1}, ..., y^{v_s}, as
    the sizes of the character sumsets S_d = S_{d-1} + {v_i mod (p-1)},
    rebuilt level by level on tuples until a level adds nothing.  Raises
    BudgetExceededError once sum_d |S_d| |steps| would pass SUMSET_BUDGET."""
    from latreg.errors import BudgetExceededError
    from latreg.ffvanish import _parameterization

    vs = _parameterization(field, vs)
    m = field.p - 1
    steps = {tuple(e % m for e in v) for v in vs}
    level = {(0,) * len(vs[0])}
    table = [1]
    formed = 0
    while True:
        formed += len(level) * len(steps)
        if formed > SUMSET_BUDGET:
            raise BudgetExceededError(
                f"character sumset needs more than {SUMSET_BUDGET} sums"
            )
        level_next = {
            tuple((a + b) % m for a, b in zip(u, w)) for u in level for w in steps
        }
        if len(level_next) == len(level):
            return table
        level = level_next
        table.append(len(level))


def closed_under_products(X):
    """Subgroup test on a PointSet by brute force: every coordinate is
    nonzero, so every normalized point ends in 1, and every product of two
    points lies in X (a finite nonempty subset of a group closed under
    products is a subgroup).  Forms all |X|^2 products."""
    p = X.field.p
    if any(x == 0 for pt in X.points for x in pt):
        return False
    pts = set(X.points)
    return all(tuple(x * y % p for x, y in zip(a, b)) in pts for a in pts for b in pts)


def primitive_root_parameterization(X):
    """Exponent vectors of the subgroup X from logs to the least primitive
    root b of F_p^*, tabulated over all p-1 powers: the Hermite rows of
    span(logs) + (p-1) Z^n that are not 0 mod p-1, one parameter each, with
    a zero entry written p-1 and the all-(p-1) vector last."""
    p = X.field.p
    primes = [f for f in range(2, p) if (p - 1) % f == 0 and is_prime(f)]
    b = next(b for b in range(1, p) if all(pow(b, (p - 1) // f, p) > 1 for f in primes))
    log = {pow(b, k, p): k for k in range(p - 1)}
    n = X.num_coords - 1
    logs = [tuple(log[x] for x in pt[:n]) for pt in X.points]
    torus = [tuple(p - 1 if j == i else 0 for j in range(n)) for i in range(n)]
    rows = [h for h in Lattice(n, logs + torus).basis if any(x % (p - 1) for x in h)]
    rows = rows or [(0,) * n]
    vs = [tuple(h[i] or p - 1 for h in rows) for i in range(n)]
    return vs + [(p - 1,) * len(rows)]


# ---------------------------------------------------------------------------
# monomial orders the library does not offer, written out term by term: the
# engine takes any object with ``weights``, ``key`` and ``degree``


def grevlex_key(a, weights):
    """Weighted grevlex sort key: the degree, then the entries reversed and
    negated, so within a degree t^b > t^a iff the last nonzero entry of
    b - a is negative."""
    return (sum(x * w for x, w in zip(a, weights)),) + tuple(-x for x in reversed(a))


@dataclass(frozen=True)
class GrevlexLast:
    """Weighted grevlex with t_last compared in the cheapest position, the
    order that saturation by t_last needs, without moving any coordinate."""

    weights: tuple[int, ...]
    last: int

    def degree(self, a):
        return sum(x * w for x, w in zip(a, self.weights))

    def key(self, a):
        i, w = self.last, self.weights
        return grevlex_key(a[:i] + a[i + 1 :] + (a[i],), w[:i] + w[i + 1 :] + (w[i],))


@dataclass(frozen=True)
class BlockOrder:
    """Block order eliminating the first ``block`` variables: weighted
    grevlex on the first block, ties broken by weighted grevlex on the rest.
    Any monomial involving an eliminated variable beats any monomial that
    does not, so basis elements free of the first block generate the
    elimination ideal."""

    block: int
    weights: tuple[int, ...]

    def __post_init__(self):
        if not 0 < self.block < len(self.weights):
            raise InvalidArgumentError("elimination block must be a proper prefix")

    def degree(self, a):
        return sum(x * w for x, w in zip(a, self.weights))

    def key(self, a):
        k, w = self.block, self.weights
        return (grevlex_key(a[:k], w[:k]), grevlex_key(a[k:], w[k:]))


def eliminate(G, keep):
    """Project a Groebner basis under a block order to K[keep].

    ``keep`` must be exactly the non-eliminated block of the order.
    """
    from latreg.binomial_gb import BinomialIdeal

    keep = sorted(keep)
    if not isinstance(G.order, BlockOrder) or keep != list(
        range(G.order.block, G.num_vars)
    ):
        raise InvalidArgumentError("order does not eliminate the complement of keep")
    k = G.order.block
    gens = []
    for g in G.elements:
        if all(x == 0 for x in g.plus[:k]) and all(x == 0 for x in g.minus[:k]):
            gens.append(Binomial(g.plus[k:], g.minus[k:]))
    return BinomialIdeal(G.num_vars - k, tuple(gens))


# ---------------------------------------------------------------------------
# reference routes: the engine's earlier, slower algorithms, so the current
# ones can be checked against them on seeded inputs


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def orient(order, u, v):
    """(lead, tail) of t^u - t^v under order; None when u == v."""
    if u == v:
        return None
    return (u, v) if order.key(u) > order.key(v) else (v, u)


def _ref_reduce_term(u, basis):
    while True:
        for lead, tail in basis:
            if _ref_divides(lead, u):
                if tail is None:
                    return None
                u = tuple(x - a + b for x, a, b in zip(u, lead, tail))
                break
        else:
            return u


def _ref_normal_form(order, elem, basis):
    u = _ref_reduce_term(elem[0], basis)
    v = elem[1] if elem[1] is None else _ref_reduce_term(elem[1], basis)
    if u is None and v is None:
        return None
    if u is None:
        return (v, None)
    if v is None:
        return (u, None)
    return orient(order, u, v)


def reference_buchberger(elems, order):
    """Reduced basis of (lead, tail) elements (tail None for a monomial) by
    Buchberger's algorithm with the coprime criterion only: every other
    S-pair is reduced."""
    G = []
    pairs = []

    def push_pairs(j):
        for i in range(j):
            if G[i][1] is None and G[j][1] is None:
                continue
            lcm = tuple(max(a, b) for a, b in zip(G[i][0], G[j][0]))
            if lcm == tuple(a + b for a, b in zip(G[i][0], G[j][0])):
                continue
            heapq.heappush(pairs, (order.degree(lcm), order.key(lcm), i, j))

    def add(elem):
        nf = _ref_normal_form(order, elem, G)
        if nf is not None:
            G.append(nf)
            push_pairs(len(G) - 1)

    for e in sorted((e for e in elems if e is not None), key=lambda e: order.key(e[0])):
        add(e)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        (a, b), (c, d) = G[i], G[j]
        lcm = tuple(max(x, y) for x, y in zip(a, c))
        u = None if b is None else tuple(l - x + y for l, x, y in zip(lcm, a, b))
        v = None if d is None else tuple(l - x + y for l, x, y in zip(lcm, c, d))
        if u == v:
            continue
        if u is None or (v is not None and order.key(u) < order.key(v)):
            u, v = v, u
        add((u, v))
    G.sort(key=lambda e: order.key(e[0]))
    minimal = []
    for e in G:
        if not any(_ref_divides(f[0], e[0]) for f in minimal):
            minimal.append(e)
    return tuple(
        (lead, tail if tail is None else _ref_reduce_term(tail, minimal))
        for lead, tail in minimal
    )


def _fixpoint_basis(gens, order):
    from latreg.binomial_gb import BinomialIdeal, buchberger

    G = buchberger(BinomialIdeal(len(order.weights), tuple(gens)), order)
    return tuple((g.plus, g.minus) for g in G.elements)


def fixpoint_saturate_variable(gens, grading, i):
    """Generators of (gens : t_i^infty) by repeated basis-and-divide under
    grevlex with t_i last, until no element is divisible by t_i."""
    order = GrevlexLast(grading.weights, i)
    while True:
        changed = False
        stripped = []
        for lead, tail in _fixpoint_basis(gens, order):
            k = min(lead[i], tail[i])
            if k > 0:
                changed = True
                lead = lead[:i] + (lead[i] - k,) + lead[i + 1 :]
                tail = tail[:i] + (tail[i] - k,) + tail[i + 1 :]
            stripped.append(Binomial(lead, tail))
        gens = tuple(stripped)
        if not changed:
            return gens


def fixpoint_saturate_all(gens, grading):
    """Generators of (gens : (t_1...t_s)^infty): sweep the variable
    saturations until the canonical grevlex basis stops changing."""
    from latreg.ring_core import MonomialOrder

    order = MonomialOrder.grevlex(grading)
    snapshot = _fixpoint_basis(gens, order)
    while True:
        for i in range(grading.num_vars):
            gens = fixpoint_saturate_variable(gens, grading, i)
        after = _fixpoint_basis(gens, order)
        if after == snapshot:
            return tuple(Binomial(lead, tail) for lead, tail in after)
        snapshot = after


def elimination_vanishing_ideal(vs, q):
    """Generators of I(X), X parameterized by y^{v_i} over F_q, by
    eliminating y and z from ({t_i - y^{v_i} z} U {y_j^{q-1} - 1}), then
    re-reducing in K[t] under grevlex."""
    from latreg.binomial_gb import BinomialIdeal, buchberger
    from latreg.ring_core import MonomialOrder, standard_grading

    s, n = len(vs), len(vs[0])
    total = n + 1 + s  # variable layout: y_1..y_n, z, t_1..t_s
    gens = []
    for i, v in enumerate(vs):
        plus = tuple(1 if j == n + 1 + i else 0 for j in range(total))
        gens.append(Binomial(plus, tuple(v) + (1,) + (0,) * s))
    for j in range(n):
        plus = tuple(q - 1 if k == j else 0 for k in range(total))
        gens.append(Binomial(plus, (0,) * total))
    order = BlockOrder(n + 1, (1,) * total)
    J = eliminate(buchberger(BinomialIdeal(total, tuple(gens)), order), range(n + 1, total))
    return buchberger(J, MonomialOrder.grevlex(standard_grading(s))).elements


def curve_pipeline(d):
    """(reg, deg) of the homogenized monomial curve of exponents d by the
    general route: kernel lattice -> homogenize -> lattice ideal ->
    Groebner -> Hilbert -> regularity and degree."""
    from latreg.binomial_gb import lattice_ideal_generators
    from latreg.hilbert import degree_dim1_standard, hilbert_table, ideal_hilbert, reg_cm
    from latreg.intlat import homogenize_lattice
    from latreg.ring_core import MonomialOrder, standard_grading

    s = len(d)
    L = kernel_lattice([d])
    D = homogenize_lattice(L, Grading(d))
    std = standard_grading(s)
    I = lattice_ideal_generators(D, std)
    F = ideal_hilbert(I, MonomialOrder.grevlex(std), std)
    return reg_cm(F, s - 1), degree_dim1_standard(hilbert_table(F))


def vanishing_lattice_rows(vs, q):
    """A basis of L = {a : sum a_i = 0, V a = 0 mod (q-1)}, V the matrix with
    columns v_i: the projection of a kernel basis, as
    ``vanishing_ideal_finite_field`` builds it."""
    s, n = len(vs), len(vs[0])
    rows = [(1,) * s + (0,) * n]
    for j in range(n):
        rows.append(
            tuple(v[j] for v in vs) + tuple(q - 1 if k == j else 0 for k in range(n))
        )
    return [row[:s] for row in kernel_lattice(rows).basis]


def saturated_lattice_vanishing_ideal(vs, q):
    """Generators of I(X) as I(L), L = {a : sum a_i = 0, V a = 0 mod (q-1)},
    by saturating the lattice-basis binomials by every variable in turn."""
    from latreg.binomial_gb import lattice_ideal_generators
    from latreg.ring_core import standard_grading

    L = Lattice(len(vs), vanishing_lattice_rows(vs, q))
    return lattice_ideal_generators(L, standard_grading(len(vs))).gens


def smallest_pivot_numerator(gens, d):
    """Hilbert numerator of S/(gens) by the recursion
    N(M) = N(M') - t^deg(m) N(M' : m), m the generator of least weighted
    degree and M' the ideal of the others."""

    def minimalize(gs):
        out = []
        for g in sorted(set(gs)):
            if not any(_ref_divides(h, g) for h in out):
                out.append(g)
        return tuple(out)

    def deg(g):
        return sum(x * w for x, w in zip(g, d.weights))

    def one_minus(k):
        return [1] + [0] * (k - 1) + [-1]

    def num(gs):
        if not gs:
            return [1]
        if any(not any(g) for g in gs):
            return [0]
        if len(gs) == 1:
            return one_minus(deg(gs[0]))
        k = min(range(len(gs)), key=lambda i: (deg(gs[i]), i))
        m = gs[k]
        rest = gs[:k] + gs[k + 1 :]
        colon = minimalize(tuple(max(x - y, 0) for x, y in zip(g, m)) for g in rest)
        a = num(rest)
        b = [0] * deg(m) + num(colon)
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] += c
        for i, c in enumerate(b):
            out[i] -= c
        return out

    out = num(minimalize(tuple(g) for g in gens))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)
