"""Buchberger engine specialized to pure-difference binomial ideals.

S-polynomials and reductions of pure differences are implemented directly on
exponent vectors, so no coefficient arithmetic ever happens and every result
is simultaneously correct over all fields (char 2 included).  Internally an
element is an oriented pair ``(lead, tail)``; ``tail is None`` denotes a bare
monomial, which only arises when monomial generators are supplied explicitly
(``initial_ideal_with_monomials``) -- with binomial-only input the engine
stays closed inside pure differences, and checks it.

Useless S-pairs are skipped by the Gebauer-Moeller chain criterion, applied
to the pairs of each new element only, and saturation by a variable takes a
single Groebner basis (Bayer-Stillman), so
``lattice_ideal_generators`` costs one basis per variable.

The vanishing ideal of a set X parameterized by monomials over F_q needs no
basis at all when X is small enough: ``_vanishing_ideal``, the one place
that picks its route, reads its reduced basis and its Hilbert table off one
breadth-first walk over the characters of X, packed into ints (``_walk``),
the walk that also gives the point side its Hilbert table.  Past the walk
budget it costs one basis: adding the powers t_i^{q-1} - t_s^{q-1} reduces
its saturation to one variable, and the degree bound (s-1)(q-1) of that
colon is checked before it is built.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd, lcm
from operator import itemgetter, le

from .errors import (
    BudgetExceededError,
    DimensionError,
    InternalError,
    InvalidArgumentError,
    UnsupportedFieldError,
    UnsupportedInputError,
)
from .intlat import Lattice, is_homogeneous, is_prime, kernel_lattice, subgroup_mod
from .ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    exponent_vectors,
    split_parts,
    standard_grading,
)


@dataclass(frozen=True)
class BinomialIdeal:
    """An ideal generated by pure-difference binomials.

    Zero binomials are dropped by the constructor.  When a grading is
    attached, every generator must be homogeneous for it.
    """

    num_vars: int
    gens: tuple[Binomial, ...]
    grading: Grading | None = None

    def __post_init__(self):
        gens = tuple(g for g in self.gens if not g.is_zero())
        for g in gens:
            if g.num_vars != self.num_vars:
                raise DimensionError("generator does not match variable count")
        if self.grading is not None:
            if self.grading.num_vars != self.num_vars:
                raise DimensionError("grading does not match variable count")
            for g in gens:
                if not g.is_homogeneous(self.grading):
                    raise InvalidArgumentError(
                        "generator is not homogeneous for the attached grading"
                    )
        object.__setattr__(self, "gens", gens)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis; each element is oriented with its leading
    exponent in ``plus``.  Unique for (ideal, order)."""

    order: MonomialOrder
    num_vars: int
    elements: tuple[Binomial, ...]


# ---------------------------------------------------------------------------
# engine internals: elements are (lead, tail) with tail None for monomials.
# Each basis list travels with a parallel list of support bitmasks of its
# leads: t^a can divide t^u only when supp(a) lies inside supp(u), a cheap
# integer test that skips most tuple scans.


def _divides(a, b):
    return all(map(le, a, b))


def _mask(u):
    m = 0
    for k, x in enumerate(u):
        if x:
            m |= 1 << k
    return m


def _orient(order, u, v):
    """Make (lead, tail) from two monomials; None for the zero element."""
    if u == v:
        return None
    if order.key(u) > order.key(v):
        return (u, v)
    return (v, u)


# work one _buchberger_elems call may do before it gives up: one unit per
# basis element a pass of _reduce_term scans, and _UPDATE_COST per earlier
# element at each new element, whose pair and chain-criterion step takes
# about fifty times as long as one scan (a least-squares fit over the calls
# of the tests and benchmark jobs that took over 20 ms).  Over 8x the 18M
# units of I(X) for C8 at q = 7, over 60x the most of any test or benchmark
# job, and above the 128M units (13-15 s) of vanish --q 1009 --monomials
# '[[2,0],[0,3],[1,1],[1,2]]' --ideal, so that input answers; at q = 10007
# the same input gives up after 12-13 s
_WORK_BUDGET = 150_000_000
_UPDATE_COST = 50


def _reduce_term(u, basis, masks, work):
    """Normal form of the monomial t^u modulo basis; None when it reduces to 0.

    The first element whose lead divides t^u divides it k = min over
    supp(lead) of u_i // lead_i times in a row: after j < k steps every
    coordinate of u in supp(lead) is still at least lead_i.  So the k steps
    are one subtraction u - k (lead - tail).  Each pass over the basis adds
    len(basis) to work[0], and BudgetExceededError is raised once that
    passes _WORK_BUDGET.
    """
    while True:
        work[0] += len(basis)
        if work[0] > _WORK_BUDGET:
            raise BudgetExceededError(
                f"Groebner basis computation passes {_WORK_BUDGET} units of work"
            )
        um = _mask(u)
        for (lead, tail), m in zip(basis, masks):
            if not m & ~um and _divides(lead, u):
                if tail is None:
                    return None
                k = min(x // a for x, a in zip(u, lead) if a)
                u = tuple(x + k * (b - a) for x, a, b in zip(u, lead, tail))
                break
        else:
            return u


def _normal_form_elem(order, elem, basis, masks, work=None):
    """Normal form of the element; work counts as in _reduce_term, from 0
    when None."""
    work = [0] if work is None else work
    u = _reduce_term(elem[0], basis, masks, work)
    v = elem[1] if elem[1] is None else _reduce_term(elem[1], basis, masks, work)
    if u is None and v is None:
        return None
    if u is None:
        return (v, None)
    if v is None:
        return (u, None)
    return _orient(order, u, v)


def _spoly(f, g):
    lcm = tuple(map(max, f[0], g[0]))
    u = None if f[1] is None else tuple(l - a + b for l, a, b in zip(lcm, f[0], f[1]))
    v = None if g[1] is None else tuple(l - a + b for l, a, b in zip(lcm, g[0], g[1]))
    return u, v


def _buchberger_elems(elems, order):
    """Canonical reduced basis of (lead, tail) elements.

    Normal selection strategy (smallest lcm degree first).  Each new element
    pairs with every earlier one, and the chain criterion of Gebauer and
    Moeller runs on these new pairs only; pairs already pending are never
    rescanned, and the final _reduce_basis drops the elements whose lead
    another lead divides.  Each surviving remainder is fully reduced, so its
    lead strictly enlarges the initial ideal and termination follows from
    Dickson's lemma.  The reductions and pair updates of one call share one
    _WORK_BUDGET, so an input whose basis is slow to reach raises
    BudgetExceededError.
    """
    G: list = []
    masks: list = []
    work = [0]  # against _WORK_BUDGET
    pairs: list = []  # heap of (lcm degree, lcm key, i, j)

    def add(elem):
        h = len(G)
        lead_h, tail_h = elem
        mask_h = _mask(lead_h)
        work[0] += _UPDATE_COST * h  # checked by the next reduction
        # chain criterion on the new pairs.  A pair with a zero S-polynomial
        # (coprime leads, or two monomials) is never reduced but still
        # witnesses the pairs whose lcm its own lcm divides; sorting puts
        # divisors first and, among equal lcms, the zero pairs first
        new = []
        for i, ((lead_i, tail_i), mask_i) in enumerate(zip(G, masks)):
            lcm = tuple(map(max, lead_i, lead_h))
            zero = (tail_i is None and tail_h is None) or not mask_i & mask_h
            new.append((order.degree(lcm), not zero, lcm, mask_i | mask_h, i))
        new.sort(key=itemgetter(0, 1))
        witnesses: list = []
        for deg, nonzero, lcm, lm, i in new:
            if nonzero and any(
                not wm & ~lm and _divides(w, lcm) for w, wm in witnesses
            ):
                continue
            witnesses.append((lcm, lm))
            if nonzero:
                heapq.heappush(pairs, (deg, order.key(lcm), i, h))
        G.append(elem)
        masks.append(mask_h)

    seed = [e for e in elems if e is not None]
    seed.sort(key=lambda e: order.key(e[0]))
    for e in seed:
        nf = _normal_form_elem(order, e, G, masks, work)
        if nf is not None:
            add(nf)

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        s = _spoly(G[i], G[j])
        if s[0] == s[1]:
            continue
        if s[0] is None or (s[1] is not None and order.key(s[0]) < order.key(s[1])):
            s = (s[1], s[0])
        nf = _normal_form_elem(order, s, G, masks, work)
        if nf is not None:
            add(nf)

    return _reduce_basis(G, order, work)


def _reduce_basis(G, order, work):
    """The reduced basis of a Groebner basis G of (lead, tail) elements.

    Drops the elements whose lead another lead divides, then reduces the
    tails.  Normal forms modulo a Groebner basis are unique, so the result
    is the canonical reduced basis, sorted by lead.
    """
    G = sorted(G, key=lambda e: order.key(e[0]))
    minimal: list = []
    masks: list = []
    for e in G:
        m = _mask(e[0])
        if not any(
            not fm & ~m and _divides(f[0], e[0]) for f, fm in zip(minimal, masks)
        ):
            minimal.append(e)
            masks.append(m)
    reduced = []
    for lead, tail in minimal:
        if tail is not None:
            tail = _reduce_term(tail, minimal, masks, work)
        reduced.append((lead, tail))
    return tuple(reduced)


def _to_elems(gens, order):
    return [_orient(order, g.plus, g.minus) for g in gens]


def _check_pure(elems):
    if any(tail is None for _, tail in elems):
        raise InternalError("binomial input produced a non-binomial basis element")


def _masks(elems):
    return [_mask(lead) for lead, _ in elems]


# ---------------------------------------------------------------------------
# public operations


def buchberger(I: BinomialIdeal, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of a pure-difference binomial ideal."""
    if order.weights is not None and len(order.weights) != I.num_vars:
        raise DimensionError("order does not match variable count")
    elems = _buchberger_elems(_to_elems(I.gens, order), order)
    _check_pure(elems)
    masks = _masks(elems)
    for g in I.gens:
        if _normal_form_elem(order, (g.plus, g.minus), elems, masks) is not None:
            raise InternalError(
                "input generator does not reduce to zero against the basis"
            )
    return GroebnerBasis(
        order, I.num_vars, tuple(Binomial(lead, tail) for lead, tail in elems)
    )


def normal_form(f: Binomial, G: GroebnerBasis) -> Binomial | None:
    """Remainder of f on division by G; None when f lies in the ideal."""
    if f.num_vars != G.num_vars:
        raise DimensionError("binomial does not match basis variable count")
    elems = [(g.plus, g.minus) for g in G.elements]
    nf = _normal_form_elem(G.order, (f.plus, f.minus), elems, _masks(elems))
    if nf is None:
        return None
    if nf[1] is None:
        raise InternalError("binomial reduced to a monomial modulo a binomial basis")
    return Binomial(nf[0], nf[1])


def initial_ideal(G: GroebnerBasis) -> tuple[tuple[int, ...], ...]:
    """Minimal monomial generators of in(I): the leading exponents of G."""
    return tuple(g.plus for g in G.elements)


def ideal_equal(I: BinomialIdeal, J: BinomialIdeal, order: MonomialOrder) -> bool:
    """True iff the reduced Groebner bases coincide."""
    if I.num_vars != J.num_vars:
        raise DimensionError("ideals live in different rings")
    return buchberger(I, order).elements == buchberger(J, order).elements


def saturate_variable(I: BinomialIdeal, i: int) -> BinomialIdeal:
    """(I : t_i^infty) for a graded ideal; i is a 0-based variable index.

    Bayer-Stillman: under weighted grevlex with t_i cheapest, t_i divides a
    basis element of a homogeneous ideal as soon as it divides its lead, so
    dividing every element of one Groebner basis by its largest t_i power
    gives a Groebner basis of the saturation.  t_i is made cheapest by
    moving its coordinate last and running the plain weighted grevlex; the
    generators are the reduced basis under that order, moved back.
    """
    if I.grading is None:
        raise InvalidArgumentError("saturation requires a graded ideal")
    s = I.num_vars
    if not 0 <= i < s:
        raise InvalidArgumentError("variable index out of range")
    if i == s - 1:
        to_last = from_last = tuple
    else:  # s >= 2 here, so itemgetter returns tuples
        to_last = itemgetter(*range(i), *range(i + 1, s), i)
        from_last = itemgetter(*range(i), s - 1, *range(i, s - 1))
    order = MonomialOrder.grevlex(Grading(to_last(I.grading.weights)))
    elems = _buchberger_elems(
        [_orient(order, to_last(g.plus), to_last(g.minus)) for g in I.gens], order
    )
    _check_pure(elems)
    stripped = []
    for lead, tail in elems:
        k = min(lead[-1], tail[-1])
        if k > 0:
            lead = lead[:-1] + (lead[-1] - k,)
            tail = tail[:-1] + (tail[-1] - k,)
        stripped.append((lead, tail))
    gens = tuple(
        Binomial(from_last(lead), from_last(tail))
        for lead, tail in _reduce_basis(stripped, order, [0])
    )
    return BinomialIdeal(s, gens, I.grading)


def saturate_all(I: BinomialIdeal) -> BinomialIdeal:
    """(I : (t_1 ... t_s)^infty), by saturating each variable in turn.

    (I : (t_1 t_2)^infty) = ((I : t_1^infty) : t_2^infty), so one sweep
    suffices.  The generators are the reduced basis under the canonical
    weighted grevlex order: the last pass puts t_s last, which is already
    that order.
    """
    if I.grading is None:
        raise InvalidArgumentError("saturation requires a graded ideal")
    J = I
    for i in range(I.num_vars):
        J = saturate_variable(J, i)
    return J


def is_lattice_ideal(I: BinomialIdeal) -> bool:
    """Computable restatement of the non-zero-divisor criterion: I is a
    lattice ideal iff it equals its saturation by all the variables.  The
    saturation's generators are already its reduced basis under the weighted
    grevlex order, so only I's basis is computed."""
    if I.grading is None:
        raise InvalidArgumentError("lattice-ideal test requires a graded ideal")
    gens = saturate_all(I).gens
    return buchberger(I, MonomialOrder.grevlex(I.grading)).elements == gens


def lattice_ideal_generators(L: Lattice, grading: Grading) -> BinomialIdeal:
    """Generators of the lattice ideal I(L) for a homogeneous lattice.

    Starts from the binomials of a lattice basis and saturates by all the
    variables.
    """
    if not is_homogeneous(L, grading):
        raise UnsupportedInputError("lattice is not homogeneous for the grading")
    gens = []
    for row in L.basis:
        plus, minus = split_parts(row)
        gens.append(Binomial(plus, minus))
    return saturate_all(BinomialIdeal(L.ambient_dim, tuple(gens), grading))


def homogenize_binomials(bins, d: Grading) -> list[Binomial]:
    """Exponent scaling a |-> (d_i a_i) sending each d-homogeneous binomial to
    a standard-homogeneous one."""
    out = []
    for b in bins:
        if not b.is_homogeneous(d):
            raise InvalidArgumentError("binomial is not homogeneous for the grading")
        out.append(
            Binomial(
                tuple(x * w for x, w in zip(b.plus, d.weights)),
                tuple(x * w for x, w in zip(b.minus, d.weights)),
            )
        )
    return out


def is_complete_intersection(L: Lattice, bins, grading: Grading) -> bool:
    """True iff the candidate set generates I(L) and has rank(L) elements.

    Height of I(L) equals rank(L), so the count plus the ideal equality is
    exactly the complete-intersection certificate.  The generators of I(L)
    are already its reduced basis under the weighted grevlex order.
    """
    bins = tuple(b for b in bins if not b.is_zero())
    if len(bins) != L.rank:
        return False
    candidate = BinomialIdeal(L.ambient_dim, bins, grading)
    gens = lattice_ideal_generators(L, grading).gens
    return buchberger(candidate, MonomialOrder.grevlex(grading)).elements == gens


def toric_ideal_monomial_map(vs, homogenize_with_z: bool) -> BinomialIdeal:
    """Toric ideal of t_i |-> y^{v_i} (times z when homogenize_with_z).

    Computed as the lattice ideal of ker_Z(A) where A's columns are the v_i,
    with a row of ones appended for z.  The grading is standard with z and
    the total degrees |v_i| otherwise.
    """
    vs = [tuple(int(x) for x in v) for v in vs]
    if not vs or len({len(v) for v in vs}) != 1:
        raise InvalidArgumentError("need exponent vectors of one common length")
    if any(x < 0 for v in vs for x in v):
        raise InvalidArgumentError("exponent vectors must be nonnegative")
    s = len(vs)
    n = len(vs[0])
    rows = [tuple(v[j] for v in vs) for j in range(n)]
    if homogenize_with_z:
        rows.append((1,) * s)
        grading = standard_grading(s)
    else:
        if any(sum(v) == 0 for v in vs):
            raise InvalidArgumentError(
                "zero exponent vector has no positive degree; use homogenize_with_z"
            )
        grading = Grading(tuple(sum(v) for v in vs))
    return lattice_ideal_generators(kernel_lattice(rows), grading)


def _short_row(a, m):
    """A vector of sum 0 congruent to a (of sum 0) modulo the m(e_i - e_s):
    each entry but the last is the residue mod m, or that minus m, whichever
    keeps the running sum nearer 0, and the last entry restores sum 0."""
    out = []
    total = 0
    for x in a[:-1]:
        r = x % m
        if abs(total + r - m) < abs(total + r):
            r -= m
        out.append(r)
        total += r
    out.append(-total)
    return out


# work the walk over the characters of X may take before _vanishing_ideal
# takes the colon J : t_s^infty instead: its
# (s-1)|X| steps, each charged one unit per 64-bit word of a packed
# character or monomial.  Above the 589,824 of C10 at q = 5 (0.2 s).  The
# costliest walk within it moves one class per layer: the cyclic X of
# vanish --q 599999 --monomials '[[1],[2]]' --ideal takes 1.7-1.9 s and
# peaks at 99 MB in-process on a 2-core host
_WALK_BUDGET = 600_000


def _walk(vs, q, budget):
    """Breadth-first walk over the characters of X: the Hilbert table, the
    t_s-free standard monomials and the minimal generators of in(I(X)).

    With m = q-1 and the steps u_i = v_i - v_s mod m, i < s, the monomial
    t^a in t_1, ..., t_{s-1} is the character sum a_i u_i of X (its class),
    and distinct classes are linearly independent on X.  t_s is a
    nonzerodivisor and comes last in grevlex, so no lead of the reduced
    basis of I(X) contains it (Bayer-Stillman), and the standard monomials
    of degree d are the t_s^{d-e} r for the t_s-free standard monomials r
    of degree e <= d: one per class first reached in e steps, the
    grevlex-least of degree e in it (its representative).  Layer d holds
    the classes first reached in d steps, so H_X(d) counts the classes of
    layers 0..d, and the walk stops after the first layer that reaches no
    new class, d = reg + 1, past which no minimal generator lies.

    A representative r is expanded by the steps i >= max supp(r) only, so
    each monomial M is formed at most once, from M / t_i, i = max supp(M).
    The standard monomials form an order ideal, so each of them is formed,
    and every class is reached.  Of the monomials formed in layer d, the
    grevlex-least in a new class is its representative; any other M is a
    minimal generator of in(I(X)) iff each M / t_j, j in supp(M), j != i,
    is the representative of its class y - u_j in layer d-1, y the class
    of M.  The steps are not deduplicated: a zero or repeated step gives
    t_i - t_s or t_i - t_j.

    Characters are residues mod m in n coordinates, packed into one int
    with k+1 bits per coordinate, 2^k > 2m - 1: a coordinate sum of two
    residues stays below 2^k, and after adding 2^k - m its guard bit 2^k
    is set exactly when the sum needs m subtracted.  A monomial in t_1,
    ..., t_{s-1} is packed with t_1 in the lowest field; its exponents stay
    at most m, since t_i^m - t_s^m lies in I(X).  Among monomials of one
    degree the larger int is then the smaller in grevlex.

    Each layer is charged s-1 steps per class it expands, w units each,
    one per 64-bit word of a packed character: w = ceil((k+1) n / 64).
    |X| is at least the order lcm_j m / gcd(u_j, m) of any step, so the
    walk returns None before its first layer when s-1 times that order
    times w passes budget, and otherwise once the units charged would.
    Else it returns the table H_X(0), ..., H_X(reg), whose last entry is
    |X|, the dict of class -> packed representative, and the list of
    (packed minimal generator, its class).
    """
    m, s, n = q - 1, len(vs), len(vs[0])
    steps = [[(a - b) % m for a, b in zip(v, vs[-1])] for v in vs[:-1]]
    k = (2 * m - 1).bit_length()
    shifts = range(0, (k + 1) * n, k + 1)
    C = sum(((1 << k) - m) << f for f in shifts)
    H = sum(1 << (k + f) for f in shifts)
    up = [sum(x << f for x, f in zip(u, shifts)) for u in steps]
    down = [sum((-x % m) << f for x, f in zip(u, shifts)) for u in steps]
    words = -(-(k + 1) * n // 64)
    order = max((lcm(*(m // gcd(x, m) for x in u)) for u in steps), default=1)
    if (s - 1) * order * words > budget:
        return None
    w = m.bit_length()
    mask = (1 << w) - 1
    ones = [1 << (w * i) for i in range(s - 1)]
    reps = {0: 0}  # class -> packed representative
    frontier = reps  # the classes of the last layer
    table = [1]
    leads = []  # (packed minimal generator, its class)

    def add_if_lead(M, y):
        i = (M.bit_length() - 1) // w
        for j in range(i):
            if (M >> (w * j)) & mask:
                t = y + down[j]
                if frontier.get(t - (((t + C) & H) >> k) * m) != M - ones[j]:
                    return
        leads.append((M, y))

    spent = 0
    while True:
        spent += (s - 1) * len(frontier) * words
        if spent > budget:
            return None
        new = {}
        for c, r in frontier.items():
            for i in range((r.bit_length() - 1) // w if r else 0, s - 1):
                t = c + up[i]
                y = t - (((t + C) & H) >> k) * m
                M = r + ones[i]
                if y not in reps:
                    if y not in new:
                        new[y] = M
                        continue
                    new[y], M = max(M, new[y]), min(M, new[y])
                add_if_lead(M, y)
        if not new:
            return table, reps, leads
        reps.update(new)
        frontier = new
        table.append(len(reps))


def _vanishing_ideal(vs, q):
    """I(X) and, when it comes off ``_walk``, the Hilbert table H_X(0),
    ..., H_X(reg), else None: the one place that picks the route to I(X).

    The walk is taken unless its (s-1)|X| steps, each charged per 64-bit
    word of a packed character or monomial, would pass _WALK_BUDGET; |X| =
    m^n / prod(pivots) comes from ``subgroup_mod`` before the walk
    starts.  Past it, I(X) is the colon of ``_colon_ideal``.  Either way the
    generators are its reduced basis under the standard grevlex order, lead
    first and sorted by lead, as ``saturate_variable`` gives them: off the
    walk, each minimal generator M of in(I(X)) in class c, found in layer
    d, has tail rep(c) t_s^{d - deg rep(c)}.
    """
    m, s, n = q - 1, len(vs), len(vs[0])
    steps = [tuple(a - b for a, b in zip(v, vs[-1])) for v in vs[:-1]]
    w = m.bit_length()
    bits = ((2 * m - 1).bit_length() + 1) * n
    words = -(-max(bits, (s - 1) * w) // 64)
    size = subgroup_mod(m, steps, n)[1]
    # _walk charges at most (s-1)|X| words: None only past this check
    walk = (s - 1) * size * words <= _WALK_BUDGET and _walk(vs, q, _WALK_BUDGET)
    if not walk:
        return _colon_ideal(vs, q), None
    table, reps, leads = walk

    def unpack(M):
        return tuple((M >> (w * i)) & ((1 << w) - 1) for i in range(s - 1))

    grading = standard_grading(s)
    order = MonomialOrder.grevlex(grading)
    gens = []
    for M, y in leads:
        lead, rep = unpack(M), unpack(reps[y])
        gens.append(Binomial(lead + (0,), rep + (sum(lead) - sum(rep),)))
    gens.sort(key=lambda g: order.key(g.plus))
    return BinomialIdeal(s, tuple(gens), grading), table


def vanishing_ideal_finite_field(vs, q: int) -> BinomialIdeal:
    """Vanishing ideal I(X) of the set parameterized by y^{v_1},...,y^{v_s}
    over the prime field F_q.

    I(X) is the lattice ideal I(L) of L = {a : sum a_i = 0, V a = 0 mod
    (q-1)}, V the matrix with columns v_i (Renteria-Simis-Villarreal), so
    the result is a graded lattice ideal of dimension 1.  Its generators
    are the reduced basis under the standard grevlex order, which depends
    on the ideal alone.  ``_vanishing_ideal`` reads them off one walk over
    the characters of X within the walk budget, with no Groebner basis
    computed, and past it takes the colon of ``_colon_ideal``, which has a
    degree budget.
    """
    if not is_prime(q):
        raise UnsupportedFieldError(f"{q} is not prime")
    return _vanishing_ideal(exponent_vectors(vs), q)[0]


# degree bound on a Hilbert numerator, checked before it is built: by
# `latreg hilbert` on lcm(in(I)), by _colon_ideal on (s-1)(q-1) >= deg
# lcm(in(I(X))).  It also bounds the printed H line (4e6 values in ~3.5 s)
_NUMERATOR_DEGREE_BUDGET = 4_000_000


def _colon_ideal(vs, q):
    """I(X) as the colon J : t_s^infty, for X past the walk budget, as when
    |X| is huge but the ideal small.

    L is the projection onto the first s coordinates of ker [[1...1 | 0],
    [V | (q-1) I_n]]; the projection is injective, so it maps a basis to a
    basis.  Let J be generated by t_i^{q-1} - t_s^{q-1} for i < s, all in
    I(L) since (q-1)(e_i - e_s) lies in L, and by the binomials of the
    basis rows reduced modulo these vectors (``_short_row``).  The reduced
    rows and the (q-1)(e_i - e_s) still generate L, and their binomials
    have degree at most about s(q-1)/2, where a raw basis row can be far
    longer.  So I(L) = J : (t_1...t_s)^infty, and modulo J every t_i^{q-1}
    equals t_s^{q-1}, so (t_1...t_s)^N f in J gives t_s^{sN(q-1)} f in J:
    I(X) = J : t_s^infty, one saturation by one variable.

    t_s divides no lead of I(X), which holds t_i^{q-1} - t_s^{q-1}, so deg
    lcm(in(I(X))) <= (s-1)(q-1); past _NUMERATOR_DEGREE_BUDGET, where the
    saturation can run for minutes before _WORK_BUDGET trips, that bound
    raises BudgetExceededError before J is built.
    """
    s, n = len(vs), len(vs[0])
    if (s - 1) * (q - 1) > _NUMERATOR_DEGREE_BUDGET:
        raise BudgetExceededError(
            "vanishing ideal degree bound (s-1)(q-1) passes "
            f"{_NUMERATOR_DEGREE_BUDGET}"
        )
    rows = [(1,) * s + (0,) * n]
    for j in range(n):
        rows.append(
            tuple(v[j] for v in vs) + tuple(q - 1 if k == j else 0 for k in range(n))
        )
    K = kernel_lattice(rows)
    gens = [Binomial(*split_parts(_short_row(row[:s], q - 1))) for row in K.basis]
    top = tuple(q - 1 if k == s - 1 else 0 for k in range(s))
    for i in range(s - 1):
        gens.append(Binomial(tuple(q - 1 if k == i else 0 for k in range(s)), top))
    return saturate_variable(BinomialIdeal(s, tuple(gens), standard_grading(s)), s - 1)


def initial_ideal_with_monomials(
    binomials, monomials, order: MonomialOrder, num_vars: int
) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of in(I + M) for binomial I and monomial gens M.

    The engine handles single monomials as tail-less elements; the basis of a
    binomial-plus-monomial ideal again consists of binomials and monomials.
    """
    elems = _to_elems(binomials, order)
    elems += [(tuple(m), None) for m in monomials]
    basis = _buchberger_elems(elems, order)
    return tuple(lead for lead, _ in basis)
