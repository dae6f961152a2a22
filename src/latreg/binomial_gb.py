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
``vanishing_ideal_finite_field`` costs one basis: adding the powers
t_i^{q-1} - t_s^{q-1} reduces its saturation to one variable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter, le

from .errors import (
    BudgetExceededError,
    DimensionError,
    InternalError,
    InvalidArgumentError,
    UnsupportedFieldError,
    UnsupportedInputError,
)
from .intlat import Lattice, is_homogeneous, is_prime, kernel_lattice
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


def vanishing_ideal_finite_field(vs, q: int) -> BinomialIdeal:
    """Vanishing ideal I(X) of the set parameterized by y^{v_1},...,y^{v_s}
    over the prime field F_q.

    I(X) is the lattice ideal I(L) of L = {a : sum a_i = 0, V a = 0 mod
    (q-1)}, V the matrix with columns v_i (Renteria-Simis-Villarreal), so
    the result is a graded lattice ideal of dimension 1.  L is the
    projection onto the first s coordinates of ker [[1...1 | 0],
    [V | (q-1) I_n]]; the projection is injective, so it maps a basis to a
    basis.

    Let J be generated by t_i^{q-1} - t_s^{q-1} for i < s, all in I(L)
    since (q-1)(e_i - e_s) lies in L, and by the binomials of the basis
    rows reduced modulo these vectors (``_short_row``).  The reduced rows
    and the (q-1)(e_i - e_s) still generate L, and their binomials have
    degree at most about s(q-1)/2, where a raw basis row can be far longer.
    So I(L) = J : (t_1...t_s)^infty, and modulo J every t_i^{q-1} equals
    t_s^{q-1}, so (t_1...t_s)^N f in J gives t_s^{sN(q-1)} f in J:
    I(X) = J : t_s^infty, one saturation by one variable.  Its generators
    are the reduced basis under the standard grevlex order, which depends
    on the ideal alone, not on J's generators.
    """
    if not is_prime(q):
        raise UnsupportedFieldError(f"{q} is not prime")
    vs = exponent_vectors(vs)
    s = len(vs)
    n = len(vs[0])
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
