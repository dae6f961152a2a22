"""Buchberger engine specialized to pure-difference binomial ideals.

S-polynomials and reductions of pure differences need no coefficients, so
every result holds over all fields at once (char 2 included).  A monomial
is one int with a guard bit per exponent field (``_Packing``): a division
test, an lcm and a reduction step are a few int operations, and per
variable a bitset of the basis leads that do not use it narrows each
search for a divisor (``_Basis``).  Useless S-pairs are skipped by the
Gebauer-Moeller chain criterion on the pairs of each new element, and
saturation by a variable takes one Groebner basis (Bayer-Stillman), reduced
once after the division.  So ``lattice_ideal_generators`` costs one basis
for a lattice of rank s-1, the colon J : t_s^infty by pure powers
t_i^m - t_s^{m d_i / d_s} (``_lattice_colon``), and one per variable below
that rank.  Its result carries the order under which its generators are
the reduced basis (``BinomialIdeal.basis_order``), and ``buchberger`` under
that order returns them with no run.

The vanishing ideal of a set X parameterized by monomials over F_q needs no
basis when X is small enough: ``_vanishing_ideal``, the one place that
picks the route to it and to the Hilbert table of X, reads both off one
breadth-first walk over the characters of X (``_walk``), and builds the
binomials only for a caller that asks for them.  Past the walk budget it
costs one basis, the same colon of its lattice of rank s-1, and the
degree bound (s-1)(q-1) of that colon and the size of its lattice kernel
are checked before it is built.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import gcd, lcm
from operator import itemgetter

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
    attached, every generator must be homogeneous for it.  ``basis_order``
    is the order under which the generators are the reduced basis, or None:
    only this module sets it, on the ideals it returns, so ``buchberger``
    under that order returns them without a run.
    """

    num_vars: int
    gens: tuple[Binomial, ...]
    grading: Grading | None = None
    basis_order: MonomialOrder | None = field(
        default=None, init=False, compare=False, repr=False
    )

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
# engine internals.  A monomial is one int (``_Packing``) and an element an
# oriented pair (lead, tail) of them, tail None for a bare monomial.


class _Overflow(Exception):
    """A packed exponent reached the guard bit of its field."""


class _Packing:
    """Exponent vectors packed into one int, a field per variable
    (Bachmann-Schoenemann): t_last in the top field, the others below it in
    order (``at`` holds each variable's shift).  A field holds ``bits`` bits
    of exponent, a guard bit and room for a weighted degree.  While every
    exponent is below 2^bits, with G the guard bits, t^a divides t^u iff
    ((u | G) - a) & G == G (a field borrows its guard bit iff u_i < a_i), so
    an lcm is one mask; a weighted degree is one product with the reversed
    weights, read off the top field, since no field carries; and the
    grevlex key, t_last cheapest, is (deg, -P).  Other orders key the
    unpacked tuple.  _Basis.reduce raises _Overflow on a larger exponent.
    """

    def __init__(self, order, s, bits, last=-1):
        weights = getattr(order, "weights", None) or (1,) * s
        width = bits + 1 + (s * max(weights)).bit_length()
        shifts = range(0, s * width, width)
        self.bits, self.mask, self.top = bits, (1 << bits) - 1, shifts[-1]
        self.at = [*shifts[:last], self.top, *shifts[last:-1]]
        ones = ((1 << s * width) - 1) // ((1 << width) - 1)  # 1 in each field
        self.guard, self.high = ones << bits, ones * ((1 << width) - (1 << bits))
        if getattr(order, "kind", None) == "grevlex":
            top, fm = self.top, (1 << width) - 1
            wr = sum(w << (top - f) for w, f in zip(weights, self.at))
            self.degree = lambda P: P * wr >> top & fm
            self.key = lambda P: (P * wr >> top & fm, -P)
        else:
            self.degree = lambda P: order.degree(self.unpack(P))
            self.key = lambda P: order.key(self.unpack(P))

    def pack(self, u):
        return u if u is None else sum(x << f for x, f in zip(u, self.at))

    def unpack(self, P):
        return P if P is None else tuple(P >> f & self.mask for f in self.at)

    def lcm(self, a, b):
        m = ((a | self.guard) - b) & self.guard  # guard bits where a_i >= b_i
        return b ^ ((a ^ b) & (m - (m >> self.bits)))

    def orient(self, u, v):
        """(lead, tail) of t^u - t^v, v None for a monomial; None for 0."""
        if u == v:
            return None
        return (u, v) if v is None or self.key(u) > self.key(v) else (v, u)


def _packed(run, order, s, pairs, last=-1):
    """run(pk, pairs packed by pk), redone with twice as wide fields while it
    overflows: the same computation, and the same work, at any width."""
    bits = max((max(u) for p in pairs for u in p if u), default=0).bit_length() + 3
    while True:
        pk = _Packing(order, s, bits, last)
        try:
            return run(pk, [(pk.pack(u), pk.pack(v)) for u, v in pairs])
        except _Overflow:
            bits *= 2


# work one _groebner call or saturation pass may do: one unit per basis
# element a pass of _Basis.reduce stands for, and _UPDATE_COST per earlier
# element at each new element.  It bounds the time to give up: on a 2-core
# host graph-reg --q 11 --method colon on C8 gives up after 5.4-6.0 s
# (25-28M units/s, as on lattice ideals), and on C60 at q = 3, whose
# 60-variable ints slow the chain criterion, after 26 s (5.8M units/s)
_WORK_BUDGET = 150_000_000
_UPDATE_COST = 50


class _Basis:
    """Packed elements and, per variable (keyed by its guard bit), the
    bitset of the leads that do not use it.  Divisors of t^u are sought
    among the leads using no variable missing from u, lowest index first."""

    def __init__(self, pk, elems=()):
        self.pk, self.leads, self.tails = pk, [], []
        self.free = {1 << (f + pk.bits): -1 for f in pk.at}
        for lead, tail in elems:
            self.append(lead, tail)

    def append(self, lead, tail):
        g, bit = self.pk.guard, ~(1 << len(self.leads))
        used = g ^ ((g - lead) & g)
        while used:
            self.free[used & -used] &= bit
            used &= used - 1
        self.leads.append(lead)
        self.tails.append(tail)

    def divisor(self, u):
        """Index of the first lead dividing t^u, or -1."""
        g, free, leads = self.pk.guard, self.free, self.leads
        cand, missing = (1 << len(leads)) - 1, (g - u) & g
        while missing and cand:
            cand &= free[missing & -missing]
            missing &= missing - 1
        u |= g
        while cand:
            i = (cand & -cand).bit_length() - 1
            if (u - leads[i]) & g == g:
                return i
            cand &= cand - 1
        return -1

    def reduce(self, u, work):
        """Normal form of t^u, None for 0.  The first lead dividing t^u
        divides it k = min_i u_i // lead_i times in a row: one step u - k
        lead + k tail.  Each pass adds len(basis) to work[0], which may not
        pass _WORK_BUDGET."""
        pk, g = self.pk, self.pk.guard
        while True:
            if u & pk.high:
                raise _Overflow
            work[0] += len(self.leads)
            if work[0] > _WORK_BUDGET:
                raise BudgetExceededError(
                    f"Groebner basis computation passes {_WORK_BUDGET} units of work"
                )
            i = self.divisor(u)
            if i < 0 or self.tails[i] is None:
                return u if i < 0 else None
            lead, tail = self.leads[i], self.tails[i]
            if (((u - lead) | g) - lead) & g != g:  # k = 1
                u += tail - lead
            else:
                m = pk.mask
                k = min((u >> f & m) // x for f in pk.at if (x := lead >> f & m))
                if k * max(pk.unpack(tail)) > m:
                    raise _Overflow
                u -= k * (lead - tail)

    def normal_form(self, u, v, work):
        """Normal form of t^u - t^v, v (or u) None for a monomial."""
        u = u if u is None else self.reduce(u, work)
        v = v if v is None else self.reduce(v, work)
        if u is None:
            return None if v is None else (v, None)
        return self.pk.orient(u, v)


def _groebner(pk, elems):
    """Canonical reduced basis of packed (lead, tail) elements.  One call
    shares one _WORK_BUDGET."""
    work = [0]  # against _WORK_BUDGET
    return _reduce_basis(pk, _buchberger_loop(pk, elems, work), work)


def _buchberger_loop(pk, elems, work):
    """A Groebner basis, not reduced, of packed (lead, tail) elements, by the
    normal selection strategy, charged to work.  Each new element pairs with
    every earlier one, and the Gebauer-Moeller chain criterion runs on these
    new pairs only.  Each remainder is fully reduced, so its lead enlarges
    the initial ideal (Dickson's lemma ends the loop)."""
    B = _Basis(pk)
    leads, tails, g = B.leads, B.tails, pk.guard
    pairs: list = []  # heap of (lcm degree, lcm key, i, j)

    def add(lead_h, tail_h):
        h = len(leads)
        work[0] += _UPDATE_COST * h  # checked by the next reduction
        # a pair with a zero S-polynomial (coprime leads, or two monomials)
        # is never reduced but still witnesses the pairs whose lcm its lcm
        # divides; sorting puts divisors, and zero pairs, first
        new = []
        for i, (lead_i, tail_i) in enumerate(zip(leads, tails)):
            lcm = pk.lcm(lead_i, lead_h)
            zero = lcm == lead_i + lead_h or (tail_i is None and tail_h is None)
            new.append((pk.degree(lcm), not zero, lcm, i))
        new.sort(key=itemgetter(0, 1))
        witnesses: list = []
        for deg, nonzero, lcm, i in new:
            if nonzero and g in map(g.__and__, map((lcm | g).__sub__, witnesses)):
                continue
            witnesses.append(lcm)
            if nonzero:
                heapq.heappush(pairs, (deg, pk.key(lcm), i, h))
        B.append(lead_h, tail_h)

    for e in sorted(filter(None, elems), key=lambda e: pk.key(e[0])):
        if nf := B.normal_form(*e, work):
            add(*nf)
    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        lcm = pk.lcm(leads[i], leads[j])
        u = tails[i] if tails[i] is None else lcm - leads[i] + tails[i]
        v = tails[j] if tails[j] is None else lcm - leads[j] + tails[j]
        if u == v:
            continue
        if nf := B.normal_form(u, v, work):
            add(*nf)
    return list(zip(leads, tails))


def _reduce_basis(pk, G, work):
    """The reduced basis of a Groebner basis G, sorted by lead: the minimal
    elements, their tails reduced."""
    B = _Basis(pk)
    for lead, tail in sorted(G, key=lambda e: pk.key(e[0])):
        if B.divisor(lead) < 0:
            B.append(lead, tail)
    return [
        (u, v if v is None else B.reduce(v, work)) for u, v in zip(B.leads, B.tails)
    ]


def _check_pure(G):
    if any(tail is None for _, tail in G):
        raise InternalError("binomial input produced a non-binomial basis element")


# ---------------------------------------------------------------------------
# public operations


def buchberger(I: BinomialIdeal, order: MonomialOrder) -> GroebnerBasis:
    """Reduced Groebner basis of a pure-difference binomial ideal.  Without
    a run when order is I.basis_order: the generators of a saturation by
    t_s and of the walk's I(X) are their reduced basis already."""
    if order.weights is not None and len(order.weights) != I.num_vars:
        raise DimensionError("order does not match variable count")
    if order == I.basis_order:
        return GroebnerBasis(order, I.num_vars, I.gens)
    gens = [(g.plus, g.minus) for g in I.gens]

    def run(pk, packed):
        G = _groebner(pk, [pk.orient(u, v) for u, v in packed])
        _check_pure(G)
        B = _Basis(pk, G)
        if any(B.normal_form(u, v, [0]) for u, v in packed):
            raise InternalError("input generator does not reduce to zero by the basis")
        return tuple(Binomial(pk.unpack(u), pk.unpack(v)) for u, v in G)

    return GroebnerBasis(order, I.num_vars, _packed(run, order, I.num_vars, gens))


def normal_form(f: Binomial, G: GroebnerBasis) -> Binomial | None:
    """Remainder of f on division by G; None when f lies in the ideal."""
    if f.num_vars != G.num_vars:
        raise DimensionError("binomial does not match basis variable count")
    pairs = [(g.plus, g.minus) for g in G.elements] + [(f.plus, f.minus)]

    def run(pk, packed):
        nf = _Basis(pk, packed[:-1]).normal_form(*packed[-1], [0])
        return nf and tuple(map(pk.unpack, nf))

    nf = _packed(run, G.order, G.num_vars, pairs)
    if nf and nf[1] is None:
        raise InternalError("binomial reduced to a monomial modulo a binomial basis")
    return nf and Binomial(*nf)


def initial_ideal(G: GroebnerBasis) -> tuple[tuple[int, ...], ...]:
    """Minimal monomial generators of in(I): the leading exponents of G."""
    return tuple(g.plus for g in G.elements)


def ideal_equal(I: BinomialIdeal, J: BinomialIdeal, order: MonomialOrder) -> bool:
    """True iff the reduced Groebner bases coincide."""
    if I.num_vars != J.num_vars:
        raise DimensionError("ideals live in different rings")
    return buchberger(I, order).elements == buchberger(J, order).elements


def saturate_variable(I: BinomialIdeal, i: int) -> BinomialIdeal:
    """(I : t_i^infty) for a graded ideal, i a 0-based variable index: the
    reduced basis under weighted grevlex with t_i cheapest.

    Bayer-Stillman: under that order t_i divides a basis element of a
    homogeneous ideal as soon as it divides its lead, so dividing every
    element of one Groebner basis by its largest t_i power gives a Groebner
    basis of the saturation, reduced or not.  The pass packs t_i in the top
    field, so it is cheapest, runs the Buchberger loop, divides, and returns
    the reduced basis: one reduction, charged with the loop to the pass's
    work.  For i = s-1 the order is the canonical weighted grevlex, and the
    result carries it."""
    if I.grading is None:
        raise InvalidArgumentError("saturation requires a graded ideal")
    s = I.num_vars
    if not 0 <= i < s:
        raise InvalidArgumentError("variable index out of range")
    order = MonomialOrder.grevlex(I.grading)

    def run(pk, elems):
        work = [0]  # against _WORK_BUDGET
        G = _buchberger_loop(pk, [pk.orient(u, v) for u, v in elems], work)
        _check_pure(G)
        c = [min(u >> pk.top, v >> pk.top) << pk.top for u, v in G]
        G = _reduce_basis(pk, [(u - k, v - k) for (u, v), k in zip(G, c)], work)
        return tuple(Binomial(pk.unpack(u), pk.unpack(v)) for u, v in G)

    gens = [(g.plus, g.minus) for g in I.gens]
    J = BinomialIdeal(s, _packed(run, order, s, gens, i), I.grading)
    if i == s - 1:
        object.__setattr__(J, "basis_order", order)
    return J


def saturate_all(I: BinomialIdeal) -> BinomialIdeal:
    """(I : (t_1 ... t_s)^infty) = ((I : t_1^infty) ... : t_s^infty), as the
    reduced basis under the canonical weighted grevlex order: one
    ``saturate_variable`` pass per variable, each a Groebner basis divided
    by the powers of its variable (Bayer-Stillman), the last by t_s."""
    for i in range(I.num_vars):
        I = saturate_variable(I, i)
    return I


def is_lattice_ideal(I: BinomialIdeal) -> bool:
    """Computable restatement of the non-zero-divisor criterion: I is a
    lattice ideal iff it equals its saturation by all the variables, whose
    generators are its reduced weighted grevlex basis already."""
    if I.grading is None:
        raise InvalidArgumentError("lattice-ideal test requires a graded ideal")
    gens = saturate_all(I).gens
    return buchberger(I, MonomialOrder.grevlex(I.grading)).elements == gens


def lattice_ideal_generators(L: Lattice, grading: Grading) -> BinomialIdeal:
    """Generators of the lattice ideal I(L) for a homogeneous lattice: at
    rank s-1 the colon J : t_s^infty of ``_lattice_colon``, one Groebner
    basis; at lower rank the binomials of a lattice basis saturated by
    each variable in turn, one basis per variable."""
    if not is_homogeneous(L, grading):
        raise UnsupportedInputError("lattice is not homogeneous for the grading")
    if L.rank == L.ambient_dim - 1:
        return _lattice_colon(L, grading)
    gens = tuple(Binomial(*split_parts(row)) for row in L.basis)
    return saturate_all(BinomialIdeal(L.ambient_dim, gens, grading))


def _lattice_colon(L, grading):
    """I(L) = J : t_s^infty for a lattice L of rank s-1 homogeneous for the
    grading d: one saturation by t_s, whose result carries the canonical
    weighted grevlex order.

    For i < s let (a_i, b_i) = (d_s, d_i) / gcd(d_i, d_s), so that a_i e_i
    - b_i e_s has degree 0, and let k_i be the least k > 0 with k (a_i e_i
    - b_i e_s) in L (``Lattice.least_multiple``); it exists because L
    tensor Q is the whole hyperplane of degree 0.  Let m = lcm(k_i a_i), in
    the standard grading the exponent of the finite group Z^s / (L + Z e_s).
    Then m e_i - (m d_i / d_s) e_s lies in L for each i < s.  J is generated
    by t_i^m - t_s^{m d_i / d_s}, i < s, and by the binomials of the Hermite
    rows of L reduced modulo these vectors (``_short_row``), all in I(L).
    The reduced rows and the vectors still generate L, so I(L) = J : (t_1
    ... t_s)^infty.  Modulo J each t_i^m is t_s^{m d_i / d_s}, so if (t_1
    ... t_s)^N f lies in J, multiplying it by the monomial in t_1, ...,
    t_{s-1} that lifts each exponent N to the next multiple of m gives t_s^M
    f in J for some M: I(L) = J : t_s^infty.

    For the lattice of a set X in the torus over F_q, m is the exponent of
    X, a divisor of q-1, and J is the seed t_i^{q-1} - t_s^{q-1} plus rows
    reduced mod q-1 when m = q-1.  One modulus m for every i, not k_i a_i
    each, keeps that seed: with the k_i, 24 of 323 seeded colons took up to
    27% more work in the Buchberger loop."""
    s, d = L.ambient_dim, grading.weights
    m = 1
    for i in range(s - 1):
        g = gcd(d[i], d[-1])
        a, b = d[-1] // g, d[i] // g
        v = [a if j == i else -b if j == s - 1 else 0 for j in range(s)]
        m = lcm(m, a * L.least_multiple(v))
    gens = [Binomial(*split_parts(_short_row(row, m, d))) for row in L.basis]
    for i in range(s - 1):
        plus = tuple(m if j == i else 0 for j in range(s))
        minus = tuple(m * d[i] // d[-1] if j == s - 1 else 0 for j in range(s))
        gens.append(Binomial(plus, minus))
    return saturate_variable(BinomialIdeal(s, tuple(gens), grading), s - 1)


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
    s, n = len(vs), len(vs[0])
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


def _short_row(a, m, d):
    """A vector of degree 0 congruent to a (of degree 0) modulo the vectors
    m e_i - (m d_i / d_s) e_s: each entry but the last is its residue mod m,
    or that minus m, whichever keeps the running degree nearer 0, and the
    last entry restores degree 0."""
    out = []
    total = 0
    for x, w in zip(a[:-1], d):
        r = x % m
        if abs(total + (r - m) * w) < abs(total + r * w):
            r -= m
        out.append(r)
        total += r * w
    out.append(-total // d[-1])
    return out


# work the walk over the characters of X may take before _vanishing_ideal
# takes the colon J : t_s^infty instead: its (s-1)|X| steps, each charged
# one unit per 64-bit word of a packed character.  The walk of K33 at
# q = 19 (840k units) takes 0.2 s, where the colon gives up after 4.5 s.
# The costliest walk within it has one class per layer: for [[1],[2]] at
# q = 3999971, _vanishing_ideal and its ideal take 3.7 s and 600 MB at
# peak, and vanish --ideal with its 4e6-value H line 4.6 s and 750 MB
# (in-process on a 2-core host)
_WALK_BUDGET = 4_000_000


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
    one per 64-bit word of a packed character: w = ceil((k+1) n / 64),
    (s-1) |X| w in all.  |X| is at least the order of the image of X in
    the coordinates of the first word, max(1, 64 // (k+1)) of them, and
    equals it when all n fit (``subgroup_mod`` on those columns), so the
    walk returns None before its first layer when s-1 times that order
    times w passes budget, and otherwise once the units charged would.
    Else it returns the table H_X(0), ..., H_X(reg), whose last entry is
    |X|, the dict of class -> packed representative, and the list of
    (packed minimal generator, its class).
    """
    m, s, n = q - 1, len(vs), len(vs[0])
    steps = [[(a - b) % m for a, b in zip(v, vs[-1])] for v in vs[:-1]]
    k = (2 * m - 1).bit_length()
    words = -(-(k + 1) * n // 64)
    c = min(n, max(1, 64 // (k + 1)))
    top = (s - 1) * words
    # the image has at most m^c points; its order is computed only past that
    if top * m**c > budget and top * subgroup_mod(m, [u[:c] for u in steps], c)[1] > budget:
        return None
    shifts = range(0, (k + 1) * n, k + 1)
    C = sum(((1 << k) - m) << f for f in shifts)
    H = sum(1 << (k + f) for f in shifts)
    up = [sum(x << f for x, f in zip(u, shifts)) for u in steps]
    down = [sum((-x % m) << f for x, f in zip(u, shifts)) for u in steps]
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
    """H_X(0), ..., H_X(reg), whose last entry is |X|, or None, and a
    function of no arguments that gives I(X): the one place that picks the
    route to the Hilbert table and the ideal of X.

    Within _WALK_BUDGET both come off ``_walk``, and the binomials are
    built only when the function is called: each minimal generator M of
    in(I(X)) in class c, found in layer d, has tail rep(c) t_s^{d - deg
    rep(c)}.  Past it, I(X) is the colon of ``_colon_ideal``, built at
    once, and the table is None: the caller reads it off the Hilbert series
    of the colon.  Either way the generators are the reduced basis under
    the standard grevlex order, lead first and sorted by lead, as
    ``saturate_variable`` gives them.
    """
    walk = _walk(vs, q, _WALK_BUDGET)
    if walk is None:
        I = _colon_ideal(vs, q)
        return None, lambda: I
    table, reps, leads = walk
    s, w = len(vs), (q - 1).bit_length()

    def unpack(M):
        return tuple((M >> (w * i)) & ((1 << w) - 1) for i in range(s - 1))

    def ideal():
        grading = standard_grading(s)
        order = MonomialOrder.grevlex(grading)
        gens = []
        for M, y in leads:
            lead, rep = unpack(M), unpack(reps[y])
            gens.append(Binomial(lead + (0,), rep + (sum(lead) - sum(rep),)))
        gens.sort(key=lambda g: order.key(g.plus))
        I = BinomialIdeal(s, tuple(gens), grading)
        object.__setattr__(I, "basis_order", order)
        return I

    return table, ideal


def vanishing_ideal_finite_field(vs, q: int) -> BinomialIdeal:
    """Vanishing ideal I(X) of the set parameterized by y^{v_1},...,y^{v_s}
    over the prime field F_q.

    I(X) is the lattice ideal I(L) of L = {a : sum a_i = 0, V a = 0 mod
    (q-1)}, V the matrix with columns v_i (Renteria-Simis-Villarreal), so
    the result is a graded lattice ideal of dimension 1.  Its generators
    are the reduced basis under the standard grevlex order, which depends
    on the ideal alone; ``_vanishing_ideal`` picks the route to them.
    """
    if not is_prime(q):
        raise UnsupportedFieldError(f"{q} is not prime")
    return _vanishing_ideal(exponent_vectors(vs), q)[1]()


# degree bound on a Hilbert numerator, checked before it is built: by
# `latreg hilbert` on lcm(in(I)), by _colon_ideal on (s-1)(q-1) >= deg
# lcm(in(I(X))).  It also bounds the printed H line (4e6 values in ~3.5 s)
_NUMERATOR_DEGREE_BUDGET = 4_000_000


def _colon_ideal(vs, q):
    """I(X) as the colon J : t_s^infty of ``_lattice_colon``, for X past the
    walk budget, as when |X| is huge but the ideal small.

    I(X) = I(L) for L the projection onto the first s coordinates of ker
    [[1...1 | 0], [V | (q-1) I_n]], of rank s-1; the projection is
    injective, so it maps a basis to a basis.  In J the pure powers are
    t_i^m - t_s^m, m the exponent of X, which divides q-1, and the Hermite
    rows of L reduced mod m have degree at most about s m / 2, where a raw
    row can be far longer.  Modulo J each t_i^m is t_s^m, so (t_1 ...
    t_s)^N f in J gives t_s^M f in J: one saturation by one variable.

    t_s divides no lead of I(X), which holds t_i^{q-1} - t_s^{q-1}, so deg
    lcm(in(I(X))) <= (s-1)(q-1); past _NUMERATOR_DEGREE_BUDGET, where the
    saturation can run for a minute before _WORK_BUDGET trips, that bound
    raises BudgetExceededError before J is built.  So does the dense
    Hermite form that ``kernel_lattice`` takes of the (s+n) x (s+2n+1)
    matrix [A^T | I], charged rows times columns times the n+1 pivots of
    A^T against _WORK_BUDGET: cubic in the size of the input, it would run
    for minutes on a path of 1000 vertices.
    """
    s, n = len(vs), len(vs[0])
    if (s - 1) * (q - 1) > _NUMERATOR_DEGREE_BUDGET:
        raise BudgetExceededError(
            "vanishing ideal degree bound (s-1)(q-1) passes "
            f"{_NUMERATOR_DEGREE_BUDGET}"
        )
    if (s + n) * (s + 2 * n + 1) * (n + 1) > _WORK_BUDGET:
        raise BudgetExceededError(
            f"vanishing ideal lattice kernel passes {_WORK_BUDGET} units of work"
        )
    rows = [(1,) * s + (0,) * n] + [
        tuple(v[j] for v in vs) + tuple(q - 1 if k == j else 0 for k in range(n))
        for j in range(n)
    ]
    K = kernel_lattice(rows)
    return _lattice_colon(Lattice(s, [row[:s] for row in K.basis]), standard_grading(s))


def initial_ideal_with_monomials(
    binomials, monomials, order: MonomialOrder, num_vars: int
) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of in(I + M) for binomial I and monomial gens M.

    The engine handles single monomials as tail-less elements; the basis of a
    binomial-plus-monomial ideal again consists of binomials and monomials.
    """
    pairs = [(g.plus, g.minus) for g in binomials] + [(m, None) for m in monomials]

    def run(pk, packed):
        G = _groebner(pk, [pk.orient(u, v) for u, v in packed])
        return tuple(pk.unpack(lead) for lead, _ in G)

    return _packed(run, order, num_vars, pairs)
