"""Seeded cross-checks of the engine's routes against the slower reference
routes in ``helpers``: reduced bases, Hilbert numerators and Hilbert
functions of point sets must coincide exactly."""

import os
import random
import subprocess
import sys

import pytest

from helpers import (
    BlockOrder,
    elimination_vanishing_ideal,
    fixpoint_saturate_all,
    fixpoint_saturate_variable,
    naive_point_rank,
    orient,
    random_homogeneous_lattice,
    reference_buchberger,
    saturated_lattice_vanishing_ideal,
    smallest_pivot_numerator,
    sumset_table,
    vanishing_lattice_rows,
)
from latreg import binomial_gb
from latreg.binomial_gb import (
    BinomialIdeal,
    _groebner,
    _packed,
    _short_row,
    saturate_all,
    saturate_variable,
    vanishing_ideal_finite_field,
)
from latreg.ffvanish import (
    PrimeField,
    degenerate_torus_vectors,
    enumerate_parameterized,
    hilbert_table_points,
    parameterized_hilbert_table,
)
from latreg.graphblocks import (
    characteristic_vectors,
    connected_components,
    graph,
    reg_colon_method,
)
from latreg.hilbert import monomial_hilbert
from latreg.ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    split_parts,
    standard_grading,
)


def _lattice_inputs(seed, count):
    """Binomials of seeded lattice bases (not yet saturated) with their
    gradings."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        L, d = random_homogeneous_lattice(rng, s=rng.randint(2, 5), max_weight=3)
        out.append(([Binomial(*split_parts(row)) for row in L.basis], d, rng))
    return out


def _orders(d, rng):
    s = d.num_vars
    return [
        MonomialOrder.grevlex(d),
        MonomialOrder.lex(),
        BlockOrder(rng.randint(1, s - 1), d.weights),
    ]


def _colon_seed_inputs():
    """The seeds J of the colon J : t_s^infty (the lattice rows after
    _short_row, plus t_i^{q-1} - t_s^{q-1}) for C4, C6 and K23 at q = 3, 5
    and K33 and the domino at q = 3.  Their bases reach 33 elements, where
    those of the random lattices stay small and the pair criteria rarely
    fire."""
    C4 = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    C6 = graph(6, [(i, i % 6 + 1) for i in range(1, 7)])
    K23 = graph(5, [(a, b) for a in (1, 2) for b in (3, 4, 5)])
    K33 = graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])
    domino = graph(6, [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)])
    out = []
    for G, q in [
        (C4, 3), (C4, 5), (C6, 3), (C6, 5), (K23, 3), (K23, 5), (K33, 3), (domino, 3)
    ]:
        vs = characteristic_vectors(G)
        s = len(vs)
        order = MonomialOrder.grevlex(standard_grading(s))
        ones = (1,) * s
        rows = [_short_row(row, q - 1, ones) for row in vanishing_lattice_rows(vs, q)]
        elems = [orient(order, *split_parts(row)) for row in rows]
        top = tuple(q - 1 if k == s - 1 else 0 for k in range(s))
        for i in range(s - 1):
            elems.append(orient(order, tuple(q - 1 if k == i else 0 for k in range(s)), top))
        out.append((elems, order))
    return out


def _engine_basis(elems, order):
    """The engine's reduced basis of (lead, tail) exponent tuples, tail None
    for a monomial (None for a zero element), as reference_buchberger gives
    it."""
    elems = [e for e in elems if e is not None]

    def run(pk, packed):
        G = _groebner(pk, [pk.orient(u, v) for u, v in packed])
        return tuple((pk.unpack(u), pk.unpack(v)) for u, v in G)

    return _packed(run, order, len(elems[0][0]), elems)


def test_core_matches_coprime_reference():
    checked = 0
    for gens, d, rng in _lattice_inputs(11, 36):
        s = d.num_vars
        for order in _orders(d, rng):
            elems = [orient(order, g.plus, g.minus) for g in gens]
            assert _engine_basis(elems, order) == reference_buchberger(elems, order)
            # the same binomials plus monomial generators
            monos = [tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(2)]
            mixed = elems + [(m, None) for m in monos if any(m)]
            assert _engine_basis(mixed, order) == reference_buchberger(mixed, order)
            checked += 1
    for elems, order in _colon_seed_inputs():
        assert _engine_basis(elems, order) == reference_buchberger(elems, order)
        checked += 1
    # the chain t_i - t_{i+1}^3, i < 12: exponents far past the fields sized
    # for the input, so the engine must widen them and start again
    n = 12
    chain = [
        (tuple(int(k == i) for k in range(n)), tuple(3 * (k == i + 1) for k in range(n)))
        for i in range(n - 1)
    ]
    bases = []
    for order in (MonomialOrder.lex(), MonomialOrder.grevlex(standard_grading(n))):
        elems = [orient(order, u, v) for u, v in chain]
        bases.append(_engine_basis(elems, order))
        assert bases[-1] == reference_buchberger(elems, order)
        checked += 1
    # t1 - t12^177147 under lex
    assert ((1,) + (0,) * 11, (0,) * 11 + (3**11,)) in bases[0]
    # t1^256 reduces by t1 - t2^256 in one step of k = 256, whose 256 *
    # t2^256 spills from the t2 field into the t3 field unless widened first
    order = MonomialOrder.lex()
    elems = [((1, 0, 0), (0, 256, 0)), ((256, 0, 0), (0, 0, 1))]
    assert _engine_basis(elems, order) == reference_buchberger(elems, order)
    checked += 1
    assert checked == 119


def test_single_pass_saturation_matches_fixpoint():
    for gens, d, rng in _lattice_inputs(12, 30):
        s = d.num_vars
        # multiply one generator by a variable so the input is not saturated
        k = rng.randrange(s)
        bumped = Binomial(
            tuple(x + (i == k) for i, x in enumerate(gens[0].plus)),
            tuple(x + (i == k) for i, x in enumerate(gens[0].minus)),
        )
        I = BinomialIdeal(s, (bumped,) + tuple(gens[1:]), d)
        assert saturate_all(I).gens == fixpoint_saturate_all(I.gens, d)
        for i in range(s):
            J = saturate_variable(I, i)
            assert J.gens == fixpoint_saturate_variable(I.gens, d, i)


def test_saturation_pass_widens_its_fields(monkeypatch):
    # in the pass by t2, t1^16 reduces to t2^4096, past the 12-bit fields
    # sized for the input: that pass alone is packed again, wider
    built = []
    real = binomial_gb._Packing

    class Recorded(real):
        def __init__(self, order, s, bits, last=-1):
            built.append((last, bits))
            super().__init__(order, s, bits, last)

    monkeypatch.setattr(binomial_gb, "_Packing", Recorded)
    d = Grading((256, 1, 256))
    I = BinomialIdeal(
        3, (Binomial((1, 0, 0), (0, 256, 0)), Binomial((16, 0, 0), (0, 0, 16))), d
    )
    got = saturate_all(I).gens
    # one packing per pass, t1 to t3, and a second, wider one for t2's
    assert [last for last, _ in built] == [0, 1, 1, 2]
    assert built[2][1] > built[1][1]
    assert got == fixpoint_saturate_all(I.gens, d)
    assert [(g.plus, g.minus) for g in got] == [
        ((1, 0, 0), (0, 256, 0)),
        ((0, 4096, 0), (0, 0, 16)),
    ]


def _routes(monkeypatch):
    """Yield the name of each route vanishing_ideal_finite_field can take:
    the walk over the characters of X, then the colon J : t_s^infty, forced
    by a zero walk budget.  Each oracle is computed once for both."""
    yield "walk"
    monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 0)
    yield "colon"


@pytest.mark.parametrize(
    "vs, q",
    [
        ([(1, 0), (0, 2)], 3),
        ([(2, 0), (0, 3)], 5),
        ([(1, 0, 0), (0, 2, 0), (0, 0, 2)], 5),
        ([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 5),
        ([(1, 0), (0, 1), (1, 1)], 5),
        ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)], 3),
        ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)], 5),
    ],
)
def test_lattice_route_matches_elimination(vs, q, monkeypatch):
    want = elimination_vanishing_ideal(vs, q)
    for route in _routes(monkeypatch):
        assert vanishing_ideal_finite_field(vs, q).gens == want, route


def test_one_variable_colon_matches_full_saturation(monkeypatch):
    # the walk and J : t_s^infty against the lattice-basis ideal saturated by
    # every variable; orientation and order of the generators must agree too
    cases = _parameterized_cases(15)
    cases += [([(1,)], 3), ([(2, 1)], 5), ([(3, 0, 1)], 7), ([(4,)], 11)]
    cases += [
        (degenerate_torus_vectors(v), q)
        for q in (11, 13)
        for v in [(1, 2), (2, 3, 4), (5, 5)]
    ]
    c4 = characteristic_vectors(graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]))
    cases += [(c4, 7), (c4, 11)]
    # raw basis rows of degree far above q-1 (C6 at q=7 has one of degree 17)
    for n, q in ((6, 7), (8, 3)):
        cycle = graph(n, [(i, i % n + 1) for i in range(1, n + 1)])
        cases.append((characteristic_vectors(cycle), q))
    assert len(cases) >= 60 and any(len(vs) == 1 for vs, _ in cases)
    wants = [saturated_lattice_vanishing_ideal(vs, q) for vs, q in cases]
    for route in _routes(monkeypatch):
        for (vs, q), want in zip(cases, wants):
            got = vanishing_ideal_finite_field(vs, q).gens
            assert [(g.plus, g.minus) for g in got] == [
                (g.plus, g.minus) for g in want
            ], (vs, q, route)


def _bipartite_with_cycle(rng, max_left):
    while True:
        left, right = rng.randint(2, max_left), rng.randint(2, 3)
        n = left + right
        edges = [
            (u, v)
            for u in range(1, left + 1)
            for v in range(left + 1, n + 1)
            if rng.random() < 0.7
        ]
        G = graph(n, edges)
        # a graph with a cycle has more edges than a spanning forest
        if not G.isolated_vertices() and len(G.edges) > G.n - len(
            connected_components(G)
        ):
            return G


@pytest.mark.parametrize("q", [3, 5, 7, 11])
def test_colon_method_matches_character_count(q, monkeypatch):
    # the depth of the walk over the characters of X against the regularity
    # read off the series of the colon J : t_s^infty, forced by a zero walk
    # budget
    rng = random.Random(16 + q)
    field = PrimeField(q)
    # six-vertex graphs take seconds at q = 11
    max_left = 2 if q == 11 else 3
    graphs = [_bipartite_with_cycle(rng, max_left) for _ in range(6)]
    c4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
    # disconnected: C4 and a disjoint edge
    graphs.append(graph(6, c4 + [(5, 6)]))
    graphs.append(graph(4, c4))
    walked = [reg_colon_method(G, field) for G in graphs]
    monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 0)
    for G, want in zip(graphs, walked):
        assert reg_colon_method(G, field) == want, G
    # an isolated vertex adds a coordinate on which no edge monomial depends
    assert reg_colon_method(graph(5, c4), field) == walked[-1]


def test_variable_pivot_matches_smallest_pivot():
    rng = random.Random(13)
    for _ in range(60):
        s = rng.randint(1, 6)
        d = Grading(tuple(rng.randint(1, 3) for _ in range(s)))
        gens = [
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(s))
            for _ in range(rng.randint(0, 10))
        ]
        if rng.random() < 0.5:
            gens.append(tuple(4 if i == 0 else 0 for i in range(s)))
        assert monomial_hilbert(gens, d).numerator == smallest_pivot_numerator(gens, d)


def _parameterized_cases(seed):
    """(vs, q) with q <= 7: degenerate tori, small bipartite graphs, and
    seeded random exponent vectors in at most 3 parameters."""
    cases = [
        (degenerate_torus_vectors(v), q)
        for q in (3, 5, 7)
        for v in [(1, 1), (1, 2), (2, 3), (3, 3), (1, 2, 3), (2, 2, 4)]
    ]
    c4 = [(1, 2), (2, 3), (3, 4), (1, 4)]
    graphs = [
        graph(3, [(1, 2), (2, 3)]),
        graph(4, c4),
        graph(5, c4 + [(4, 5)]),
        graph(5, [(a, b) for a in (1, 2) for b in (3, 4, 5)]),
        graph(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
    ]
    cases += [(characteristic_vectors(G), 3) for G in graphs]
    cases += [(characteristic_vectors(G), 5) for G in graphs[:3]]
    cases.append((characteristic_vectors(graph(6, [(i, i % 6 + 1) for i in range(1, 7)])), 5))
    rng = random.Random(seed)
    while len(cases) < 60:
        n = rng.randint(1, 3)
        v = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        if all(any(e) for e in v):
            cases.append((v, rng.choice((3, 5, 7))))
    return cases


def test_character_count_matches_evaluation_rank():
    naive_checked = 0
    for vs, q in _parameterized_cases(14):
        field = PrimeField(q)
        table = parameterized_hilbert_table(field, vs)
        X = enumerate_parameterized(field, vs)
        reg = len(table) - 1
        assert table[-1] == len(X), (vs, q)
        assert hilbert_table_points(X, reg + 1) == table + [len(X)], (vs, q)
        if len(X) <= 64:
            naive = [naive_point_rank(X.points, q, d) for d in range(reg + 2)]
            assert naive == table + [len(X)], (vs, q)
            naive_checked += 1
    assert naive_checked >= 40


def _search_cases(seed):
    """(vs, q) on the edges of the packed character search: one vector,
    repeated vectors, vectors = 0 mod q-1, the Fermat primes (2(q-1) - 1 is
    all ones, so a coordinate sum fills its field up to the guard bit), and
    two primes whose packed characters span several machine words, with
    vectors in a small subgroup so |X| stays small."""
    rng = random.Random(seed)
    cases = _parameterized_cases(seed)
    for q in (3, 5, 7, 11, 13, 17, 257):
        for _ in range(12):
            n = rng.randint(1, 2 if q == 257 else 3)
            top = 40 if q == 257 and n == 2 else 2 * q
            vs = [
                tuple(rng.randint(0, top) for _ in range(n))
                for _ in range(rng.randint(1, 5))
            ]
            vs = [v if any(v) else (q - 1,) * n for v in vs]
            if rng.random() < 0.5:
                vs.append(rng.choice(vs))
            if rng.random() < 0.5:
                vs.insert(rng.randrange(len(vs) + 1), (rng.randint(1, 3) * (q - 1),) * n)
            if q == 257 and n == 2:
                vs = [tuple(32 * e for e in v) for v in vs]
            cases.append((vs, q))
    for q in (2**31 - 1, 2**61 - 1):
        m = q - 1
        for _ in range(10):
            n = rng.randint(1, 3)
            r = rng.choice((2, 3, 6, 7, 9))
            vs = [
                tuple(rng.randint(0, r - 1) * (m // r) + rng.randint(0, 2) * m for _ in range(n))
                for _ in range(rng.randint(1, 4))
            ]
            cases.append(([v if any(v) else (m,) * n for v in vs], q))
    return cases


def test_character_search_matches_sumset():
    # the breadth-first search over packed characters against the sumset
    # rebuilt level by level on tuples
    cases = _search_cases(15)
    for vs, q in cases:
        field = PrimeField(q)
        assert parameterized_hilbert_table(field, vs) == sumset_table(field, vs), (vs, q)
    assert sum(len(vs) == 1 for vs, _ in cases) >= 5


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("k", [2, 3])
def test_even_cycle_closed_forms(k, q):
    # |X| = (q-1)^(n-2) for a connected bipartite graph on n vertices, and
    # reg = (q-2)(k-1) for the cycle C_2k
    n = 2 * k
    cycle = graph(n, [(i, i % n + 1) for i in range(1, n + 1)])
    field = PrimeField(q)
    table = parameterized_hilbert_table(field, characteristic_vectors(cycle))
    assert table[-1] == (q - 1) ** (n - 2)
    assert len(table) - 1 == (q - 2) * (k - 1) == reg_colon_method(cycle, field)


_BROKEN_ENGINE = """
import latreg.binomial_gb as gb
from latreg.errors import InternalError
from latreg.ring_core import Binomial, MonomialOrder, standard_grading

order = MonomialOrder.grevlex(standard_grading(2))
I = gb.BinomialIdeal(2, (Binomial((1, 0), (0, 1)),))
G = gb.buchberger(I, order)
real = gb._groebner
# packed monomials: 1 is t1
cases = {
    "non-binomial basis": lambda pk, elems: [(1, None)],
    "generator not reduced to zero": lambda pk, elems: [],
}
for name, fake in cases.items():
    gb._groebner = fake
    try:
        gb.buchberger(I, order)
    except InternalError:
        continue
    raise SystemExit(f"no InternalError for {name}")
gb._groebner = real
gb._Basis.normal_form = lambda self, u, v, work: (1, None)
try:
    gb.normal_form(Binomial((2, 0), (0, 2)), G)
except InternalError:
    pass
else:
    raise SystemExit("no InternalError for a monomial normal form")

import itertools
import latreg.ffvanish as ff
import latreg.invariants as inv
import latreg.numsgp as ns
from latreg.ring_core import Grading

ff._evaluation_chain = lambda X: ((d, 1) for d in itertools.count())
ns._least_per_residue = lambda gens, m: [0] + [None] * (m - 1)
inv.TorusSpec.derived_weights = property(lambda self: Grading((1,)))
cases = {
    "evaluation rank short of |X|": lambda: ff.regularity_points(
        ff.point_set(ff.PrimeField(3), [(1, 1), (2, 1)])
    ),
    "unreachable Apery residue": lambda: ns.apery_set(ns.NumericalSemigroup((2, 3)), 4),
    "prescribed type round trip": lambda: inv.prescribe_regularity(Grading((2, 3))),
}
for name, call in cases.items():
    try:
        call()
    except InternalError:
        continue
    raise SystemExit(f"no InternalError for {name}")
print("checked")
"""


def test_invariant_checks_survive_optimize_flag():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ENGINE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "checked"
