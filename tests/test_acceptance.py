"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every expected value is exact (no tolerances anywhere).
"""

import itertools
import random
import time
from math import gcd

from helpers import curve_pipeline, frobenius_oracle, random_homogeneous_lattice
from latreg.binomial_gb import (
    BinomialIdeal,
    buchberger,
    homogenize_binomials,
    ideal_equal,
    initial_ideal,
    is_complete_intersection,
    is_lattice_ideal,
    lattice_ideal_generators,
    normal_form,
    saturate_all,
    vanishing_ideal_finite_field,
)
from latreg.ffvanish import (
    PrimeField,
    check_vanishing,
    enumerate_degenerate_torus,
    enumerate_parameterized,
    hilbert_table_points,
    regularity_points,
)
from latreg.graphblocks import (
    edge_point_set,
    graph,
    reg_bipartite_blocks,
    reg_bounds_bipartite,
    reg_colon_method,
)
from latreg.hilbert import (
    degree_dim1_standard,
    hilbert_table,
    ideal_hilbert,
    index_of_regularity,
    lambda_product,
    monomial_hilbert,
    rational_equal,
    reg_cm,
)
from latreg.intlat import (
    Lattice,
    hermite_normal_form,
    homogenize_lattice,
    kernel_lattice,
    smith_invariants,
    torsion_order,
)
from latreg.invariants import (
    TorusSpec,
    curve_spec,
    degenerate_torus_invariants,
    degree_transfer,
    lattice_degree_dim1,
    mcurve_degree,
    mcurve_regularity,
)
from latreg.numsgp import NumericalSemigroup, frobenius_number
from latreg.ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    parse_binomial,
    standard_grading,
)

C4 = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C6 = graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
TWO_C4 = graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6), (6, 7), (4, 7)])


def seeded_lattices(n=20, seed=2024):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        L, d = random_homogeneous_lattice(rng, s=rng.randint(2, 4))
        if L.rank != L.ambient_dim - 1:
            continue
        out.append((L, d))
    return out


def test_criterion_01_monomial_curve_pipeline():
    start = time.time()
    assert mcurve_regularity(curve_spec((2, 3))) == 5
    assert mcurve_degree(curve_spec((2, 3))) == 6
    assert curve_pipeline((2, 3)) == (5, 6)
    for s in (2, 3):
        for d in itertools.product(range(1, 9), repeat=s):
            reg, deg = curve_pipeline(d)
            assert reg == mcurve_regularity(curve_spec(d)), d
            assert deg == mcurve_degree(curve_spec(d)), d
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(f"PASS criterion 1: monomial-curve formulas match the full pipeline "
          f"for all d, s in (2,3), entries <= 8 ({elapsed:.1f}s)")


def test_criterion_02_lambda_product():
    start = time.time()
    for L, d in seeded_lattices():
        s = L.ambient_dim
        Fw = ideal_hilbert(
            lattice_ideal_generators(L, d), MonomialOrder.grevlex(d), d
        )
        std = standard_grading(s)
        Fs = ideal_hilbert(
            lattice_ideal_generators(homogenize_lattice(L, d), std),
            MonomialOrder.grevlex(std),
            std,
        )
        assert rational_equal(lambda_product(Fw), Fs), (L.basis, d)
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"PASS criterion 2: lambda-product of the weighted series equals the "
          f"standard series of the homogenized ideal on 20 seeded lattices ({elapsed:.1f}s)")


def test_criterion_03_regularity_transfer():
    for L, d in seeded_lattices():
        s = L.ambient_dim
        std = standard_grading(s)
        Fw = ideal_hilbert(
            lattice_ideal_generators(L, d), MonomialOrder.grevlex(d), d
        )
        Ih = lattice_ideal_generators(homogenize_lattice(L, d), std)
        Fs = ideal_hilbert(Ih, MonomialOrder.grevlex(std), std)
        reg_weighted = reg_cm(Fw, s - 1)
        reg_standard = reg_cm(Fs, s - 1)
        Fin = monomial_hilbert(
            initial_ideal(buchberger(Ih, MonomialOrder.grevlex(std))), std
        )
        reg_initial = index_of_regularity(hilbert_table(Fin), 1)
        assert reg_weighted == reg_standard == reg_initial, (L.basis, d)
    print("PASS criterion 3: regularity agrees via weighted series, standard "
          "series, and the initial-ideal table on 20 seeded lattices")


def test_criterion_04_degree_transfer_and_torsion():
    for L, d in seeded_lattices():
        s = L.ambient_dim
        std = standard_grading(s)
        D = homogenize_lattice(L, d)
        Fs = ideal_hilbert(
            lattice_ideal_generators(D, std), MonomialOrder.grevlex(std), std
        )
        assert degree_transfer(d, lattice_degree_dim1(L, d)) == degree_dim1_standard(
            hilbert_table(Fs)
        ), (L.basis, d)
        if d.r == 1:
            factor = 1
            for w in d.weights:
                factor *= w
            assert torsion_order(D) == factor * torsion_order(L), (L.basis, d)
    print("PASS criterion 4: degree transfer matches the Hilbert degree and "
          "torsion is multiplicative when gcd(d) = 1")


def test_criterion_05_frobenius():
    start = time.time()
    assert frobenius_number(NumericalSemigroup((2, 3))) == 1
    assert frobenius_number(NumericalSemigroup((3, 5))) == 7
    assert frobenius_number(NumericalSemigroup((6, 9, 20))) == 43
    assert frobenius_oracle((6, 9, 20)) == 43
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if gcd(a, b) == 1:
                got = frobenius_number(NumericalSemigroup((a, b)))
                assert got == a * b - a - b
                assert got == frobenius_oracle((a, b))
    elapsed = time.time() - start
    assert elapsed < 5.0
    print(f"PASS criterion 5: Frobenius examples, Sylvester exhaustively to 30, "
          f"all BFS cross-checked ({elapsed:.1f}s)")


def test_criterion_06_degenerate_torus():
    start = time.time()
    for q in (3, 5, 7):
        field = PrimeField(q)
        for s in (2, 3):
            for v in itertools.product(range(1, 5), repeat=s):
                X = enumerate_degenerate_torus(field, v)
                inv = degenerate_torus_invariants(TorusSpec(q, v))
                assert len(X) == inv.deg, (q, v)
                assert regularity_points(X) == inv.reg, (q, v)
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(f"PASS criterion 6: degenerate-torus formulas equal the enumeration "
          f"oracle for q in (3,5,7), v entries <= 4, s <= 3 ({elapsed:.1f}s)")


def test_criterion_07_elimination_vanishing_ideal():
    cases = [
        (3, [(1,), (2,)]),
        (3, [(1, 1), (1, 2), (2, 1)]),
        (3, [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]),
        (5, [(1,), (2,)]),
        (5, [(2, 1), (1, 2)]),
        (5, [(1, 0), (0, 1), (1, 1)]),
    ]
    for q, vs in cases:
        field = PrimeField(q)
        X = enumerate_parameterized(field, vs)
        I = vanishing_ideal_finite_field(vs, q)
        assert check_vanishing(I, X), (q, vs)
        reg = regularity_points(X)
        std = standard_grading(I.num_vars)
        F = ideal_hilbert(I, MonomialOrder.grevlex(std), std)
        assert F.expand(reg + 2) == hilbert_table_points(X, reg + 2), (q, vs)
    print("PASS criterion 7: vanishing ideals vanish on the points "
          "and reproduce the evaluation-rank tables up to reg + 2")


def _ci_instances():
    """Seeded complete intersections: weighted monomial-curve pairs and
    weighted staircases."""
    out = []
    for a, b in [(2, 3), (4, 6), (3, 5), (2, 5), (5, 10)]:
        g = gcd(a, b)
        L = kernel_lattice([[a, b]])
        B = [Binomial((b // g, 0), (0, a // g))]
        out.append((L, B, Grading((a, b))))
    for d in [(2, 3, 4), (1, 2, 3), (2, 2, 3), (3, 4, 6), (2, 6, 3)]:
        d1, d2, d3 = d
        g1, g2 = gcd(d1, d2), gcd(d2, d3)
        L = Lattice(3, [(d2 // g1, -d1 // g1, 0), (0, d3 // g2, -d2 // g2)])
        B = [
            Binomial((d2 // g1, 0, 0), (0, d1 // g1, 0)),
            Binomial((0, d3 // g2, 0), (0, 0, d2 // g2)),
        ]
        out.append((L, B, Grading(d)))
    return out


def _non_ci_instances():
    out = []
    # count mismatch: one binomial for a rank-2 lattice
    for d in [(1, 2, 3), (2, 3, 4), (1, 1, 1)]:
        d1, d2, d3 = d
        g1 = gcd(d1, d2)
        L = Lattice(
            3,
            [
                (d2 // g1, -d1 // g1, 0),
                (0, d3 // gcd(d2, d3), -d2 // gcd(d2, d3)),
            ],
        )
        out.append((L, [Binomial((d2 // g1, 0, 0), (0, d1 // g1, 0))], Grading(d)))
    # right count, wrong ideal: doubled exponents generate a proper subideal
    for a, b in [(1, 1), (2, 3), (3, 5), (1, 2)]:
        g = gcd(a, b)
        L = kernel_lattice([[a, b]])
        B = [Binomial((2 * b // g, 0), (0, 2 * a // g))]
        out.append((L, B, Grading((a, b))))
    for k, m in [(1, 2), (2, 2), (3, 1)]:
        L = Lattice(3, [(k, -k, 0), (0, m, -m)])
        B = [
            Binomial((2 * k, 0, 0), (0, 2 * k, 0)),
            Binomial((0, 2 * m, 0), (0, 0, 2 * m)),
        ]
        out.append((L, B, standard_grading(3)))
    return out


def test_criterion_08_ci_preservation():
    ci = _ci_instances()
    non_ci = _non_ci_instances()
    assert len(ci) == 10 and len(non_ci) == 10
    for L, B, d in ci:
        std = standard_grading(L.ambient_dim)
        assert is_complete_intersection(L, B, d), (L.basis, d)
        assert is_complete_intersection(
            homogenize_lattice(L, d), homogenize_binomials(B, d), std
        ), (L.basis, d)
    for L, B, d in non_ci:
        std = standard_grading(L.ambient_dim)
        assert not is_complete_intersection(L, B, d), (L.basis, d)
        assert not is_complete_intersection(
            homogenize_lattice(L, d), homogenize_binomials(B, d), std
        ), (L.basis, d)
    print("PASS criterion 8: complete-intersection certificates agree across "
          "the homogenization correspondence on 10 CI and 10 non-CI instances")


def _random_bipartite(rng, q):
    max_v = 9 if q == 3 else 6
    while True:
        left = rng.randint(1, max_v - 1)
        right = rng.randint(1, max_v - left)
        n = left + right
        edges = set()
        for u in range(1, left + 1):
            for v in range(left + 1, n + 1):
                if rng.random() < 0.5:
                    edges.add((u, v))
        if not edges or len(edges) > 9:
            continue
        G = graph(n, edges)
        if G.isolated_vertices():
            continue
        return G


def test_criterion_09_block_additivity():
    start = time.time()
    field3 = PrimeField(3)
    parts = [
        regularity_points(edge_point_set(graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), field3)),
        regularity_points(edge_point_set(graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), field3)),
    ]
    assert parts == [1, 1]
    assert reg_bipartite_blocks(TWO_C4, field3) == 3
    assert regularity_points(edge_point_set(TWO_C4, field3)) == 3
    rng = random.Random(99)
    for q in (3, 5):
        field = PrimeField(q)
        for _ in range(10):
            G = _random_bipartite(rng, q)
            assert reg_bipartite_blocks(G, field) == regularity_points(
                edge_point_set(G, field)
            ), (q, G.n, G.sorted_edges)
    elapsed = time.time() - start
    assert elapsed < 120.0
    print(f"PASS criterion 9: block additivity of regularity on the shared-vertex "
          f"double 4-cycle and 20 seeded bipartite graphs ({elapsed:.1f}s)")


def test_criterion_10_bipartite_bounds():
    field3 = PrimeField(3)
    rng = random.Random(123)
    sampled = 0
    while sampled < 12:
        q = (3, 5)[sampled % 2]
        field = PrimeField(q)
        G = _random_bipartite(rng, q)
        from latreg.graphblocks import connected_components

        if len(connected_components(G)) != 1:
            continue
        lo, hi = reg_bounds_bipartite(G, field)
        reg = regularity_points(edge_point_set(G, field))
        assert lo <= reg <= hi, (q, G.sorted_edges)
        sampled += 1
    # equality at the lower bound: complete bipartite K_{2,2} and the
    # Hamiltonian 6-cycle; at the upper bound: trees
    assert reg_bounds_bipartite(C4, field3)[0] == regularity_points(
        edge_point_set(C4, field3)
    )
    assert reg_bounds_bipartite(C6, field3)[0] == regularity_points(
        edge_point_set(C6, field3)
    )
    for tree in [
        graph(3, [(1, 2), (2, 3)]),
        graph(5, [(1, 2), (1, 3), (3, 4), (3, 5)]),
    ]:
        assert reg_bounds_bipartite(tree, field3)[1] == regularity_points(
            edge_point_set(tree, field3)
        )
    print("PASS criterion 10: theoretical bounds bracket the oracle regularity, "
          "with equality at the expected extremes")


def test_criterion_11_colon_method():
    for q in (3, 5):
        field = PrimeField(q)
        for G in (C4, C6):
            assert reg_colon_method(G, field) == regularity_points(
                edge_point_set(G, field)
            ), (q, G.sorted_edges)
    print("PASS criterion 11: colon-method regularity equals the point oracle "
          "on the 4-cycle and 6-cycle for q in (3,5)")


def test_criterion_12_structural():
    rng = random.Random(77)
    # pure-difference closure and saturation idempotence
    for _ in range(10):
        L, d = random_homogeneous_lattice(rng)
        I = lattice_ideal_generators(L, d)
        G = buchberger(I, MonomialOrder.grevlex(d))
        assert all(isinstance(g, Binomial) and not g.is_zero() for g in G.elements)
        S = saturate_all(I)
        assert saturate_all(S).gens == S.gens
        assert is_lattice_ideal(S)
    # is_lattice_ideal soundness on 30 seeded ideals: saturated ideals pass,
    # variable-multiplied proper subideals fail
    checked = 0
    while checked < 30:
        L, d = random_homogeneous_lattice(rng, s=rng.randint(2, 3))
        I = lattice_ideal_generators(L, d)
        if not I.gens:
            continue
        if checked % 2 == 0:
            assert is_lattice_ideal(I)
        else:
            i = checked % I.num_vars
            bumped = tuple(
                Binomial(
                    tuple(p + (1 if j == i else 0) for j, p in enumerate(g.plus)),
                    tuple(m + (1 if j == i else 0) for j, m in enumerate(g.minus)),
                )
                for g in I.gens
            )
            J = BinomialIdeal(I.num_vars, bumped, d)
            GJ = buchberger(J, MonomialOrder.grevlex(d))
            # certify J is a proper subideal, then the test must say no
            assert normal_form(I.gens[0], GJ) is not None
            assert not is_lattice_ideal(J)
        checked += 1
    # HNF/SNF canonicity round trips
    for _ in range(25):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        H = hermite_normal_form(A)
        assert hermite_normal_form(H) == H
        La, Lh = Lattice(n, A), Lattice(n, H) if H else Lattice(n, [])
        assert La == Lh
        inv = smith_invariants(A)
        assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
        diag = [[inv[i] if i == j else 0 for j in range(n)] for i in range(len(inv))]
        assert smith_invariants(diag) == inv
    print("PASS criterion 12: pure-difference closure, saturation idempotence, "
          "lattice-ideal soundness on 30 seeded ideals, and normal-form "
          "canonicity round trips")
