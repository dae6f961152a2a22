import random
import time

import pytest

from latreg.binomial_gb import (
    BinomialIdeal,
    ideal_equal,
    is_lattice_ideal,
    saturate_all,
    toric_ideal_monomial_map,
    vanishing_ideal_finite_field,
)
from latreg import binomial_gb
from latreg.errors import BudgetExceededError, PreconditionError
from latreg.ffvanish import PrimeField, regularity_points
from latreg.graphblocks import (
    bipartition,
    blocks,
    characteristic_vectors,
    connected_components,
    edge_point_set,
    graph,
    reg_bipartite_blocks,
    reg_bounds_bipartite,
    reg_colon_method,
)
from latreg.ring_core import Binomial, MonomialOrder, standard_grading

F3 = PrimeField(3)
F5 = PrimeField(5)

C4 = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
C6 = graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
TRIANGLE = graph(3, [(1, 2), (2, 3), (1, 3)])
PATH3 = graph(3, [(1, 2), (2, 3)])
TWO_C4 = graph(7, [(1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6), (6, 7), (4, 7)])


def random_bipartite(rng, max_left=3, max_right=3, p_edge=0.6):
    left = rng.randint(1, max_left)
    right = rng.randint(1, max_right)
    n = left + right
    edges = set()
    for u in range(1, left + 1):
        for v in range(left + 1, n + 1):
            if rng.random() < p_edge:
                edges.add((u, v))
    return n, edges


def test_characteristic_vectors_examples():
    assert characteristic_vectors(graph(2, [(1, 2)])) == [(1, 1)]
    assert characteristic_vectors(TRIANGLE) == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    assert characteristic_vectors(C4) == [
        (1, 1, 0, 0),
        (1, 0, 0, 1),
        (0, 1, 1, 0),
        (0, 0, 1, 1),
    ]


def test_bipartition_examples():
    assert bipartition(C4) == ((1, 3), (2, 4))
    assert bipartition(TRIANGLE) is None
    assert bipartition(PATH3) == ((1, 3), (2,))


def test_blocks_examples():
    assert blocks(C4).blocks == (((1, 2), (1, 4), (2, 3), (3, 4)),)
    assert blocks(C4).cutvertices == ()
    dec = blocks(PATH3)
    assert dec.blocks == (((1, 2),), ((2, 3),))
    assert dec.cutvertices == (2,)
    dec2 = blocks(TWO_C4)
    assert dec2.blocks == (
        ((1, 2), (1, 4), (2, 3), (3, 4)),
        ((4, 5), (4, 7), (5, 6), (6, 7)),
    )
    assert dec2.cutvertices == (4,)


def test_blocks_partition_edges():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = set()
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.4:
                    edges.add((u, v))
        if not edges:
            continue
        G = graph(n, edges)
        dec = blocks(G)
        seen = [e for b in dec.blocks for e in b]
        assert sorted(seen) == sorted(G.sorted_edges)
        # any two blocks share at most one vertex
        for i, b1 in enumerate(dec.blocks):
            for b2 in dec.blocks[i + 1 :]:
                v1 = {v for e in b1 for v in e}
                v2 = {v for e in b2 for v in e}
                assert len(v1 & v2) <= 1
        # a vertex is a cutvertex exactly when its removal increases the
        # number of connected components
        def count_components(vertices, edge_list):
            verts = set(vertices)
            adj = {v: [] for v in verts}
            for u, v in edge_list:
                adj[u].append(v)
                adj[v].append(u)
            seen = set()
            comps = 0
            for start in sorted(verts):
                if start in seen:
                    continue
                comps += 1
                stack = [start]
                seen.add(start)
                while stack:
                    u = stack.pop()
                    for w in adj[u]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
            return comps

        all_vertices = range(1, n + 1)
        base = count_components(all_vertices, G.sorted_edges)
        for c in range(1, n + 1):
            if c in G.isolated_vertices():
                continue
            removed = count_components(
                [v for v in all_vertices if v != c],
                [e for e in G.sorted_edges if c not in e],
            )
            assert (removed > base) == (c in dec.cutvertices), (G, c)


def test_edge_point_set_examples():
    X = edge_point_set(graph(2, [(1, 2)]), F3)
    assert X.points == ((1,),)
    assert len(edge_point_set(C4, F3)) == 4
    assert len(edge_point_set(C4, F5)) == 16
    assert edge_point_set(graph(3, [(1, 2)]), F3) == X


def test_reg_blocks_examples():
    assert reg_bipartite_blocks(C4, F3) == 1
    assert reg_bipartite_blocks(TWO_C4, F3) == 3
    assert regularity_points(edge_point_set(TWO_C4, F3)) == 3
    assert reg_bipartite_blocks(PATH3, F3) == 1
    assert regularity_points(edge_point_set(PATH3, F3)) == 1
    with pytest.raises(PreconditionError):
        reg_bipartite_blocks(TRIANGLE, F3)


def test_edge_regularity_budget(monkeypatch):
    # C6 at q = 7: each of the |X| = 6^4 characters is expanded once by the
    # s-1 = 5 steps, one word each; one unit less of walk budget takes the
    # colon, and the answer does not change
    F7 = PrimeField(7)
    colons = []
    saturate = binomial_gb.saturate_variable
    monkeypatch.setattr(
        binomial_gb, "saturate_variable", lambda *a: colons.append(a) or saturate(*a)
    )
    monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 6**4 * 5)
    assert reg_colon_method(C6, F7) == 10
    assert not colons
    monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 6**4 * 5 - 1)
    assert reg_colon_method(C6, F7) == 10
    assert len(colons) == 1


def test_edge_regularity_budget_on_long_path():
    # characters of a 1,000-vertex path over F_3 span 3,000 bits, 47 words a
    # step, and the image of X in the first word already has 2^21 points, so
    # the walk is refused before its first layer; the colon's lattice kernel
    # is charged before it is built
    P = graph(1000, [(i, i + 1) for i in range(1, 1000)])
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        reg_colon_method(P, F3)
    assert time.perf_counter() - start < 4.0


def test_block_additivity_random_suite():
    rng = random.Random(73)
    done = 0
    while done < 6:
        n, edges = random_bipartite(rng)
        if not edges or len(edges) > 6:
            continue
        G = graph(n, edges)
        if G.isolated_vertices():
            continue
        assert reg_bipartite_blocks(G, F3) == regularity_points(
            edge_point_set(G, F3)
        ), (n, sorted(edges))
        done += 1


def test_reg_bounds_examples():
    assert reg_bounds_bipartite(C4, F3) == (1, 2)
    assert reg_bounds_bipartite(PATH3, F3) == (1, 1)
    assert reg_bounds_bipartite(C6, F3) == (2, 4)
    with pytest.raises(PreconditionError):
        reg_bounds_bipartite(TRIANGLE, F3)
    with pytest.raises(PreconditionError):
        reg_bounds_bipartite(graph(4, [(1, 2), (3, 4)]), F3)


def test_reg_bounds_bracket_oracle():
    cases = [
        (C4, F3),
        (C6, F3),
        (PATH3, F3),
        (C4, F5),
        (graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)]), F3),
        (graph(4, [(1, 2), (1, 3), (1, 4)]), F3),
    ]
    for G, field in cases:
        lo, hi = reg_bounds_bipartite(G, field)
        reg = regularity_points(edge_point_set(G, field))
        assert lo <= reg <= hi, (G, field.p)


def test_bounds_equalities():
    # complete bipartite and Hamiltonian graphs attain the lower bound,
    # trees the upper bound
    assert reg_bounds_bipartite(C4, F3)[0] == regularity_points(
        edge_point_set(C4, F3)
    )
    assert reg_bounds_bipartite(C6, F3)[0] == regularity_points(
        edge_point_set(C6, F3)
    )
    for tree in [PATH3, graph(4, [(1, 2), (1, 3), (1, 4)])]:
        assert reg_bounds_bipartite(tree, F3)[1] == regularity_points(
            edge_point_set(tree, F3)
        )


def test_colon_method_examples():
    assert reg_colon_method(C4, F3) == 1
    assert reg_colon_method(C6, F3) == 2
    assert reg_colon_method(C4, F5) == regularity_points(edge_point_set(C4, F5))
    # (q-2)(k-1) for C_2k
    F7 = PrimeField(7)
    assert reg_colon_method(C4, F7) == 5
    assert reg_colon_method(C6, F7) == 10
    # a forest and an odd cycle: (n-2)(q-2) for the path, the oracle values
    # for the triangle
    for G, regs in ((PATH3, (1, 3, 5)), (TRIANGLE, (2, 6, 10))):
        for q, reg in zip((3, 5, 7), regs):
            assert reg_colon_method(G, PrimeField(q)) == reg


def test_complete_bipartite_all_methods_agree():
    k33 = graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    oracle = regularity_points(edge_point_set(k33, F3))
    assert oracle == 2
    assert reg_bipartite_blocks(k33, F3) == oracle
    assert reg_colon_method(k33, F3) == oracle
    assert reg_bounds_bipartite(k33, F3) == (2, 4)  # lower bound attained


def test_toric_plus_powers_saturates_to_vanishing_ideal():
    # for a bipartite non-forest graph, P + powers is a proper subideal of
    # I(X): not a lattice ideal, and its saturation is exactly I(X)
    q = 3
    vs = characteristic_vectors(C4)
    s = len(vs)
    std = standard_grading(s)
    P = toric_ideal_monomial_map(vs, homogenize_with_z=True)
    gens = list(P.gens)
    for i in range(s):
        for j in range(i + 1, s):
            plus = tuple(q - 1 if k == i else 0 for k in range(s))
            minus = tuple(q - 1 if k == j else 0 for k in range(s))
            gens.append(Binomial(plus, minus))
    I = BinomialIdeal(s, tuple(gens), std)
    assert not is_lattice_ideal(I)
    IX = vanishing_ideal_finite_field(vs, q)
    assert ideal_equal(saturate_all(I), IX, MonomialOrder.grevlex(std))
