import itertools
import os
import random
import subprocess
import sys
import time

import pytest

from helpers import (
    closed_under_products,
    naive_point_rank,
    primitive_root_parameterization,
)
from latreg import binomial_gb, ffvanish
from latreg.binomial_gb import BinomialIdeal, vanishing_ideal_finite_field
from latreg.errors import (
    BudgetExceededError,
    InvalidArgumentError,
    UnsupportedFieldError,
)
from latreg.ffvanish import (
    PointSet,
    PrimeField,
    check_vanishing,
    enumerate_degenerate_torus,
    enumerate_parameterized,
    hilbert_function_points,
    hilbert_table_points,
    is_subgroup_of_torus,
    parameterized_hilbert_table,
    point_set,
    regularity_points,
    subgroup_to_monomials,
    vanishing_ideal_table,
)
from latreg.graphblocks import graph, reg_bipartite_blocks, reg_colon_method
from latreg.ring_core import parse_binomial

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def test_prime_field_validation():
    with pytest.raises(UnsupportedFieldError):
        PrimeField(6)
    with pytest.raises(UnsupportedFieldError):
        PrimeField(1)


def test_enumerate_examples():
    assert enumerate_parameterized(F3, [(1,), (1,)]).points == ((1, 1),)
    X = enumerate_parameterized(F5, [(1,), (2,)])
    assert X.points == ((1, 1), (2, 1), (3, 1), (4, 1))
    cyc = [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    assert len(enumerate_parameterized(F3, cyc)) == 4
    with pytest.raises(UnsupportedFieldError):
        enumerate_parameterized(PrimeField(2), [(1,)])
    with pytest.raises(InvalidArgumentError):
        enumerate_parameterized(F3, [(1,), (0,)])


def test_enumeration_budget(monkeypatch):
    # 3 parameters over F_7 make 6^3 tuples
    vs = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    monkeypatch.setattr(ffvanish, "_ENUMERATION_BUDGET", 6**3)
    assert len(enumerate_parameterized(F7, vs)) == 6**2
    monkeypatch.setattr(ffvanish, "_ENUMERATION_BUDGET", 6**3 - 1)
    with pytest.raises(BudgetExceededError) as e:
        enumerate_parameterized(F7, vs)
    assert str(e.value) == f"enumeration needs more than {6**3 - 1} parameter tuples"


def test_degenerate_torus_examples():
    assert len(enumerate_degenerate_torus(F5, (1, 2))) == 4
    assert enumerate_degenerate_torus(F3, (1, 1)).points == ((1, 1), (2, 1))
    assert len(enumerate_degenerate_torus(F7, (1, 1, 1))) == 36


def test_torus_equals_disjoint_parameterization():
    vs = [(1, 0), (0, 2)]
    assert (
        enumerate_parameterized(F5, vs).points
        == enumerate_degenerate_torus(F5, (1, 2)).points
    )


def test_hilbert_function_examples():
    X = enumerate_degenerate_torus(F5, (1, 2))
    assert hilbert_function_points(X, 0) == 1
    assert hilbert_function_points(X, 2) == 3
    assert hilbert_function_points(X, 3) == 4
    assert hilbert_table_points(X, 4) == [1, 2, 3, 4, 4]


def test_hilbert_function_matches_monomial_rank():
    # the fast product-basis chain equals rank of the textbook
    # (monomials x points) evaluation matrix
    sets = [
        enumerate_degenerate_torus(F5, (1, 2)),
        enumerate_degenerate_torus(F3, (1, 1)),
        enumerate_parameterized(
            F3, [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
        ),
        point_set(F5, [(1, 0), (0, 1), (1, 1)]),
    ]
    for X in sets:
        for d in range(5):
            assert hilbert_function_points(X, d) == naive_point_rank(
                X.points, X.field.p, d
            ), (X.points, d)


def test_rank_exact_for_primes_beyond_int64_products():
    # products of two residues mod p overflow int64 for p > ~3.03e9; ten
    # points of P^2 in general position have H = 1, 3, 6, 10
    p = 4294967311
    rng = random.Random(1)
    X = point_set(PrimeField(p), [(rng.randrange(p), rng.randrange(p), 1) for _ in range(10)])
    assert hilbert_table_points(X, 4) == [1, 3, 6, 10, 10]
    assert [naive_point_rank(X.points, p, d) for d in range(5)] == [1, 3, 6, 10, 10]


def test_parameterized_hilbert_table_examples():
    assert parameterized_hilbert_table(F5, [(1, 0), (0, 2)]) == [1, 2, 3, 4]
    assert parameterized_hilbert_table(F3, [(1,), (1,)]) == [1]
    cyc = [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    assert parameterized_hilbert_table(F3, cyc) == [1, 4]


def test_sumset_budget_charged_per_word(monkeypatch):
    # over F_3 a coordinate packs into 3 bits, so 21 coordinates fill one
    # 64-bit word and 22 need two; X has two points and s-1 = 1, so the
    # walk takes 2 steps, each charged once per word; one unit less of walk
    # budget takes the colon, and the table does not change
    colons = []
    colon = binomial_gb._colon_ideal
    monkeypatch.setattr(
        binomial_gb, "_colon_ideal", lambda *a: colons.append(a) or colon(*a)
    )
    for n, words in ((21, 1), (22, 2)):
        vs = [(1,) * n, (2,) * n]
        monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 2 * words)
        assert parameterized_hilbert_table(F3, vs) == [1, 2]
        assert not colons
        monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 2 * words - 1)
        assert parameterized_hilbert_table(F3, vs) == [1, 2]
        assert colons.pop() == (vs, 3)


def test_table_builds_no_binomials(monkeypatch):
    # the table alone, from plain vanish and every graph-reg method but the
    # bounds, builds no binomial of I(X) on the walk
    built = []
    binomial = binomial_gb.Binomial
    monkeypatch.setattr(
        binomial_gb, "Binomial", lambda *a: built.append(a) or binomial(*a)
    )
    cyc = [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    assert parameterized_hilbert_table(F5, cyc) == [1, 4, 9, 16]
    C4 = graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert reg_colon_method(C4, F5) == reg_bipartite_blocks(C4, F5) == 3
    assert not built
    I, table = vanishing_ideal_table(F5, cyc)
    assert table == [1, 4, 9, 16] and len(built) == len(I.gens) > 0


def test_parameterized_checks_match_enumeration():
    common = "need exponent vectors of one common length"
    signs = "exponent vectors must be nonzero and nonnegative"
    bad = [
        (PrimeField(2), [(1,)], UnsupportedFieldError, "parameterized sets need p >= 3"),
        (F3, [], InvalidArgumentError, common),
        (F3, [(1,), (1, 2)], InvalidArgumentError, common),
        (F3, [(1,), (0,)], InvalidArgumentError, signs),
        (F3, [(1, -1)], InvalidArgumentError, signs),
    ]
    for field, vs, cls, message in bad:
        for route in (enumerate_parameterized, parameterized_hilbert_table):
            with pytest.raises(cls) as e:
                route(field, vs)
            assert str(e.value) == message, route


def test_import_does_not_load_numpy():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, latreg; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_hilbert_function_monotone_bounded():
    X = enumerate_parameterized(F7, [(1,), (3,)])
    table = hilbert_table_points(X, 8)
    assert all(a <= b for a, b in zip(table, table[1:]))
    assert all(v <= len(X) for v in table)


def test_regularity_examples():
    assert regularity_points(point_set(F5, [(2, 1)])) == 0
    assert regularity_points(enumerate_degenerate_torus(F5, (1, 2))) == 3
    assert regularity_points(enumerate_degenerate_torus(F3, (1, 1))) == 1


def test_subgroup_examples():
    assert is_subgroup_of_torus(enumerate_degenerate_torus(F5, (1, 2)))
    assert not is_subgroup_of_torus(point_set(F5, [(1, 1), (2, 1)]))
    assert is_subgroup_of_torus(point_set(F5, [(1, 1)]))
    assert not is_subgroup_of_torus(point_set(F5, [(1, 0), (0, 1)]))


def test_parameterized_sets_are_subgroups():
    for vs in [
        [(1,), (2,)],
        [(2, 1), (1, 1), (0, 3)],
        [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)],
    ]:
        for field in (F3, F5):
            assert is_subgroup_of_torus(enumerate_parameterized(field, vs))


def test_subgroup_to_monomials_round_trip():
    cases = [
        point_set(F5, [(1, 1)]),
        enumerate_degenerate_torus(F5, (1, 2)),
        enumerate_degenerate_torus(F5, (1, 1)),
        enumerate_degenerate_torus(F7, (2, 3)),
        enumerate_parameterized(F7, [(1, 2), (2, 1), (1, 1)]),
    ]
    rng = random.Random(10)
    while len(cases) < 65:
        field = PrimeField(rng.choice([3, 5, 7, 11, 13]))
        s, k = rng.randint(1, 4), rng.randint(1, 3)
        vs = [tuple(rng.randint(0, 2 * field.p) for _ in range(k)) for _ in range(s)]
        if (field.p - 1) ** k <= 150 and all(any(v) for v in vs):
            cases.append(enumerate_parameterized(field, vs))
    for X in cases:
        vs = subgroup_to_monomials(X)
        assert all(any(e for e in v) for v in vs)
        assert len(vs[0]) <= max(1, X.num_coords - 1)
        assert enumerate_parameterized(X.field, vs).points == X.points
    with pytest.raises(InvalidArgumentError):
        subgroup_to_monomials(point_set(F5, [(1, 1), (2, 1)]))


def test_subgroup_to_monomials_reads_hermite_basis():
    # the full torus of P^2 over F_7 is generated by the two coordinate
    # lines; the trivial group gets one parameter
    assert subgroup_to_monomials(enumerate_degenerate_torus(F7, (1, 1, 1))) == [
        (1, 6),
        (6, 1),
        (6, 6),
    ]
    assert subgroup_to_monomials(point_set(F7, [(1, 1, 1)])) == [(6,), (6,), (6,)]
    assert subgroup_to_monomials(point_set(F7, [(3,)])) == [(6,)]


def test_subgroup_route_matches_product_closure():
    # seeded parameterized subgroups, each less one point, plus a random
    # point, and a random half, against the |X|^2 product test; on every
    # subgroup the parameters equal those read off logs to a primitive root
    rng = random.Random(11)
    sets = []
    while len(sets) < 1000:
        field = PrimeField(rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
        p = field.p
        s, k = rng.randint(1, 4), rng.randint(1, 3)
        vs = [tuple(rng.randint(0, 2 * p) for _ in range(k)) for _ in range(s)]
        if (p - 1) ** k > 150 or not all(any(v) for v in vs):
            continue
        pts = list(enumerate_parameterized(field, vs).points)
        sets.append(point_set(field, pts))
        if len(pts) > 1:
            sets.append(point_set(field, rng.sample(pts, len(pts) - 1)))
            sets.append(point_set(field, rng.sample(pts, (len(pts) + 1) // 2)))
        extra = tuple(rng.randrange(p) for _ in range(s))
        if any(extra):
            sets.append(point_set(field, pts + [extra]))
    subgroups = 0
    for X in sets:
        want = closed_under_products(X)
        assert is_subgroup_of_torus(X) == want
        if want:
            subgroups += 1
            assert subgroup_to_monomials(X) == primitive_root_parameterization(X)
    assert 0 < subgroups < len(sets)


def test_subgroup_route_scales_with_x_not_q():
    # the full torus of P^3 over F_13 has 1,728 points, so ~3e6 products;
    # the pair over F_{2^61-1} would need a table of 2^61-2 powers
    p = 2**61 - 1
    cases = [
        (
            enumerate_degenerate_torus(PrimeField(13), (1, 1, 1, 1)),
            [(1, 12, 12), (12, 1, 12), (12, 12, 1), (12, 12, 12)],
        ),
        (point_set(PrimeField(p), [(1, 1), (-1, 1)]), [((p - 1) // 2,), (p - 1,)]),
    ]
    for X, want in cases:
        start = time.perf_counter()
        assert is_subgroup_of_torus(X)
        assert time.perf_counter() - start < 1
        start = time.perf_counter()
        assert subgroup_to_monomials(X) == want
        assert time.perf_counter() - start < 1


def test_check_vanishing_examples():
    I = BinomialIdeal(2, (parse_binomial("t1 - t2", 2),))
    assert check_vanishing(I, point_set(F5, [(1, 1)]))
    assert not check_vanishing(I, point_set(F5, [(2, 1)]))
    I2 = BinomialIdeal(2, (parse_binomial("t1^2 - t2^2", 2),))
    assert check_vanishing(I2, point_set(F3, [(1, 1), (2, 1)]))
    with pytest.raises(InvalidArgumentError):
        check_vanishing(
            BinomialIdeal(2, (parse_binomial("t1 - t2^2", 2),)),
            point_set(F3, [(1, 1)]),
        )


def test_vanishing_ideal_agrees_with_points():
    # the eliminated ideal vanishes on the enumerated set and its Hilbert
    # table matches the evaluation ranks
    from latreg.hilbert import hilbert_table, ideal_hilbert
    from latreg.ring_core import MonomialOrder, standard_grading

    cases = [
        (3, [(1,), (2,)]),
        (5, [(1,), (2,)]),
        (3, [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]),
        (5, [(2, 1), (1, 2)]),
    ]
    for q, vs in cases:
        field = PrimeField(q)
        X = enumerate_parameterized(field, vs)
        I = vanishing_ideal_finite_field(vs, q)
        assert check_vanishing(I, X)
        reg = regularity_points(X)
        std = standard_grading(I.num_vars)
        F = ideal_hilbert(I, MonomialOrder.grevlex(std), std)
        table = F.expand(reg + 2)
        assert table == hilbert_table_points(X, reg + 2)
        assert table[reg] == len(X)


def test_stabilized_value_counts_points():
    for X in [
        enumerate_degenerate_torus(F5, (1, 2)),
        enumerate_degenerate_torus(F7, (1, 1)),
        enumerate_parameterized(F3, [(1, 2), (2, 1)]),
    ]:
        reg = regularity_points(X)
        assert hilbert_function_points(X, reg) == len(X)
        assert hilbert_function_points(X, reg + 1) == len(X)


def test_point_normalization_canonical():
    X = point_set(F5, [(2, 4), (1, 2), (3, 0)])
    # (2,4) and (1,2) both normalize to (3,1): same projective point
    assert X.points == ((1, 0), (3, 1))
