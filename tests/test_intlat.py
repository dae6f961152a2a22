import random
import time

import pytest
import sympy
from sympy.matrices.normalforms import hermite_normal_form as sy_hnf
from sympy.matrices.normalforms import invariant_factors as sy_inv

from helpers import det, random_homogeneous_lattice
from latreg.errors import DimensionError, InvalidArgumentError, LatregError
from latreg.intlat import (
    Lattice,
    hermite_normal_form,
    homogenize_lattice,
    is_homogeneous,
    is_prime,
    kernel_lattice,
    saturate_lattice,
    smith_invariants,
    torsion_order,
)
from latreg.ring_core import Grading


def test_hnf_examples():
    # canonical form: entries above each pivot reduced modulo the pivot
    assert hermite_normal_form([[2, 4], [1, 3]]) == ((1, 1), (0, 2))
    assert hermite_normal_form([[1, 0], [0, 1]]) == ((1, 0), (0, 1))
    assert hermite_normal_form([[0, 0]]) == ()


def test_hnf_idempotent_and_preserves_row_lattice():
    rng = random.Random(7)
    for _ in range(150):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        H = hermite_normal_form(A)
        assert hermite_normal_form(H) == H
        mine = Lattice(n, H) if H else Lattice(n, [])
        # sympy computes the column HNF; transpose twice to compare lattices
        sy = sy_hnf(sympy.Matrix(A).T).T
        sy_rows = [tuple(int(x) for x in sy.row(i)) for i in range(sy.rows)]
        sy_rows = [r for r in sy_rows if any(r)]
        theirs = Lattice(n, sy_rows) if sy_rows else Lattice(n, [])
        assert all(mine.contains(r) for r in sy_rows)
        assert all(theirs.contains(r) for r in H)
        assert mine.rank == theirs.rank


def test_snf_examples():
    assert smith_invariants([[3, -2]]) == (1,)
    assert smith_invariants([[2, 0], [0, 2]]) == (2, 2)
    assert smith_invariants([[2, -2]]) == (2,)
    assert smith_invariants([[2, 0], [0, 3]]) == (1, 6)
    assert smith_invariants([[0, 0]]) == ()
    assert smith_invariants([]) == ()


def test_snf_canonical_random():
    rng = random.Random(11)
    for _ in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = tuple(
            tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(m)
        )
        inv = smith_invariants(A)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        assert inv == tuple(int(x) for x in sy_inv(sympy.Matrix(A)) if int(x) != 0)


def test_torsion_examples():
    assert torsion_order(Lattice(2, [(3, -2)])) == 1
    assert torsion_order(Lattice(2, [(2, -2)])) == 2
    assert torsion_order(Lattice(2, [])) == 1


def test_homogeneity_examples():
    assert is_homogeneous(Lattice(2, [(3, -2)]), Grading((2, 3)))
    assert is_homogeneous(Lattice(2, [(1, -1)]), Grading((1, 1)))
    assert not is_homogeneous(Lattice(2, [(1, 0)]), Grading((1, 1)))


def test_homogenize_examples():
    assert homogenize_lattice(Lattice(2, [(3, -2)]), Grading((2, 3))).basis == (
        (6, -6),
    )
    L = Lattice(3, [(1, 1, -2)])
    assert homogenize_lattice(L, Grading((1, 1, 1))) == L
    assert homogenize_lattice(L, Grading((2, 2, 2))).basis == ((2, 2, -4),)


def test_saturate_examples():
    assert saturate_lattice(Lattice(2, [(2, -2)])).basis == ((1, -1),)
    assert saturate_lattice(Lattice(2, [(3, -2)])).basis == ((3, -2),)
    zero = Lattice(3, [])
    assert saturate_lattice(zero) == zero


def test_saturate_properties():
    rng = random.Random(3)
    for _ in range(60):
        L, _ = random_homogeneous_lattice(rng)
        S = saturate_lattice(L)
        assert saturate_lattice(S) == S
        assert S.rank == L.rank
        assert all(S.contains(row) for row in L.basis)
        assert torsion_order(S) == 1


def test_kernel_examples():
    assert kernel_lattice([[2, 3]]).basis == ((3, -2),)
    assert kernel_lattice([[1, 0], [0, 1]]).basis == ()
    K = kernel_lattice([[1, 1, 1]])
    assert K.rank == 2
    assert K.contains((1, -1, 0)) and K.contains((0, 1, -1))


def test_seeded_dense_kernel_and_invariants():
    # a 10 x 8 matrix with entries up to 1000: transform-carrying Smith
    # elimination took over a minute here, from coefficient growth in U and V
    rng = random.Random(5)
    m, n = rng.randint(6, 12), rng.randint(6, 12)
    assert (m, n) == (10, 8)
    A = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
    At = [list(col) for col in zip(*A)]
    start = time.perf_counter()
    K, Kt = kernel_lattice(A), kernel_lattice(At)
    inv = smith_invariants(A)
    assert time.perf_counter() - start < 1.0
    assert inv == tuple(int(x) for x in sy_inv(sympy.Matrix(A)) if int(x) != 0)
    assert (K.rank, Kt.rank, len(inv)) == (0, 2, 8)
    for row in Kt.basis:
        assert all(sum(a * x for a, x in zip(ar, row)) == 0 for ar in At)
    assert saturate_lattice(Kt) == Kt


def test_kernel_is_saturated_and_correct():
    rng = random.Random(5)
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(2, 4)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        K = kernel_lattice(A)
        for row in K.basis:
            assert all(sum(a * x for a, x in zip(ar, row)) == 0 for ar in A)
        assert saturate_lattice(K) == K


def test_torsion_multiplicativity():
    # |T(Z^s/D(L))| = (prod d_i) |T(Z^s/L)| for homogeneous rank-(s-1) L
    # with gcd(d) = 1
    rng = random.Random(13)
    done = 0
    while done < 40:
        L, d = random_homogeneous_lattice(rng)
        if d.r != 1 or L.rank != L.ambient_dim - 1:
            continue
        D = homogenize_lattice(L, d)
        expected = torsion_order(L)
        for w in d.weights:
            expected *= w
        assert torsion_order(D) == expected
        done += 1


def test_unit_differences_in_saturated_homogenization():
    rng = random.Random(17)
    done = 0
    while done < 40:
        L, d = random_homogeneous_lattice(rng)
        if L.rank != L.ambient_dim - 1:
            continue
        S = saturate_lattice(homogenize_lattice(L, d))
        s = L.ambient_dim
        for i in range(s):
            for j in range(s):
                e = [0] * s
                e[i] += 1
                e[j] -= 1
                assert S.contains(e)
        done += 1


def test_torsion_matches_minor_gcd_on_corank_one():
    # the (s-1)-minor gcd of a rank-(s-1) presentation equals the product of
    # the invariant factors
    from math import gcd

    rng = random.Random(19)
    done = 0
    while done < 30:
        L, _ = random_homogeneous_lattice(rng)
        s = L.ambient_dim
        if L.rank != s - 1:
            continue
        rows = L.basis
        minors = []
        for drop in range(s):
            sub = [
                [row[c] for c in range(s) if c != drop] for row in rows
            ]
            minors.append(abs(det(sub)))
        g = 0
        for m in minors:
            g = gcd(g, m)
        assert g == torsion_order(L)
        done += 1


def test_least_multiple_examples():
    L = Lattice(2, [(2, -2)])
    assert L.least_multiple((1, -1)) == 2
    assert L.least_multiple((3, -3)) == 2
    assert L.least_multiple((4, -4)) == 1
    assert L.least_multiple((0, 0)) == 1
    # (1, 0, -1) is 1/3 of (3, 0, -3) = (1, 1, -2) + (2, -1, -1)
    assert Lattice(3, [(1, 1, -2), (2, -1, -1)]).least_multiple((1, 0, -1)) == 3
    with pytest.raises(InvalidArgumentError, match="no multiple"):
        L.least_multiple((1, 0))
    with pytest.raises(LatregError):
        Lattice(3, [(1, -1, 0)]).least_multiple((0, 1, -1))
    with pytest.raises(DimensionError):
        L.least_multiple((1, -1, 0))


def test_least_multiple_matches_search():
    # the least k > 0 with k v in L is at most the index of L in its
    # saturation, so a search over contains finds it
    rng = random.Random(29)
    for _ in range(80):
        L, d = random_homogeneous_lattice(rng)
        bound = torsion_order(L)
        basis = kernel_lattice([d.weights]).basis
        for _ in range(3):
            mix = [rng.randint(-2, 2) for _ in basis]
            v = [sum(c * x for c, x in zip(mix, col)) for col in zip(*basis)]
            k = next(k for k in range(1, bound + 1) if L.contains([k * x for x in v]))
            assert L.least_multiple(v) == k


def test_lattice_rank_equals_nonzero_invariants():
    rng = random.Random(23)
    for _ in range(40):
        L, _ = random_homogeneous_lattice(rng)
        assert L.rank == len(L.smith_invariants)


def test_lattice_ambient_mismatch():
    with pytest.raises(Exception):
        Lattice(2, [(1, 2, 3)])
    with pytest.raises(InvalidArgumentError):
        kernel_lattice([])


def test_is_prime_matches_sympy():
    assert [q for q in range(-3, 20000) if is_prime(q)] == list(sympy.primerange(2, 20000))
    rng = random.Random(7)
    for q in [rng.randrange(10**6, 10**24) for _ in range(300)]:
        assert is_prime(q) == sympy.isprime(q), q
    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    for q in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(q)
    for q in (4294967311, 10**14 + 31, 2**61 - 1, 2**89 - 1):
        assert is_prime(q)
    # q far beyond float range answers at once
    assert is_prime(2**1279 - 1)
    assert not is_prime((2**521 - 1) * (2**607 - 1))
