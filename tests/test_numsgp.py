import random
from math import gcd

import pytest

from helpers import frobenius_oracle
from latreg import numsgp
from latreg.errors import BudgetExceededError, InvalidArgumentError, InvalidSemigroupError
from latreg.numsgp import NumericalSemigroup, apery_set, frobenius_number, membership


def test_frobenius_examples():
    assert frobenius_number(NumericalSemigroup((2, 3))) == 1
    assert frobenius_number(NumericalSemigroup((1,))) == -1
    assert frobenius_number(NumericalSemigroup((6, 9, 20))) == 43
    assert frobenius_number(NumericalSemigroup((3, 5))) == 7


def test_frobenius_rejects_gcd():
    with pytest.raises(InvalidSemigroupError):
        frobenius_number(NumericalSemigroup((2, 4)))


def test_frobenius_against_bfs_oracle():
    rng = random.Random(101)
    done = 0
    while done < 40:
        k = rng.randint(1, 4)
        gens = tuple(sorted({rng.randint(1, 50) for _ in range(k)}))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        assert frobenius_number(NumericalSemigroup(gens)) == frobenius_oracle(gens)
        done += 1


def test_sylvester_exhaustive():
    for a in range(2, 31):
        for b in range(a + 1, 31):
            if gcd(a, b) == 1:
                assert frobenius_number(NumericalSemigroup((a, b))) == a * b - a - b


def test_sylvester_large_coprime_pairs():
    # one round-robin pass per generator: moduli in the tens of thousands
    # answer at once
    for a, b in [(4000, 7999), (20000, 39999), (9973, 10007), (2, 40001)]:
        assert frobenius_number(NumericalSemigroup((a, b))) == a * b - a - b
    gens = (50, 71, 99)
    assert frobenius_number(NumericalSemigroup(gens)) == frobenius_oracle(gens)


def test_apery_examples():
    assert apery_set(NumericalSemigroup((2, 3)), 2) == [0, 3]
    assert apery_set(NumericalSemigroup((1,)), 1) == [0]
    assert apery_set(NumericalSemigroup((3, 5)), 3) == [0, 10, 5]


def test_apery_gives_frobenius():
    rng = random.Random(5)
    done = 0
    while done < 25:
        gens = tuple(sorted({rng.randint(2, 50) for _ in range(rng.randint(2, 4))}))
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            continue
        S = NumericalSemigroup(gens)
        m = gens[0]
        ap = apery_set(S, m)
        assert len(ap) == m
        assert max(ap) - m == frobenius_number(S)
        for r, val in enumerate(ap):
            assert val % m == r
            assert membership(S, val)
            if val >= m:
                assert not membership(S, val - m)
        done += 1


def test_apery_rejects_non_elements():
    with pytest.raises(InvalidArgumentError):
        apery_set(NumericalSemigroup((3, 5)), 4)


def test_apery_budget(monkeypatch):
    # one table of m residues for k generators costs m * k steps: (6, 9, 20)
    # modulo 6 takes 18, and modulo 9 (for apery_set) takes 27
    S = NumericalSemigroup((6, 9, 20))
    monkeypatch.setattr(numsgp, "_APERY_BUDGET", 18)
    assert frobenius_number(S) == 43
    assert membership(S, 29) and not membership(S, 43)
    with pytest.raises(BudgetExceededError, match="passes 18 steps"):
        apery_set(S, 9)
    monkeypatch.setattr(numsgp, "_APERY_BUDGET", 17)
    for call in (lambda: frobenius_number(S), lambda: membership(S, 29)):
        with pytest.raises(BudgetExceededError, match="6 residues and 3 generators"):
            call()


def test_membership_examples():
    S = NumericalSemigroup((3, 5))
    assert not membership(S, 7)
    assert membership(S, 8)
    assert membership(S, 0)
    assert not membership(S, -2)


def test_membership_around_frobenius():
    for gens in [(2, 3), (3, 5), (6, 9, 20), (5, 7, 9)]:
        S = NumericalSemigroup(gens)
        g = frobenius_number(S)
        if g >= 0:
            assert not membership(S, g)
        for n in range(g + 1, g + 20):
            assert membership(S, n)


def test_reduced_helper():
    S, r = NumericalSemigroup((4, 6)).reduced()
    assert r == 2 and S.generators == (2, 3)
    assert frobenius_number(S) == 1


def test_rejects_bad_generators():
    with pytest.raises(InvalidArgumentError):
        NumericalSemigroup((0, 3))
    with pytest.raises(InvalidArgumentError):
        NumericalSemigroup(())
