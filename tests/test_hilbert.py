import random

import pytest

from helpers import random_homogeneous_lattice
from latreg.binomial_gb import (
    BinomialIdeal,
    buchberger,
    initial_ideal,
    lattice_ideal_generators,
)
from latreg.errors import (
    InvalidArgumentError,
    NeedsLongerTableError,
)
from latreg.hilbert import (
    HilbertSeries,
    a_invariant,
    degree_dim1_standard,
    hilbert_table,
    ideal_hilbert,
    index_of_regularity,
    lambda_product,
    monomial_hilbert,
    rational_equal,
    reg_cm,
    substitute_power,
)
from latreg.intlat import homogenize_lattice
from latreg.ring_core import (
    Grading,
    MonomialOrder,
    parse_binomial,
    standard_grading,
)

STD1 = standard_grading(1)
STD2 = standard_grading(2)
G23 = Grading((2, 3))


def series(nums, weights):
    return HilbertSeries(tuple(nums), weights)


def test_monomial_hilbert_examples():
    assert monomial_hilbert([], STD2).numerator == (1,)
    F = monomial_hilbert([(6, 0)], STD2)
    assert F.numerator == (1, 0, 0, 0, 0, 0, -1)
    Fw = monomial_hilbert([(3, 0)], G23)
    assert Fw.numerator == (1, 0, 0, 0, 0, 0, -1)
    assert Fw.weights == G23


def test_monomial_hilbert_matches_direct_count():
    # exact coefficient check against a brute-force monomial count
    import itertools

    gens = [(2, 0, 1), (0, 3, 0), (1, 1, 1)]
    d = Grading((1, 2, 1))
    F = monomial_hilbert(gens, d)
    H = F.expand(12)
    for deg in range(13):
        count = 0
        for mono in itertools.product(range(13), repeat=3):
            if sum(m * w for m, w in zip(mono, d.weights)) != deg:
                continue
            if any(all(x >= g for x, g in zip(mono, gen)) for gen in gens):
                continue
            count += 1
        assert H[deg] == count


def test_ideal_hilbert_examples_and_order_independence():
    I = BinomialIdeal(2, (parse_binomial("t1^3 - t2^2", 2),), G23)
    F = ideal_hilbert(I, MonomialOrder.grevlex(G23), G23)
    assert F.numerator == (1, 0, 0, 0, 0, 0, -1)
    Flex = ideal_hilbert(I, MonomialOrder.lex(), G23)
    assert rational_equal(F, Flex)
    I6 = BinomialIdeal(2, (parse_binomial("t1^6 - t2^6", 2),), STD2)
    F6 = ideal_hilbert(I6, MonomialOrder.grevlex(STD2), STD2)
    assert F6.numerator == (1, 0, 0, 0, 0, 0, -1)
    zero = ideal_hilbert(
        BinomialIdeal(3, ()), MonomialOrder.grevlex(standard_grading(3)),
        standard_grading(3),
    )
    assert zero.numerator == (1,)
    with pytest.raises(InvalidArgumentError):
        ideal_hilbert(
            BinomialIdeal(2, (parse_binomial("t1 - t2^2", 2),)),
            MonomialOrder.grevlex(STD2),
            STD2,
        )


def test_lambda_product_examples():
    F = series((1, 0, 0, 0, 0, 0, -1), G23)
    L = lambda_product(F)
    assert L.weights == STD2 and L.numerator == F.numerator
    F1 = series((1, -1), STD2)
    assert lambda_product(F1) == F1
    # zero ideal, s = 2, d = (2, 2): the standard series is 1/(1-t)^2
    Lz = lambda_product(series((1,), Grading((2, 2))))
    assert rational_equal(Lz, series((1,), STD2))


def test_lambda_product_identity_random():
    rng = random.Random(53)
    for _ in range(8):
        L, d = random_homogeneous_lattice(rng, s=3)
        I = lattice_ideal_generators(L, d)
        Fw = ideal_hilbert(I, MonomialOrder.grevlex(d), d)
        D = homogenize_lattice(L, d)
        std = standard_grading(3)
        Fs = ideal_hilbert(
            lattice_ideal_generators(D, std), MonomialOrder.grevlex(std), std
        )
        assert rational_equal(lambda_product(Fw), Fs)


def test_substitute_power_examples():
    assert substitute_power(series((1, 0, 0, 0, 0, 0, -1), STD2), 1).numerator == (
        1, 0, 0, 0, 0, 0, -1,
    )
    assert substitute_power(series((1, -1), STD2), 2).numerator == (1, 0, -1)
    F1 = ideal_hilbert(
        BinomialIdeal(2, (parse_binomial("t1 - t2", 2),), STD2),
        MonomialOrder.grevlex(STD2),
        STD2,
    )
    F3 = substitute_power(F1, 3)
    F3direct = ideal_hilbert(
        BinomialIdeal(2, (parse_binomial("t1^3 - t2^3", 2),), STD2),
        MonomialOrder.grevlex(STD2),
        STD2,
    )
    assert rational_equal(F3, F3direct)


def test_power_substitution_regularity_law():
    # reg(S/J) = ht(I)(r-1) + r reg(S/I) for I = (t1 - t2), J = (t1^r - t2^r)
    base = ideal_hilbert(
        BinomialIdeal(2, (parse_binomial("t1 - t2", 2),), STD2),
        MonomialOrder.grevlex(STD2),
        STD2,
    )
    reg1 = reg_cm(base, 1)
    for r in range(1, 7):
        J = BinomialIdeal(2, (parse_binomial(f"t1^{r} - t2^{r}", 2),), STD2)
        FJ = ideal_hilbert(J, MonomialOrder.grevlex(STD2), STD2)
        assert reg_cm(FJ, 1) == (r - 1) + r * reg1
        assert rational_equal(FJ, substitute_power(base, r))


def test_a_invariant_examples():
    assert a_invariant(series((1, 0, 0, 0, 0, 0, -1), STD2)) == 4
    assert a_invariant(series((1,), STD1)) == -1
    assert a_invariant(series((1, 0, 0, 0, 0, 0, -1), G23)) == 1
    with pytest.raises(InvalidArgumentError):
        a_invariant(series((), STD1))


def test_index_of_regularity_examples():
    assert index_of_regularity((1, 2, 3, 4, 5, 6, 6, 6), 1) == 5
    assert index_of_regularity((1, 1, 1), 1) == 0
    assert index_of_regularity((1, 2, 2), 1) == 1
    assert index_of_regularity((1, 2, 1, 0, 0), 0) == 3
    with pytest.raises(NeedsLongerTableError):
        index_of_regularity((1, 2, 3), 1)
    with pytest.raises(InvalidArgumentError):
        index_of_regularity((1, 1), 2)
    for dim in (0, 1):
        with pytest.raises(NeedsLongerTableError):
            index_of_regularity((), dim)


def test_reg_cm_examples():
    assert reg_cm(series((1, 0, 0, 0, 0, 0, -1), STD2), 1) == 5
    assert reg_cm(series((1, 0, 0, 0, 0, 0, -1), G23), 1) == 5
    assert reg_cm(series((1,), STD1), 0) == 0


def test_degree_dim1_examples():
    F = series((1, 0, 0, 0, 0, 0, -1), STD2)
    T = hilbert_table(F)
    assert T == (1, 2, 3, 4, 5, 6, 6, 6, 6)
    assert degree_dim1_standard(T) == 6
    assert degree_dim1_standard((1, 1, 1)) == 1
    assert degree_dim1_standard([1, 1, 1]) == 1
    for short in ((1, 2, 3), ()):
        with pytest.raises(NeedsLongerTableError):
            degree_dim1_standard(short)


def test_expansion_nonnegative():
    rng = random.Random(59)
    for _ in range(10):
        L, d = random_homogeneous_lattice(rng)
        I = lattice_ideal_generators(L, d)
        F = ideal_hilbert(I, MonomialOrder.grevlex(d), d)
        assert all(c >= 0 for c in F.expand(50))


def test_initial_ideal_reg_route_matches():
    # regularity through the initial ideal table equals the series route
    rng = random.Random(61)
    for _ in range(6):
        L, d = random_homogeneous_lattice(rng, s=3)
        if L.rank != 2:
            continue
        std = standard_grading(3)
        D = homogenize_lattice(L, d)
        I = lattice_ideal_generators(D, std)
        F = ideal_hilbert(I, MonomialOrder.grevlex(std), std)
        reg_series = reg_cm(F, 2)
        G = buchberger(I, MonomialOrder.grevlex(std))
        Fin = monomial_hilbert(initial_ideal(G), std)
        T = hilbert_table(Fin)
        assert index_of_regularity(T, 1) == reg_series
