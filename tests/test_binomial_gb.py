import random
import time
import tracemalloc

import pytest

from helpers import (
    BlockOrder,
    eliminate,
    in_kernel,
    monomials_up_to,
    random_homogeneous_lattice,
)
from latreg import binomial_gb
from latreg.binomial_gb import (
    BinomialIdeal,
    _colon_ideal,
    _walk,
    buchberger,
    homogenize_binomials,
    ideal_equal,
    initial_ideal,
    initial_ideal_with_monomials,
    is_complete_intersection,
    is_lattice_ideal,
    lattice_ideal_generators,
    normal_form,
    saturate_all,
    saturate_variable,
    toric_ideal_monomial_map,
    vanishing_ideal_finite_field,
)
from latreg.errors import (
    BudgetExceededError,
    DimensionError,
    InvalidArgumentError,
    UnsupportedFieldError,
    UnsupportedInputError,
)
from latreg.intlat import Lattice, homogenize_lattice, kernel_lattice
from latreg.ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    parse_binomial,
    split_parts,
    standard_grading,
)

STD2 = standard_grading(2)
STD3 = standard_grading(3)
G23 = Grading((2, 3))


def bi(text, n):
    return parse_binomial(text, n)


def grev(g):
    return MonomialOrder.grevlex(g)


def test_buchberger_principal():
    I = BinomialIdeal(2, (bi("t1 - t2", 2),))
    G = buchberger(I, grev(STD2))
    assert [b for b in G.elements] == [Binomial((1, 0), (0, 1))]
    Iw = BinomialIdeal(2, (bi("t1^3 - t2^2", 2),), G23)
    Gw = buchberger(Iw, grev(G23))
    assert Gw.elements == (Binomial((3, 0), (0, 2)),)
    assert initial_ideal(Gw) == ((3, 0),)


def test_buchberger_order_arity_mismatch_raises():
    I = BinomialIdeal(3, (bi("t1 - t2", 3), bi("t2^2 - t1*t3", 3)))
    with pytest.raises(DimensionError):
        buchberger(I, grev(STD2))
    with pytest.raises(DimensionError):
        buchberger(I, grev(standard_grading(4)))


def test_buchberger_vs_kernel_membership_oracle():
    # I = (t1 - y z, t2 - y^2 z) in the ring [y, z, t1, t2]; a binomial
    # t^a - t^b lies in the toric ideal iff a - b is in the kernel of the
    # exponent matrix, checked by direct multiplication
    gens = (
        Binomial((0, 0, 1, 0), (1, 1, 0, 0)),
        Binomial((0, 0, 0, 1), (2, 1, 0, 0)),
    )
    G = buchberger(BinomialIdeal(4, gens), BlockOrder(2, standard_grading(4).weights))
    # columns y, z, t1, t2 -> rows of the defining matrix
    rows = [(1, 0, -1, -2), (0, 1, -1, -1)]
    # (exponents of y and z in each monomial minus the images) -- equivalent:
    # membership in ker of A with rows [deg_y, deg_z] of [y, z, y z, y^2 z]
    A = [(1, 0, 1, 2), (0, 1, 1, 1)]

    def in_ideal(a, b):
        diff = tuple(x - y for x, y in zip(a, b))
        # solve: is diff in the Z-span kernel? i.e. A @ diff == 0 plus
        # membership in the saturated lattice; the toric ideal of a monomial
        # map contains t^a - t^b iff A(a - b) = 0
        return in_kernel(A, diff)

    monos = list(monomials_up_to(4, 4))
    for a in monos:
        for b in monos:
            if a == b:
                continue
            f = Binomial(a, b)
            assert (normal_form(f, G) is None) == in_ideal(a, b), (a, b)


def test_normal_form_examples():
    std = grev(STD2)
    G = buchberger(BinomialIdeal(2, (bi("t1^6 - t2^6", 2),)), std)
    assert normal_form(bi("t1^6 - t2^6", 2), G) is None
    G2 = buchberger(BinomialIdeal(2, (bi("t1^2 - t2^2", 2),)), std)
    assert normal_form(bi("t1 - t2", 2), G2) == bi("t1 - t2", 2)
    assert normal_form(bi("0", 2), G2) is None


def test_initial_ideal_examples():
    assert initial_ideal(
        buchberger(BinomialIdeal(2, (bi("t1^6 - t2^6", 2),)), grev(STD2))
    ) == ((6, 0),)
    assert initial_ideal(
        buchberger(BinomialIdeal(2, (bi("t1^3 - t2^2", 2),), G23), grev(G23))
    ) == ((3, 0),)
    G = buchberger(
        BinomialIdeal(3, (bi("t1 - t2", 3), bi("t2^2 - t3^2", 3))), grev(STD3)
    )
    assert set(initial_ideal(G)) == {(1, 0, 0), (0, 2, 0)}


def test_saturate_variable_examples():
    I = BinomialIdeal(2, (bi("t1*t2 - t2^2", 2),), STD2)
    assert saturate_variable(I, 1).gens == (Binomial((1, 0), (0, 1)),)
    J = BinomialIdeal(2, (bi("t1 - t2", 2),), STD2)
    assert saturate_variable(J, 0).gens == (Binomial((1, 0), (0, 1)),)
    K = BinomialIdeal(3, (bi("t1*t2^2 - t3^3", 3),), STD3)
    assert saturate_variable(K, 0).gens == (Binomial((1, 2, 0), (0, 0, 3)),)


def test_saturate_all_and_lattice_ideal_flag():
    I = BinomialIdeal(2, (bi("t1*t2 - t2^2", 2),), STD2)
    S = saturate_all(I)
    assert S.gens == (Binomial((1, 0), (0, 1)),)
    assert not is_lattice_ideal(I)
    assert is_lattice_ideal(S)
    assert saturate_all(S).gens == S.gens
    assert is_lattice_ideal(BinomialIdeal(2, (bi("t1 - t2", 2),), STD2))


def test_lattice_ideal_generators_examples():
    assert lattice_ideal_generators(Lattice(2, [(1, -1)]), STD2).gens == (
        Binomial((1, 0), (0, 1)),
    )
    assert lattice_ideal_generators(Lattice(2, [(6, -6)]), STD2).gens == (
        Binomial((6, 0), (0, 6)),
    )
    K = kernel_lattice([[1, 1, 1]])
    I = lattice_ideal_generators(K, STD3)
    G = buchberger(I, grev(STD3))
    for text in ("t1 - t3", "t2 - t3", "t1 - t2"):
        assert normal_form(bi(text, 3), G) is None
    # same ideal as the staircase presentation (t1 - t2, t2 - t3)
    J = BinomialIdeal(3, (bi("t1 - t2", 3), bi("t2 - t3", 3)), STD3)
    assert ideal_equal(I, J, grev(STD3))


def test_carried_basis_skips_the_engine(monkeypatch):
    # generators that are the reduced basis under the order asked for come
    # back from buchberger with no _groebner call; any other ideal or order
    # runs the engine once
    calls = []
    real = binomial_gb._groebner
    monkeypatch.setattr(
        binomial_gb, "_groebner", lambda pk, elems: calls.append(1) or real(pk, elems)
    )

    def engine_calls(I, order):
        calls.clear()
        buchberger(I, order)
        return len(calls)

    d = Grading((1, 2, 2, 3))
    L = kernel_lattice([d.weights])
    I = lattice_ideal_generators(L, d)
    assert engine_calls(I, grev(d)) == 0
    bins = tuple(Binomial(*split_parts(row)) for row in L.basis)
    J = BinomialIdeal(4, bins, d)
    assert engine_calls(saturate_variable(J, 3), grev(d)) == 0
    for i in range(3):
        assert engine_calls(saturate_variable(J, i), grev(d)) == 1
    assert engine_calls(J, grev(d)) == 1
    assert engine_calls(BinomialIdeal(4, I.gens, d), grev(d)) == 1
    assert engine_calls(I, grev(standard_grading(4))) == 1
    assert engine_calls(I, MonomialOrder.lex()) == 1
    # I(X) off the walk over the characters, and off the colon
    vs = [(1, 0), (0, 1), (1, 1)]
    std = grev(standard_grading(3))
    assert engine_calls(vanishing_ideal_finite_field(vs, 5), std) == 0
    monkeypatch.setattr(binomial_gb, "_WALK_BUDGET", 0)
    assert engine_calls(vanishing_ideal_finite_field(vs, 5), std) == 0


def test_lattice_ideal_takes_one_basis_at_rank_s_minus_1(monkeypatch):
    # I(L) of rank s-1 is one colon by t_s, one Buchberger loop; of lower
    # rank it is saturated by each of the s variables, a loop each
    calls = []
    real = binomial_gb._buchberger_loop
    monkeypatch.setattr(
        binomial_gb,
        "_buchberger_loop",
        lambda pk, elems, work: calls.append(1) or real(pk, elems, work),
    )

    def loops(L, d):
        calls.clear()
        lattice_ideal_generators(L, d)
        return len(calls)

    rng = random.Random(47)
    for _ in range(12):
        L, d = random_homogeneous_lattice(rng, s=rng.randint(2, 5))
        assert loops(L, d) == 1
        if L.rank > 1:
            assert loops(Lattice(L.ambient_dim, L.basis[1:]), d) == L.ambient_dim
    d = Grading((1, 2, 2, 3))
    assert loops(kernel_lattice([d.weights]), d) == 1
    assert loops(Lattice(4, [(2, -1, 0, 0), (0, 1, -1, 0)]), d) == 4


def test_lattice_ideal_requires_homogeneous():
    with pytest.raises(UnsupportedInputError):
        lattice_ideal_generators(Lattice(2, [(1, 0)]), STD2)


def test_lattice_members_have_zero_normal_form():
    rng = random.Random(31)
    done = 0
    while done < 15:
        L, d = random_homogeneous_lattice(rng, s=3)
        I = lattice_ideal_generators(L, d)
        G = buchberger(I, grev(d))
        for _ in range(8):
            coeffs = [rng.randint(-2, 2) for _ in range(L.rank)]
            vec = tuple(
                sum(c * row[j] for c, row in zip(coeffs, L.basis))
                for j in range(L.ambient_dim)
            )
            plus, minus = split_parts(vec)
            f = Binomial(plus, minus)
            if f.is_zero():
                continue
            assert normal_form(f, G) is None
        done += 1


def test_homogenize_binomials_examples():
    assert homogenize_binomials([bi("t1^3 - t2^2", 2)], G23) == [bi("t1^6 - t2^6", 2)]
    b = bi("t1*t2 - t3^2", 3)
    assert homogenize_binomials([b], standard_grading(3)) == [b]
    assert homogenize_binomials([b], Grading((2, 2, 2))) == [
        bi("t1^2*t2^2 - t3^4", 3)
    ]
    with pytest.raises(InvalidArgumentError):
        homogenize_binomials([bi("t1 - t2^2", 2)], STD2)


def test_ideal_equal_examples():
    assert ideal_equal(
        BinomialIdeal(2, (bi("t1 - t2", 2),)),
        BinomialIdeal(2, (bi("t2 - t1", 2),)),
        grev(STD2),
    )
    assert not ideal_equal(
        BinomialIdeal(2, (bi("t1^2 - t2^2", 2),)),
        BinomialIdeal(2, (bi("t1 - t2", 2),)),
        grev(STD2),
    )


def test_buchberger_generator_order_independent():
    rng = random.Random(37)
    for _ in range(10):
        L, d = random_homogeneous_lattice(rng)
        I = lattice_ideal_generators(L, d)
        if len(I.gens) < 2:
            continue
        order = grev(d)
        ref = buchberger(I, order).elements
        gens = list(I.gens)
        for _ in range(3):
            rng.shuffle(gens)
            assert buchberger(BinomialIdeal(I.num_vars, tuple(gens), d), order).elements == ref


def test_pure_difference_closure():
    rng = random.Random(41)
    for _ in range(10):
        L, d = random_homogeneous_lattice(rng)
        I = lattice_ideal_generators(L, d)
        G = buchberger(I, grev(d))
        for g in G.elements:
            assert isinstance(g, Binomial) and not g.is_zero()
        S = saturate_all(I)
        for g in S.gens:
            assert isinstance(g, Binomial) and not g.is_zero()


def test_homogenization_correspondence_both_directions():
    # generators map to generators under exponent scaling, in both directions
    rng = random.Random(43)
    done = 0
    while done < 16:
        L, d = random_homogeneous_lattice(rng)  # s up to 4
        s = L.ambient_dim
        if L.rank != s - 1:
            continue
        D = homogenize_lattice(L, d)
        B = lattice_ideal_generators(L, d).gens
        Bt = homogenize_binomials(B, d)
        std = standard_grading(s)
        assert ideal_equal(
            BinomialIdeal(s, tuple(Bt), std),
            lattice_ideal_generators(D, std),
            grev(std),
        )
        # dropping a necessary generator breaks both sides
        if len(B) >= 2:
            Bsub = B[1:]
            lhs = ideal_equal(
                BinomialIdeal(s, tuple(Bsub), d),
                lattice_ideal_generators(L, d),
                grev(d),
            )
            rhs = ideal_equal(
                BinomialIdeal(s, tuple(homogenize_binomials(Bsub, d)), std),
                lattice_ideal_generators(D, std),
                grev(std),
            )
            assert lhs == rhs
        done += 1


def test_complete_intersection_examples():
    L = Lattice(2, [(3, -2)])
    assert is_complete_intersection(L, [bi("t1^3 - t2^2", 2)], G23)
    D = homogenize_lattice(L, G23)
    assert is_complete_intersection(D, [bi("t1^6 - t2^6", 2)], STD2)
    K = kernel_lattice([[1, 1, 1]])
    assert not is_complete_intersection(K, [bi("t1 - t2", 3)], STD3)
    # wrong principal generator: count matches, ideal does not
    assert not is_complete_intersection(
        Lattice(2, [(1, -1)]), [bi("t1^2 - t2^2", 2)], STD2
    )


def test_eliminate_examples():
    # I = (t1 - y z, t2 - y z): ring [y, z, t1, t2], eliminate the first block
    gens = (
        Binomial((0, 0, 1, 0), (1, 1, 0, 0)),
        Binomial((0, 0, 0, 1), (1, 1, 0, 0)),
    )
    order = BlockOrder(2, standard_grading(4).weights)
    G = buchberger(BinomialIdeal(4, gens), order)
    E = eliminate(G, range(2, 4))
    assert E.num_vars == 2 and E.gens == (Binomial((1, 0), (0, 1)),)
    # I = (t1 - y): nothing survives
    order2 = BlockOrder(1, STD2.weights)
    G2 = buchberger(BinomialIdeal(2, (Binomial((0, 1), (1, 0)),)), order2)
    assert eliminate(G2, [1]).gens == ()
    with pytest.raises(InvalidArgumentError):
        eliminate(G, [0, 1])
    with pytest.raises(InvalidArgumentError):
        eliminate(buchberger(BinomialIdeal(2, gens[:0]), grev(STD2)), [1])


def test_toric_ideal_examples():
    T = toric_ideal_monomial_map([(2,), (3,)], False)
    assert T.gens == (Binomial((3, 0), (0, 2)),)
    assert T.grading == G23
    assert toric_ideal_monomial_map([(1, 0), (0, 1)], True).gens == ()
    cyc = [(1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1)]
    T3 = toric_ideal_monomial_map(cyc, True)
    assert T3.gens == (Binomial((0, 1, 1, 0), (1, 0, 0, 1)),)


def test_vanishing_ideal_examples():
    V = vanishing_ideal_finite_field([(1,), (1,)], 3)
    assert V.gens == (Binomial((1, 0), (0, 1)),)
    V2 = vanishing_ideal_finite_field([(1,), (2,)], 3)
    assert V2.gens == (Binomial((2, 0), (0, 2)),)
    V3 = vanishing_ideal_finite_field([(1,), (2,)], 5)
    assert V3.gens == (Binomial((4, 0), (0, 4)),)
    with pytest.raises(UnsupportedFieldError):
        vanishing_ideal_finite_field([(1,)], 4)
    with pytest.raises(InvalidArgumentError):
        vanishing_ideal_finite_field([(0,)], 3)


def test_vanishing_ideal_colon_degree_bound():
    # |X| = q - 1 is past the walk budget, and (s-1)(q-1) passes the
    # numerator budget, so the colon refuses before it is built; the
    # saturation runs for minutes at this q before the work budget trips
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"\(s-1\)\(q-1\) passes 4000000"):
        vanishing_ideal_finite_field([(19,), (6,), (15,), (21,)], 10**9 + 7)
    assert time.perf_counter() - start < 2.0


def test_colon_kernel_charged_before_it_is_built(monkeypatch):
    # C4 over F_5: [A^T | I] is 8 x 13 with 5 pivots in A^T, 520 units;
    # past the kernel the engine trips on the same budget
    c4 = [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]
    monkeypatch.setattr(binomial_gb, "_WORK_BUDGET", 519)
    with pytest.raises(BudgetExceededError, match="lattice kernel passes 519"):
        _colon_ideal(c4, 5)
    monkeypatch.setattr(binomial_gb, "_WORK_BUDGET", 520)
    with pytest.raises(BudgetExceededError, match="Groebner basis computation passes 520"):
        _colon_ideal(c4, 5)
    monkeypatch.undo()
    # the 1000-vertex path over F_3: 1999 x 2999 with 1001 pivots, 6.0e9
    # units; uncharged, the colon grows cubically on paths: 11 s at 293
    # vertices and 25 s at 400 (one process on a 2-core host)
    path = [tuple(int(k in (i, i + 1)) for k in range(1000)) for i in range(999)]
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="lattice kernel passes 150000000"):
        _colon_ideal(path, 3)
    assert time.perf_counter() - start < 4.0


def test_walk_refuses_before_its_first_layer():
    # X is the group of order q - 1 = 10006 that the step 1 - 2 generates,
    # over budget 5000, so the walk gives up before any layer; without that
    # check it walks 5000 one-class layers and peaks at ~636 KB
    tracemalloc.start()
    try:
        assert _walk([(1,), (2,)], 10007, 5000) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_buchberger_matches_sympy():
    # pure differences keep +-1 coefficients through the whole computation,
    # so the reduced basis over Q must coincide element for element
    import sympy

    def to_sympy(b, syms):
        lhs, rhs = 1, 1
        for g, e in zip(syms, b.plus):
            lhs *= g**e
        for g, e in zip(syms, b.minus):
            rhs *= g**e
        return lhs - rhs

    def from_sympy(poly):
        (m1, c1), (m2, c2) = poly.terms()
        return Binomial(tuple(m1), tuple(m2)) if c1 == 1 else Binomial(tuple(m2), tuple(m1))

    rng = random.Random(4242)
    for _ in range(25):
        s = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 4)):
            a = tuple(rng.randint(0, 3) for _ in range(s))
            b = tuple(rng.randint(0, 3) for _ in range(s))
            if a != b:
                gens.append(Binomial(a, b))
        if not gens:
            continue
        I = BinomialIdeal(s, tuple(gens))
        syms = sympy.symbols(f"x1:{s + 1}")
        for name, order in (
            ("grevlex", grev(standard_grading(s))),
            ("lex", MonomialOrder.lex()),
        ):
            mine = list(buchberger(I, order).elements)
            gb = sympy.groebner([to_sympy(g, syms) for g in gens], *syms, order=name)
            theirs = sorted(
                (from_sympy(p.as_poly(*syms)) for p in gb.exprs),
                key=lambda b: order.key(b.plus),
            )
            assert mine == theirs, (gens, name)


def test_monomial_augmented_initial_ideal():
    # in(I + (t^a)) with I = (t1 - t2): normal forms collapse to powers of t2
    I = BinomialIdeal(2, (bi("t1 - t2", 2),), STD2)
    leads = initial_ideal_with_monomials(I.gens, [(1, 1)], grev(STD2), 2)
    assert set(leads) == {(1, 0), (0, 2)}


def test_saturation_requires_grading():
    I = BinomialIdeal(2, (bi("t1*t2 - t2^2", 2),))
    with pytest.raises(InvalidArgumentError):
        saturate_all(I)
    with pytest.raises(InvalidArgumentError):
        saturate_variable(I, 0)
    with pytest.raises(InvalidArgumentError):
        is_lattice_ideal(I)


def test_saturation_rejects_a_variable_out_of_range():
    I = BinomialIdeal(2, (bi("t1*t2 - t2^2", 2),), STD2)
    for i in (-1, 2):
        with pytest.raises(InvalidArgumentError):
            saturate_variable(I, i)


def test_ideal_constructor_validates():
    with pytest.raises(InvalidArgumentError):
        BinomialIdeal(2, (bi("t1 - t2^2", 2),), STD2)
    # zero binomials are filtered
    assert BinomialIdeal(2, (bi("0", 2), bi("t1 - t2", 2))).gens == (
        bi("t1 - t2", 2),
    )
