import itertools
import random

import pytest

from helpers import BlockOrder, GrevlexLast
from latreg.errors import DimensionError, InvalidArgumentError, ParseError
from latreg.ring_core import (
    Binomial,
    Grading,
    MonomialOrder,
    compare,
    parse_binomial,
    render_binomial,
    split_parts,
    standard_grading,
    weighted_degree,
)


def test_weighted_degree_examples():
    assert weighted_degree((0, 0), Grading((2, 3))) == 0
    assert weighted_degree((3, 0), Grading((2, 3))) == 6
    assert weighted_degree((1, 2, 1), Grading((1, 1, 1))) == 4


def test_weighted_degree_dimension_error():
    with pytest.raises(DimensionError):
        weighted_degree((1, 2, 3), Grading((1, 1)))


def test_split_parts_examples():
    assert split_parts((3, -2, 0)) == ((3, 0, 0), (0, 2, 0))
    assert split_parts((0, 0)) == ((0, 0), (0, 0))
    assert split_parts((-1, -1)) == ((0, 0), (1, 1))


def test_split_parts_round_trip():
    for c in itertools.product(range(-3, 4), repeat=3):
        plus, minus = split_parts(c)
        assert tuple(p - m for p, m in zip(plus, minus)) == c
        assert all(p == 0 or m == 0 for p, m in zip(plus, minus))


def test_compare_examples():
    std = MonomialOrder.grevlex(standard_grading(2))
    assert compare(std, (2, 0), (0, 2)) == 1  # earlier variable wins ties
    assert compare(std, (1, 1), (1, 1)) == 0
    w = MonomialOrder.grevlex(Grading((2, 3)))
    assert compare(w, (3, 0), (0, 1)) == 1  # degree 6 beats degree 3
    assert compare(w, (3, 0), (0, 2)) == 1  # degree tie, last nonzero of b-a positive


def test_compare_total_and_multiplicative():
    order = MonomialOrder.grevlex(Grading((2, 1, 3)))
    vecs = list(itertools.product(range(4), repeat=3))
    keys = {v: order.key(v) for v in vecs}
    for a in vecs:
        for b in vecs:
            c = compare(order, a, b)
            assert c == -compare(order, b, a)
            assert (c == 0) == (a == b)
            # consistency with the sort key
            assert c == (keys[a] > keys[b]) - (keys[a] < keys[b])
    shifts = [(1, 0, 0), (0, 2, 1), (1, 1, 1)]
    for a, b in itertools.combinations(vecs, 2):
        c = compare(order, a, b)
        for sft in shifts:
            aa = tuple(x + y for x, y in zip(a, sft))
            bb = tuple(x + y for x, y in zip(b, sft))
            assert compare(order, aa, bb) == c


def test_one_is_minimal():
    for order in (
        MonomialOrder.grevlex(Grading((2, 1, 3))),
        MonomialOrder.lex(),
        BlockOrder(1, standard_grading(3).weights),
    ):
        zero = (0, 0, 0)
        for v in itertools.product(range(3), repeat=3):
            if v != zero:
                assert compare(order, v, zero) == 1


def test_elimination_order_blocks():
    order = BlockOrder(2, standard_grading(4).weights)
    # anything touching the first block beats anything entirely in the second
    assert compare(order, (1, 0, 0, 0), (0, 0, 5, 5)) == 1
    assert compare(order, (0, 1, 0, 0), (0, 0, 9, 0)) == 1
    # ties on the first block fall through to the second
    assert compare(order, (1, 0, 2, 0), (1, 0, 0, 2)) == 1


def test_binomial_canonical():
    b = Binomial((2, 1, 0), (0, 1, 3))
    assert not b.is_canonical()
    c = b.canonical()
    assert c == Binomial((2, 0, 0), (0, 0, 3))
    assert c.is_canonical()
    assert c.canonical() == c
    z = Binomial((1, 1), (1, 1))
    assert z.is_zero() and z.canonical().is_zero()


def test_binomial_equality_ignores_sign():
    assert Binomial((1, 0), (0, 1)) == Binomial((0, 1), (1, 0))
    assert hash(Binomial((1, 0), (0, 1))) == hash(Binomial((0, 1), (1, 0)))
    assert Binomial((2, 0), (0, 2)) != Binomial((1, 0), (0, 1))


def test_binomial_homogeneity():
    assert Binomial((3, 0), (0, 2)).is_homogeneous(Grading((2, 3)))
    assert not Binomial((3, 0), (0, 2)).is_homogeneous(Grading((1, 1)))


@pytest.mark.parametrize(
    "text",
    ["t1^3 - t2^2", "t1 - t2", "t1^2*t2 - t3^3", "t1^6 - 1", "0", "t1*t2^4 - t3"],
)
def test_parse_render_round_trip(text, num_vars=3):
    b = parse_binomial(text, num_vars)
    assert parse_binomial(render_binomial(b), num_vars) == b


def test_render_canonical_spacing():
    assert render_binomial(Binomial((3, 0), (0, 2))) == "t1^3 - t2^2"
    assert render_binomial(Binomial((1, 1), (0, 0))) == "t1*t2 - 1"


def test_parse_rejects_sums_and_garbage():
    with pytest.raises(ParseError):
        parse_binomial("t1^3 + t2^2", 2)
    with pytest.raises(ParseError):
        parse_binomial("t1 - t2 - t3", 3)
    with pytest.raises(ParseError):
        parse_binomial("x1 - t2", 2)
    with pytest.raises(ParseError):
        parse_binomial("t9 - t1", 2)


def _old_grevlex_key(a, weights, last):
    # reference: the weighted grevlex key written out term by term
    if last is not None:
        a = a[:last] + a[last + 1 :] + (a[last],)
        weights = weights[:last] + weights[last + 1 :] + (weights[last],)
    deg = sum(x * w for x, w in zip(a, weights))
    return (deg,) + tuple(-x for x in reversed(a))


def test_grevlex_key_and_degree_match_generator_formula():
    # the library's grevlex, and the test oracle's grevlex with t_last
    # cheapest, against the formula; then the plain grevlex on coordinates
    # permuted to put t_last at the end (what saturation runs) against the
    # oracle order
    rng = random.Random(3)
    for _ in range(40):
        s = rng.randint(1, 6)
        d = Grading(tuple(rng.randint(1, 4) for _ in range(s)))
        vecs = [tuple(rng.randint(0, 5) for _ in range(s)) for _ in range(20)]
        plain = MonomialOrder.grevlex(d)
        for a in vecs:
            assert plain.key(a) == _old_grevlex_key(a, d.weights, None)
            assert plain.degree(a) == sum(x * w for x, w in zip(a, d.weights))
        for last in range(s):
            order = GrevlexLast(d.weights, last)
            perm = [*range(last), *range(last + 1, s), last]
            moved = MonomialOrder.grevlex(Grading(tuple(d.weights[k] for k in perm)))
            for a in vecs:
                assert order.key(a) == _old_grevlex_key(a, d.weights, last)
                assert order.degree(a) == plain.degree(a)
                assert moved.key(tuple(a[k] for k in perm)) == order.key(a)
        # t_s already compares in the cheapest position
        last_var = GrevlexLast(d.weights, s - 1)
        assert all(last_var.key(a) == plain.key(a) for a in vecs)


def test_unknown_order_kind_raises():
    with pytest.raises(InvalidArgumentError):
        MonomialOrder("revlex", (1, 1)).key((1, 0))


def test_order_arity_mismatch_raises():
    order = MonomialOrder.grevlex(Grading((1, 2)))
    with pytest.raises(DimensionError):
        compare(order, (1, 0, 0), (0, 1, 0))
    # lex carries no weights and compares vectors of any one length
    assert compare(MonomialOrder.lex(), (1, 0, 0), (0, 1, 0)) == 1
