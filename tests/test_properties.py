"""Property tests on random small inputs (skipped without ``hypothesis``)."""

import os
import tempfile
from math import comb, lcm
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from helpers import (  # noqa: E402
    closed_under_products,
    curve_pipeline,
    det,
    naive_point_rank,
    saturated_lattice_ideal,
    saturated_lattice_vanishing_ideal,
    sumset_table,
)
from latreg import binomial_gb  # noqa: E402
from latreg.binomial_gb import (  # noqa: E402
    BinomialIdeal,
    _vanishing_ideal,
    buchberger,
    lattice_ideal_generators,
    saturate_variable,
    vanishing_ideal_finite_field,
)
from latreg.cli import parse_ideal_file  # noqa: E402
from latreg.ffvanish import (  # noqa: E402
    PrimeField,
    degenerate_torus_vectors,
    enumerate_parameterized,
    is_subgroup_of_torus,
    parameterized_hilbert_table,
    point_set,
    subgroup_to_monomials,
    vanishing_ideal_table,
)
from latreg.graphblocks import graph, reg_colon_method  # noqa: E402
from latreg.hilbert import (  # noqa: E402
    HilbertSeries,
    degree_dim1_standard,
    hilbert_table,
    monomial_hilbert,
    poly_mul,
    reg_cm,
)
from latreg.intlat import (  # noqa: E402
    Lattice,
    kernel_lattice,
    saturate_lattice,
    smith_invariants,
)
from latreg.invariants import (  # noqa: E402
    TorusSpec,
    curve_spec,
    degenerate_torus_invariants,
    mcurve_degree,
    mcurve_regularity,
)
from latreg.ring_core import (  # noqa: E402
    Binomial,
    Grading,
    MonomialOrder,
    exponent_vectors,
    parse_binomial,
    render_binomial,
    split_parts,
    standard_grading,
)


@st.composite
def _parameterizations(draw, primes=(2, 3, 5, 7)):
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    vs = draw(st.lists(vector, min_size=1, max_size=4))
    return vs, draw(st.sampled_from(primes))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_parameterizations())
def test_one_variable_colon_is_full_saturation(case):
    # J : t_s^infty, J built from the reduced basis rows, against the raw
    # lattice-basis ideal saturated by every variable; a zero walk budget
    # keeps these small inputs off the walk over the characters
    vs, q = case
    with mock.patch.object(binomial_gb, "_WALK_BUDGET", 0):
        got = vanishing_ideal_finite_field(vs, q).gens
    want = saturated_lattice_vanishing_ideal(vs, q)
    assert [(g.plus, g.minus) for g in got] == [(g.plus, g.minus) for g in want]


@st.composite
def _weighted_lattices(draw, full_rank=False):
    # r <= s-1 rows of a random invertible mix of a basis of the lattice of
    # weights d <= 4: homogeneous for d, of any rank (s-1 when full_rank),
    # with torsion varied
    s = draw(st.integers(2, 5))
    d = Grading(tuple(draw(st.lists(st.integers(1, 4), min_size=s, max_size=s))))
    basis = kernel_lattice([d.weights]).basis
    row = st.lists(st.integers(-2, 2), min_size=s - 1, max_size=s - 1)
    T = draw(st.lists(row, min_size=s - 1, max_size=s - 1))
    hypothesis.assume(det(T) != 0)
    rows = [
        tuple(sum(t * b[c] for t, b in zip(mix, basis)) for c in range(s))
        for mix in T[: s - 1 if full_rank else draw(st.integers(1, s - 1))]
    ]
    return Lattice(s, rows), d


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
@hypothesis.given(_weighted_lattices(full_rank=True))
def test_rank_s_minus_1_colon_is_full_saturation(case):
    # the colon J : t_s^infty against the lattice-basis ideal saturated by
    # every variable: the same generators, in the same order and orientation
    L, d = case
    got = lattice_ideal_generators(L, d)
    assert got.gens == saturated_lattice_ideal(L, d)
    assert got.basis_order == MonomialOrder.grevlex(d)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(_weighted_lattices())
def test_carried_basis_matches_a_run(case):
    # buchberger returns the generators of I(L), and of its saturation by
    # one variable, without a run under the order they carry: under every
    # order it must give what a run on an untagged copy gives
    L, d = case
    s = d.num_vars
    orders = (
        MonomialOrder.grevlex(d),
        MonomialOrder.grevlex(standard_grading(s)),
        MonomialOrder.lex(),
    )
    bins = tuple(Binomial(*split_parts(row)) for row in L.basis)
    ideals = [lattice_ideal_generators(L, d)]
    ideals += [saturate_variable(BinomialIdeal(s, bins, d), i) for i in range(s)]
    for I in ideals:
        copy = BinomialIdeal(I.num_vars, I.gens, I.grading)
        for order in orders:
            assert buchberger(I, order) == buchberger(copy, order)


@st.composite
def _walk_inputs(draw):
    # at most 5 vectors in at most 3 parameters, so |X| <= 12^3
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)
    vs = draw(st.lists(vector, min_size=1, max_size=5))
    return vs, draw(st.sampled_from((3, 5, 7, 11, 13)))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_walk_inputs())
@hypothesis.example(([[1, 2], [3, 1], [1, 2], [2, 2]], 7))  # a repeated step
@hypothesis.example(([[2, 1], [1, 3], [2, 1]], 5))  # v_1 = v_s, a zero step
@hypothesis.example(([[1], [2], [1], [1]], 3))  # both
def test_character_walk_matches_full_saturation(case):
    # the walk over the characters of X: its basis against the raw
    # lattice-basis ideal saturated by every variable, its table against the
    # sumset rebuilt level by level on tuples, and its series against that
    # of its leads
    vs, q = case
    field, s = PrimeField(q), len(vs)
    table, ideal = _vanishing_ideal(exponent_vectors(vs), q)
    assert table is not None  # within the walk budget
    I = ideal()
    want = saturated_lattice_vanishing_ideal(vs, q)
    assert [(g.plus, g.minus) for g in I.gens] == [(g.plus, g.minus) for g in want]
    assert table == sumset_table(field, vs)
    assert vanishing_ideal_table(field, vs) == (I, table)
    # S/I(X) is Cohen-Macaulay of dimension 1: its series is h(t)/(1-t) for
    # the first differences h of the table, h(t) (1-t)^{s-1} over (1-t)^s
    h = [b - a for a, b in zip([0] + table, table)]
    one_minus_t = [(-1) ** j * comb(s - 1, j) for j in range(s)]
    F = HilbertSeries(poly_mul(h, one_minus_t), standard_grading(s))
    G = monomial_hilbert([g.plus for g in I.gens], standard_grading(s))
    assert F == G and reg_cm(G, s - 1) == len(table) - 1


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(
    st.lists(st.integers(1, 40), min_size=2, max_size=4),
    st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
)
def test_torus_table_matches_frobenius_closed_form(v, q):
    # reg and |X| of the character search, and reg and degree read off the
    # Groebner basis of I(X), against the monomial-curve formulas on the
    # derived weights (q-1)/gcd(v_i, q-1)
    field, vs = PrimeField(q), degenerate_torus_vectors(v)
    want = degenerate_torus_invariants(TorusSpec(q, v))
    table = parameterized_hilbert_table(field, vs)
    assert (len(table) - 1, table[-1]) == want
    I, table_i = vanishing_ideal_table(field, vs)
    assert table_i == table
    F = monomial_hilbert([g.plus for g in I.gens], standard_grading(len(vs)))
    assert (reg_cm(F, len(vs) - 1), degree_dim1_standard(hilbert_table(F))) == want


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(st.lists(st.integers(1, 12), min_size=2, max_size=4))
def test_mcurve_closed_forms_match_the_lattice_pipeline(d):
    # r g(S) + 1 + sum (d_i - 1) and d_1 ... d_s / r against the Hilbert
    # series of the homogenized lattice ideal of the curve
    spec = curve_spec(d)
    assert curve_pipeline(d) == (mcurve_regularity(spec), mcurve_degree(spec))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_parameterizations(primes=(3, 5, 7, 11)))
def test_character_search_matches_evaluation_rank(case):
    # the table against the rank of the degree-d evaluation matrix, on the
    # enumerated points
    vs, q = case
    X = enumerate_parameterized(PrimeField(q), vs)
    hypothesis.assume(len(X) <= 64)
    table = parameterized_hilbert_table(X.field, vs)
    reg = len(table) - 1
    assert [naive_point_rank(X.points, q, d) for d in range(reg + 2)] == table + [len(X)]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_parameterizations(primes=(3, 5, 7, 11, 13)), st.data())
def test_subgroup_test_matches_product_closure(case, data):
    # a parameterized set, less one of its points or with one more point,
    # against the |X|^2 product test; a subgroup's parameters give it back
    vs, q = case
    X = enumerate_parameterized(PrimeField(q), vs)
    hypothesis.assume(len(X) <= 64)
    pts = list(X.points)
    change = data.draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and len(pts) > 1:
        pts.pop(data.draw(st.integers(0, len(pts) - 1)))
    elif change == "add":
        coords = st.lists(st.integers(0, q - 1), min_size=len(vs), max_size=len(vs))
        pts.append(tuple(data.draw(coords.filter(any))))
    Y = point_set(X.field, pts)
    assert is_subgroup_of_torus(Y) == closed_under_products(Y)
    if is_subgroup_of_torus(Y):
        vs = subgroup_to_monomials(Y)
        assert enumerate_parameterized(Y.field, vs).points == Y.points


@st.composite
def _integer_matrices(draw):
    # dense, or a product of thinner factors, which makes it rank-deficient
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = st.integers(-1000, 1000)
    k = draw(st.integers(1, 8))
    if k >= min(m, n):
        row = st.lists(entry, min_size=n, max_size=n)
        return draw(st.lists(row, min_size=m, max_size=m))
    small = st.integers(-10, 10)
    B = draw(st.lists(st.lists(small, min_size=k, max_size=k), min_size=m, max_size=m))
    C = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(b * c for b, c in zip(row, col)) for col in zip(*C)] for row in B]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_integer_matrices())
def test_integer_normal_forms_match_sympy(A):
    # the kernel against sympy's rational null space: it holds every cleared
    # null vector, has the same rank, and Z^n / K is torsion-free, so K is
    # the null space intersected with Z^n
    n = len(A[0])
    M = sympy.Matrix(A)
    K = kernel_lattice(A)
    null = M.nullspace()
    assert K.rank == len(null)
    for v in null:
        den = lcm(*(int(x.q) for x in v))
        assert K.contains([int(x * den) for x in v])
    if K.basis:
        assert set(invariant_factors(sympy.Matrix(K.basis))) == {1}
    want = tuple(int(x) for x in invariant_factors(M) if x != 0)
    assert smith_invariants(A) == want
    L = Lattice(n, A)
    S = saturate_lattice(L)
    assert saturate_lattice(S) == S
    assert S.rank == L.rank
    assert all(S.contains(row) for row in L.basis)


@st.composite
def _graphs(draw):
    # up to 7 edges on at most 6 vertices, relabelled so none is isolated:
    # forests, odd cycles and disconnected graphs all occur
    pairs = [(u, v) for u in range(1, 7) for v in range(u + 1, 7)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=7, unique=True))
    used = sorted({v for e in edges for v in e})
    label = {v: i + 1 for i, v in enumerate(used)}
    return graph(len(used), [(label[u], label[v]) for u, v in edges])


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None)
@hypothesis.given(_graphs(), st.sampled_from((3, 5, 7)))
def test_colon_method_matches_character_search_on_any_graph(G, q):
    # the walk against the colon, forced by a zero walk budget
    field = PrimeField(q)
    walked = reg_colon_method(G, field)
    with mock.patch.object(binomial_gb, "_WALK_BUDGET", 0):
        assert reg_colon_method(G, field) == walked


@st.composite
def _binomial_lists(draw):
    num_vars = draw(st.integers(1, 5))
    exponent = st.integers(0, 12) | st.integers(0, 10**12)
    side = st.lists(exponent, min_size=num_vars, max_size=num_vars)
    pair = st.builds(Binomial, side, side)
    return num_vars, draw(st.lists(pair, max_size=5))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_binomial_lists())
def test_binomial_and_ideal_file_round_trip(case):
    # render then parse gives each binomial back, signs in place; a file of
    # rendered lines, with comments and blank lines, gives the ideal back
    num_vars, bins = case
    for b in bins:
        c = parse_binomial(render_binomial(b), num_vars)
        assert (c.plus, c.minus) == (b.plus, b.minus) or b.is_zero() and c.is_zero()
    text = "# an ideal\n\n" + "".join(f"{render_binomial(b)}  # gen\n" for b in bins)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ideal.txt")
        with open(path, "w") as fh:
            fh.write(text)
        ideal = parse_ideal_file(path, num_vars)
    want = [(b.plus, b.minus) for b in bins if not b.is_zero()]
    assert [(g.plus, g.minus) for g in ideal.gens] == want
