"""Property tests on random small inputs (skipped without ``hypothesis``)."""

from math import lcm

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402

from helpers import (  # noqa: E402
    closed_under_products,
    naive_point_rank,
    saturated_lattice_vanishing_ideal,
)
from latreg.binomial_gb import vanishing_ideal_finite_field  # noqa: E402
from latreg.ffvanish import (  # noqa: E402
    PrimeField,
    degenerate_torus_vectors,
    enumerate_parameterized,
    is_subgroup_of_torus,
    parameterized_hilbert_table,
    point_set,
    subgroup_to_monomials,
)
from latreg.intlat import (  # noqa: E402
    Lattice,
    kernel_lattice,
    saturate_lattice,
    smith_invariants,
)
from latreg.invariants import TorusSpec, degenerate_torus_invariants  # noqa: E402


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
    # lattice-basis ideal saturated by every variable
    vs, q = case
    got = vanishing_ideal_finite_field(vs, q).gens
    want = saturated_lattice_vanishing_ideal(vs, q)
    assert [(g.plus, g.minus) for g in got] == [(g.plus, g.minus) for g in want]


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(
    st.lists(st.integers(1, 40), min_size=2, max_size=4),
    st.sampled_from((3, 5, 7, 11, 13, 17, 19, 23, 29, 31)),
)
def test_torus_table_matches_frobenius_closed_form(v, q):
    # reg and |X| of the character search against the monomial-curve
    # formulas on the derived weights (q-1)/gcd(v_i, q-1)
    table = parameterized_hilbert_table(PrimeField(q), degenerate_torus_vectors(v))
    assert (len(table) - 1, table[-1]) == degenerate_torus_invariants(TorusSpec(q, v))


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
