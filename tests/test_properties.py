"""Property tests on random small inputs (skipped without ``hypothesis``)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import naive_point_rank, saturated_lattice_vanishing_ideal  # noqa: E402
from latreg.binomial_gb import vanishing_ideal_finite_field  # noqa: E402
from latreg.ffvanish import (  # noqa: E402
    PrimeField,
    degenerate_torus_vectors,
    enumerate_parameterized,
    parameterized_hilbert_table,
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
