"""Property tests on random small inputs (skipped without ``hypothesis``)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from helpers import saturated_lattice_vanishing_ideal  # noqa: E402
from latreg.binomial_gb import vanishing_ideal_finite_field  # noqa: E402


@st.composite
def _parameterizations(draw):
    n = draw(st.integers(1, 3))
    vector = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
    vs = draw(st.lists(vector, min_size=1, max_size=4))
    return vs, draw(st.sampled_from((2, 3, 5, 7)))


@hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
@hypothesis.given(_parameterizations())
def test_one_variable_colon_is_full_saturation(case):
    # J : t_s^infty, J built from the reduced basis rows, against the raw
    # lattice-basis ideal saturated by every variable
    vs, q = case
    got = vanishing_ideal_finite_field(vs, q).gens
    want = saturated_lattice_vanishing_ideal(vs, q)
    assert [(g.plus, g.minus) for g in got] == [(g.plus, g.minus) for g in want]
