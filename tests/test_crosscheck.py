"""Seeded cross-checks of the engine's routes against the slower reference
routes in ``helpers``: reduced bases and Hilbert numerators must coincide
exactly."""

import os
import random
import subprocess
import sys

import pytest

from helpers import (
    elimination_vanishing_ideal,
    fixpoint_saturate_all,
    fixpoint_saturate_variable,
    orient,
    random_homogeneous_lattice,
    reference_buchberger,
    smallest_pivot_numerator,
)
from latreg.binomial_gb import (
    BinomialIdeal,
    _buchberger_elems,
    saturate_all,
    saturate_variable,
    vanishing_ideal_finite_field,
)
from latreg.hilbert import monomial_hilbert
from latreg.ring_core import Binomial, Grading, MonomialOrder, split_parts


def _lattice_inputs(seed, count):
    """Binomials of seeded lattice bases (not yet saturated) with their
    gradings."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        L, d = random_homogeneous_lattice(rng, s=rng.randint(2, 5), max_weight=3)
        out.append(([Binomial(*split_parts(row)) for row in L.basis], d, rng))
    return out


def _orders(d, rng):
    s = d.num_vars
    return [
        MonomialOrder.grevlex(d),
        MonomialOrder.lex(),
        MonomialOrder.elimination(rng.randint(1, s - 1), d),
    ]


def test_core_matches_coprime_reference():
    checked = 0
    for gens, d, rng in _lattice_inputs(11, 36):
        s = d.num_vars
        for order in _orders(d, rng):
            elems = [orient(order, g.plus, g.minus) for g in gens]
            assert _buchberger_elems(elems, order) == reference_buchberger(elems, order)
            # colon inputs: the same binomials plus monomial generators
            monos = [tuple(rng.randint(0, 2) for _ in range(s)) for _ in range(2)]
            mixed = elems + [(m, None) for m in monos if any(m)]
            assert _buchberger_elems(mixed, order) == reference_buchberger(mixed, order)
            checked += 1
    assert checked == 108


def test_single_pass_saturation_matches_fixpoint():
    for gens, d, rng in _lattice_inputs(12, 30):
        s = d.num_vars
        # multiply one generator by a variable so the input is not saturated
        k = rng.randrange(s)
        bumped = Binomial(
            tuple(x + (i == k) for i, x in enumerate(gens[0].plus)),
            tuple(x + (i == k) for i, x in enumerate(gens[0].minus)),
        )
        I = BinomialIdeal(s, (bumped,) + tuple(gens[1:]), d)
        assert saturate_all(I).gens == fixpoint_saturate_all(I.gens, d)
        for i in range(s):
            J = saturate_variable(I, i)
            assert J.gens == fixpoint_saturate_variable(I.gens, d, i)


@pytest.mark.parametrize(
    "vs, q",
    [
        ([(1, 0), (0, 2)], 3),
        ([(2, 0), (0, 3)], 5),
        ([(1, 0, 0), (0, 2, 0), (0, 0, 2)], 5),
        ([(2, 0, 0), (0, 3, 0), (0, 0, 4)], 5),
        ([(1, 0), (0, 1), (1, 1)], 5),
        ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)], 3),
        ([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)], 5),
    ],
)
def test_lattice_route_matches_elimination(vs, q):
    assert vanishing_ideal_finite_field(vs, q).gens == elimination_vanishing_ideal(vs, q)


def test_variable_pivot_matches_smallest_pivot():
    rng = random.Random(13)
    for _ in range(60):
        s = rng.randint(1, 6)
        d = Grading(tuple(rng.randint(1, 3) for _ in range(s)))
        gens = [
            tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(s))
            for _ in range(rng.randint(0, 10))
        ]
        if rng.random() < 0.5:
            gens.append(tuple(4 if i == 0 else 0 for i in range(s)))
        assert monomial_hilbert(gens, d).numerator == smallest_pivot_numerator(gens, d)


_BROKEN_ENGINE = """
import latreg.binomial_gb as gb
from latreg.errors import InternalError
from latreg.ring_core import Binomial, MonomialOrder, standard_grading

order = MonomialOrder.grevlex(standard_grading(2))
I = gb.BinomialIdeal(2, (Binomial((1, 0), (0, 1)),))
G = gb.buchberger(I, order)
real = gb._buchberger_elems
cases = {
    "non-binomial basis": lambda e, o: (((1, 0), None),),
    "generator not reduced to zero": lambda e, o: (),
}
for name, fake in cases.items():
    gb._buchberger_elems = fake
    try:
        gb.buchberger(I, order)
    except InternalError:
        continue
    raise SystemExit(f"no InternalError for {name}")
gb._buchberger_elems = real
gb._normal_form_elem = lambda order, elem, basis, masks: ((0, 2), None)
try:
    gb.normal_form(Binomial((2, 0), (0, 2)), G)
except InternalError:
    print("checked")
else:
    raise SystemExit("no InternalError for a monomial normal form")
"""


def test_invariant_checks_survive_optimize_flag():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_ENGINE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "checked"
