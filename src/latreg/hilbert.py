"""Weighted Hilbert series, degrees, a-invariants, and regularity bridges.

A series is an integer numerator polynomial over the fixed denominator
prod_i (1 - t^{d_i}).  Regularity is only ever computed through the
Cohen-Macaulay dimension-one bridges (a-invariant formula and index of
regularity), never through free resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .binomial_gb import BinomialIdeal, buchberger, initial_ideal
from .errors import (
    DimensionError,
    InvalidArgumentError,
    NeedsLongerTableError,
)
from .ring_core import Grading, MonomialOrder, standard_grading, weighted_degree

Poly = tuple[int, ...]  # coefficient list, index = degree, trimmed


def _trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_mul(p, q) -> Poly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _trim(out)


def poly_add(p, q) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for i, b in enumerate(q):
        out[i] += b
    return _trim(out)


def poly_shift(p, k: int) -> Poly:
    return _trim((0,) * k + tuple(p))


def poly_str(p) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            t = "t" if i == 1 else f"t^{i}"
            term = t if mag == 1 else f"{mag}*{t}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


def one_minus_t_multiplicity(p, cap: int | None = None) -> int:
    """Multiplicity of the root t = 1, via repeated synthetic division."""
    p = _trim(p)
    mult = 0
    while p and sum(p) == 0 and (cap is None or mult < cap):
        # p / (1 - t): cumulative sums, dropping the top zero
        sums = []
        acc = 0
        for c in p[:-1]:
            acc += c
            sums.append(acc)
        p = _trim(sums)
        mult += 1
    return mult


@dataclass(frozen=True)
class HilbertSeries:
    """numerator / prod_i (1 - t^{d_i})."""

    numerator: Poly
    weights: Grading

    def __post_init__(self):
        object.__setattr__(self, "numerator", _trim(self.numerator))

    def is_zero(self) -> bool:
        return not self.numerator

    def expand(self, n: int) -> list[int]:
        """Power-series coefficients H(0..n)."""
        out = [0] * (n + 1)
        for i, c in enumerate(self.numerator[: n + 1]):
            out[i] = c
        for d in self.weights.weights:
            # divide by (1 - t^d): out[k] += out[k - d]
            for k in range(d, n + 1):
                out[k] += out[k - d]
        return out

    def dimension(self) -> int:
        """Krull dimension of the quotient: pole order of the series at t=1."""
        if self.is_zero():
            return 0
        s = self.weights.num_vars
        return s - one_minus_t_multiplicity(self.numerator, cap=s)


def rational_equal(F: HilbertSeries, G: HilbertSeries) -> bool:
    """Equality as rational functions: cross-multiply the denominators."""
    num_f = F.numerator
    num_g = G.numerator
    for d in G.weights.weights:
        num_f = poly_mul(num_f, _one_minus_power(d))
    for d in F.weights.weights:
        num_g = poly_mul(num_g, _one_minus_power(d))
    return num_f == num_g


def _one_minus_power(d: int) -> Poly:
    return _trim((1,) + (0,) * (d - 1) + (-1,))


# ---------------------------------------------------------------------------
# monomial-ideal numerator


def _minimalize(gens):
    """Minimal generators of a monomial ideal, sorted for determinism.

    A divisor sorts lexicographically before its multiples, so one sorted
    pass suffices.
    """
    gens = sorted(set(gens))
    out = []
    for g in gens:
        if not any(all(x <= y for x, y in zip(h, g)) for h in out):
            out.append(g)
    return tuple(out)


def monomial_hilbert(gens, d: Grading) -> HilbertSeries:
    """Hilbert series of S/M for a monomial ideal M.

    Pivot recursion N(M) = N(M + (p)) + t^deg(p) N(M : p) on a pure power
    p = x_i^e, with x_i the variable in the most generators and e the median
    of its positive exponents (Bigatti's pivot).
    """
    gens = _minimalize(tuple(tuple(int(x) for x in g) for g in gens))
    for g in gens:
        if len(g) != d.num_vars:
            raise DimensionError("monomial length does not match grading")
    return HilbertSeries(_numerator(gens, d), d)


def _numerator(gens, d):
    """Numerator of S/(gens) for a minimal generating set."""
    if not gens:
        return (1,)
    if any(all(x == 0 for x in g) for g in gens):
        return ()
    if _pairwise_disjoint(gens):
        out = (1,)
        for g in gens:
            out = poly_mul(out, _one_minus_power(weighted_degree(g, d)))
        return out
    # x_i lies in two or more generators.  p = x_i^e is not in M: only a
    # pure power x_i^f with f <= e could divide it, but minimality makes f
    # the unique largest exponent of x_i, above the lower median e.  So
    # M + (p) and M : p both strictly contain M, and since every ideal met
    # is generated by divisors of lcm(M) the recursion terminates
    counts = [sum(1 for g in gens if g[i]) for i in range(len(gens[0]))]
    i = counts.index(max(counts))
    exps = sorted(g[i] for g in gens if g[i])
    e = exps[(len(exps) - 1) // 2]
    pivot = tuple(e if k == i else 0 for k in range(len(gens[0])))
    plus = tuple(g for g in gens if g[i] < e) + (pivot,)
    colon = _minimalize(g[:i] + (max(g[i] - e, 0),) + g[i + 1 :] for g in gens)
    return poly_add(
        _numerator(plus, d), poly_shift(_numerator(colon, d), e * d.weights[i])
    )


def _pairwise_disjoint(gens):
    seen = [0] * len(gens[0])
    for g in gens:
        for i, x in enumerate(g):
            if x:
                if seen[i]:
                    return False
                seen[i] = 1
    return True


# ---------------------------------------------------------------------------
# series of binomial ideals and the regularity bridges


def ideal_hilbert(I: BinomialIdeal, order: MonomialOrder, d: Grading) -> HilbertSeries:
    """Hilbert series of S/I via the initial ideal (Macaulay's principle:
    the result is independent of the order, which the test suite checks by
    recomputing under a second order)."""
    for g in I.gens:
        if not g.is_homogeneous(d):
            raise InvalidArgumentError("ideal is not homogeneous for the grading")
    G = buchberger(I, order)
    return monomial_hilbert(initial_ideal(G), d)


def lambda_product(F: HilbertSeries) -> HilbertSeries:
    """Multiply by lambda_1(t)...lambda_s(t), lambda_i = 1 + t + ... + t^{d_i-1}.

    Since (1 - t^{d_i}) = lambda_i(t) (1 - t), this just re-expresses the same
    numerator over (1 - t)^s: the standard-grading series of the homogenized
    ideal.
    """
    return HilbertSeries(F.numerator, standard_grading(F.weights.num_vars))


def substitute_power(F: HilbertSeries, r: int) -> HilbertSeries:
    """f(t) |-> f(t^r), denominator weights unchanged (series of the ideal
    generated by the images under t_i |-> t_i^r)."""
    if r < 1:
        raise InvalidArgumentError("power must be positive")
    out = [0] * (r * max(len(F.numerator) - 1, 0) + 1)
    for i, c in enumerate(F.numerator):
        out[r * i] = c
    return HilbertSeries(_trim(out), F.weights)


def a_invariant(F: HilbertSeries) -> int:
    """Degree of the series as a rational function: deg(numerator) - sum d_i.

    Cancelling common factors changes numerator and denominator degrees by
    the same amount, so no gcd is needed.
    """
    if F.is_zero():
        raise InvalidArgumentError("a-invariant of the zero series is undefined")
    return len(F.numerator) - 1 - F.weights.total


def reg_cm(F: HilbertSeries, height: int) -> int:
    """reg(S/I) = a(S/I) - ht(I) + sum d_i for Cohen-Macaulay S/I.

    The Cohen-Macaulay hypothesis is the caller's certificate (it holds for
    all graded lattice ideals of dimension 1 used in this package).
    """
    return a_invariant(F) - height + F.weights.total


def hilbert_table(F: HilbertSeries) -> tuple[int, ...]:
    """H(0..n) with n = deg(numerator) + 2, past the stabilization bound
    deg(numerator), so dimension <= 1 tables are certified stable."""
    return tuple(F.expand(max(len(F.numerator) - 1, 0) + 2))


def index_of_regularity(vals, dim: int) -> int:
    """Least ell >= 0 with H(d) equal to the Hilbert polynomial for d >= ell,
    for a table vals = H(0..n).

    Supports dim 0 (polynomial 0) and dim 1 (constant polynomial); weighted
    quasi-polynomial cases are out of scope and rejected.
    """
    if dim == 1:
        if len(vals) < 2 or vals[-2] != vals[-1]:
            raise NeedsLongerTableError("table shows no stabilization")
        target = vals[-1]
    elif dim == 0:
        target = 0
        if not vals or vals[-1] != 0:
            raise NeedsLongerTableError("table has not reached zero")
    else:
        raise InvalidArgumentError("only dimensions 0 and 1 are supported")
    ell = len(vals)
    while ell > 0 and vals[ell - 1] == target:
        ell -= 1
    return ell


def degree_dim1_standard(vals) -> int:
    """Eventual constant value of a stabilized dimension-1 table H(0..n)."""
    if len(vals) < 2 or vals[-2] != vals[-1]:
        raise NeedsLongerTableError("table shows no stabilization")
    if vals[-1] < 1:
        raise InvalidArgumentError("stabilized value is not positive")
    return vals[-1]
