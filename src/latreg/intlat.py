"""Exact integer-lattice linear algebra.

Matrices are tuples of row tuples of Python ints, so every normal form is
computed in arbitrary precision.  Lattices are stored through their unique
row-style Hermite basis, which makes equality and membership canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import DimensionError, InvalidArgumentError
from .ring_core import Grading

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows, cols: int | None = None) -> Matrix:
    M = tuple(tuple(int(x) for x in row) for row in rows)
    widths = {len(r) for r in M}
    if len(widths) > 1:
        raise DimensionError("matrix rows have different lengths")
    if cols is not None and M and len(M[0]) != cols:
        raise DimensionError("matrix has wrong number of columns")
    return M


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(q: int) -> bool:
    """Miller-Rabin on the first 13 prime bases; the one primality test of
    the package.  Exact for q < 3.3e24 (no strong pseudoprime to all these
    bases lies below 3317044064679887385961981); above that a strong
    probable-prime test, fast for any size of q."""
    if q < 2:
        return False
    for b in _MR_BASES:
        if q % b == 0:
            return q == b
    d, s = q - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form(M) -> Matrix:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), so the result is the unique canonical basis of the row
    lattice of M.
    """
    A = [list(r) for r in as_matrix(M)]
    m = len(A)
    n = len(A[0]) if m else 0
    r = 0
    for c in range(n):
        while True:
            nonzero = [i for i in range(r, m) if A[i][c] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: (abs(A[i][c]), i))
            if i0 != r:
                A[r], A[i0] = A[i0], A[r]
            done = True
            for i in range(r + 1, m):
                if A[i][c] != 0:
                    q = A[i][c] // A[r][c]
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                    if A[i][c] != 0:
                        done = False
            if done:
                break
        if all(A[i][c] == 0 for i in range(r, m)):
            continue
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        p = A[r][c]
        for i in range(r):
            q = A[i][c] // p
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in A[:r])


@dataclass(frozen=True)
class SmithForm:
    """U * M * V = S with U, V unimodular and S diagonal, f_1 | f_2 | ..."""

    U: Matrix
    S: Matrix
    V: Matrix

    @property
    def invariants(self) -> tuple[int, ...]:
        d = min(len(self.S), len(self.S[0]) if self.S else 0)
        return tuple(self.S[i][i] for i in range(d) if self.S[i][i] != 0)


def _smith(M):
    """Core SNF: returns (U, S, V, Vinv) as lists of lists."""
    A = [list(r) for r in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = _identity(m)
    V = _identity(n)
    W = _identity(n)  # W = V^{-1}, maintained by inverse column ops

    def col_sub(j, q, t):
        # col_j -= q * col_t on A and V; inverse op on W: row_t += q * row_j
        for i in range(m):
            A[i][j] -= q * A[i][t]
        for i in range(n):
            V[i][j] -= q * V[i][t]
        W[t] = [x + q * y for x, y in zip(W[t], W[j])]

    def col_swap(j, t):
        for i in range(m):
            A[i][j], A[i][t] = A[i][t], A[i][j]
        for i in range(n):
            V[i][j], V[i][t] = V[i][t], V[i][j]
        W[j], W[t] = W[t], W[j]

    t = 0
    while t < min(m, n):
        pivots = [
            (abs(A[i][j]), i, j)
            for i in range(t, m)
            for j in range(t, n)
            if A[i][j] != 0
        ]
        if not pivots:
            break
        _, pi, pj = min(pivots)
        if pi != t:
            A[pi], A[t] = A[t], A[pi]
            U[pi], U[t] = U[t], U[pi]
        if pj != t:
            col_swap(pj, t)
        while True:
            # clear column t
            again = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    U[i] = [x - q * y for x, y in zip(U[i], U[t])]
                    if A[i][t] != 0:
                        # remainder is smaller than the pivot; promote it
                        A[i], A[t] = A[t], A[i]
                        U[i], U[t] = U[t], U[i]
                        again = True
            if again:
                continue
            # clear row t
            again = False
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    col_sub(j, q, t)
                    if A[t][j] != 0:
                        col_swap(j, t)
                        again = True
            if again:
                continue
            # divisibility repair: pivot must divide the rest of the submatrix
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % A[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return U, A, V, W


def smith_normal_form(M) -> SmithForm:
    """Smith normal form with unimodular transforms."""
    M = as_matrix(M)
    U, S, V, _ = _smith(M)
    return SmithForm(
        tuple(tuple(r) for r in U),
        tuple(tuple(r) for r in S),
        tuple(tuple(r) for r in V),
    )


def det(M) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    A = [list(r) for r in as_matrix(M)]
    n = len(A)
    if any(len(r) != n for r in A):
        raise DimensionError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1] if n else 1


class Lattice:
    """A subgroup of Z^s given by its canonical Hermite basis."""

    __slots__ = ("ambient_dim", "basis", "_smith_invariants")

    def __init__(self, ambient_dim: int, generators):
        gens = as_matrix(generators, cols=ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", hermite_normal_form(gens) if gens else ())
        object.__setattr__(self, "_smith_invariants", None)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def smith_invariants(self) -> tuple[int, ...]:
        if self._smith_invariants is None:
            inv = smith_normal_form(self.basis).invariants if self.basis else ()
            object.__setattr__(self, "_smith_invariants", inv)
        return self._smith_invariants

    def contains(self, v) -> bool:
        """Membership test against the Hermite basis."""
        v = [int(x) for x in v]
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length != ambient dimension")
        for row in self.basis:
            c = next(j for j, x in enumerate(row) if x != 0)
            if v[c] % row[c] != 0:
                return False
            q = v[c] // row[c]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Lattice(dim={self.ambient_dim}, basis={self.basis})"


def torsion_order(L: Lattice) -> int:
    """|T(Z^s / L)| = product of the nonzero Smith invariant factors."""
    return reduce(lambda a, b: a * b, L.smith_invariants, 1)


def is_homogeneous(L: Lattice, d: Grading) -> bool:
    """True iff <d, g> = 0 for every generator."""
    if L.ambient_dim != d.num_vars:
        raise DimensionError("grading length != ambient dimension")
    return all(sum(x * w for x, w in zip(row, d.weights)) == 0 for row in L.basis)


def homogenize_lattice(L: Lattice, d: Grading) -> Lattice:
    """Image of L under e_i |-> d_i * e_i."""
    if L.ambient_dim != d.num_vars:
        raise DimensionError("grading length != ambient dimension")
    return Lattice(
        L.ambient_dim,
        [tuple(x * w for x, w in zip(row, d.weights)) for row in L.basis],
    )


def saturate_lattice(L: Lattice) -> Lattice:
    """(L tensor Q) intersected with Z^s, via SNF by clearing invariant factors."""
    if not L.basis:
        return L
    _, S, _, W = _smith(L.basis)
    r = sum(1 for i in range(min(len(S), len(S[0]))) if S[i][i] != 0)
    # row lattice of basis = row lattice of S * V^{-1}; clearing the factors
    # leaves the first r rows of V^{-1}
    return Lattice(L.ambient_dim, [tuple(W[i]) for i in range(r)])


def kernel_lattice(A) -> Lattice:
    """ker_Z(A) = {x : A x = 0}; always saturated."""
    A = as_matrix(A)
    if not A:
        raise InvalidArgumentError("kernel of an empty matrix is ambiguous")
    n = len(A[0])
    _, S, V, _ = _smith(A)
    r = sum(1 for i in range(min(len(S), n)) if S[i][i] != 0)
    cols = [tuple(V[i][j] for i in range(n)) for j in range(r, n)]
    return Lattice(n, cols)
