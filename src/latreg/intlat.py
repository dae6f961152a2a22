"""Exact integer-lattice linear algebra on one normal form.

Matrices are tuples of row tuples of Python ints, so every normal form is
computed in arbitrary precision.  The row-style Hermite form is the only
elimination: lattices are stored through their unique Hermite basis, which
makes equality and membership canonical; kernels are read off the Hermite
form of [A^T | I]; saturation is the kernel of the kernel; and the Smith
invariant factors come from alternating row and column Hermite forms.  No
unimodular transform is ever built.
"""

from __future__ import annotations

from math import gcd, prod

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


def hermite_normal_form(M) -> Matrix:
    """Row-style Hermite normal form with zero rows dropped.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), so the result is the unique canonical basis of the row
    lattice of M.
    """
    A = [list(r) for r in as_matrix(M)]
    m = len(A)
    r = 0
    for c in range(len(A[0]) if m else 0):
        rows = [i for i in range(r, m) if A[i][c]]
        if not rows:
            continue
        # Euclid down the column: reduce by the least entry until one is left
        while len(rows) > 1:
            p = min(rows, key=lambda i: abs(A[i][c]))
            for i in rows:
                if i != p:
                    q = A[i][c] // A[p][c]
                    A[i] = [x - q * y for x, y in zip(A[i], A[p])]
            rows = [i for i in rows if A[i][c]]
        A[r], A[rows[0]] = A[rows[0]], A[r]
        if A[r][c] < 0:
            A[r] = [-x for x in A[r]]
        for i in range(r):
            q = A[i][c] // A[r][c]
            if q:
                A[i] = [x - q * y for x, y in zip(A[i], A[r])]
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in A[:r])


def smith_invariants(M) -> tuple[int, ...]:
    """The nonzero invariant factors f_1 | f_2 | ... of M.

    Alternate row and column Hermite forms, H <- hermite_normal_form(H^T),
    until H is diagonal, then turn the diagonal into a divisor chain by
    gcd/lcm exchange (diag(a, b) and diag(gcd, lcm) are equivalent).

    Termination: let h be the leading pivot of a row Hermite form H.  The
    next form's leading pivot is g = gcd(row 0 of H), since that row is the
    first column of H^T, so g | h.  If g = h, every entry of row 0 is a
    multiple of h, and column c of H, c the pivot column of row 0, is
    (h, 0, ..., 0).  As row c of H^T it is the first row to reach |h| in the
    leading column, so it becomes the pivot, the other rows lose exact
    multiples of it, and (h) splits off as a diagonal block that later
    forms keep.  So each round that leaves an off-diagonal entry either
    lowers the leading pivot of the unsplit block to a proper divisor or
    splits off a block, and there are at most rank M splits.
    """
    H = hermite_normal_form(M)
    while any(x for i, row in enumerate(H) for j, x in enumerate(row) if i != j):
        H = hermite_normal_form(tuple(zip(*H)))
    f = [H[i][i] for i in range(len(H))]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            g = gcd(f[i], f[j])
            f[i], f[j] = g, f[i] * f[j] // g
    return tuple(f)


class Lattice:
    """A subgroup of Z^s given by its canonical Hermite basis."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, generators):
        gens = as_matrix(generators, cols=ambient_dim)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", hermite_normal_form(gens) if gens else ())

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def smith_invariants(self) -> tuple[int, ...]:
        return smith_invariants(self.basis)

    def _substitute(self, v):
        """(k, k v minus its integer combination of the Hermite rows), read
        off pivot by pivot, where each pivot that does not divide the entry
        above it multiplies k by the least factor that makes it divide.
        The coordinates of v in the basis are determined pivot by pivot, so
        k is the least one that clears every denominator met."""
        v = [int(x) for x in v]
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length != ambient dimension")
        k = 1
        for row in self.basis:
            c = next(j for j, x in enumerate(row) if x != 0)
            if v[c] % row[c]:
                e = row[c] // gcd(v[c], row[c])
                k *= e
                v = [x * e for x in v]
            q = v[c] // row[c]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return k, v

    def contains(self, v) -> bool:
        """Membership test against the Hermite basis."""
        k, rest = self._substitute(v)
        return k == 1 and not any(rest)

    def least_multiple(self, v) -> int:
        """The least k > 0 with k v in L, by one integer pass down the
        Hermite basis; InvalidArgumentError when no multiple of v lies in L
        (v outside L tensor Q)."""
        k, rest = self._substitute(v)
        if any(rest):
            raise InvalidArgumentError("no multiple of the vector lies in the lattice")
        return k

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and self.basis == other.basis

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Lattice(dim={self.ambient_dim}, basis={self.basis})"


def subgroup_mod(m: int, vectors, n: int) -> tuple[Matrix, int]:
    """The Hermite basis of the lattice spanned by the vectors and m Z^n,
    and the order m^n / prod(pivots) of the subgroup of (Z/m)^n that the
    vectors generate."""
    torus = [tuple(m if j == i else 0 for j in range(n)) for i in range(n)]
    basis = Lattice(n, list(vectors) + torus).basis
    return basis, m**n // prod(h[i] for i, h in enumerate(basis))


def torsion_order(L: Lattice) -> int:
    """|T(Z^s / L)| = product of the nonzero Smith invariant factors."""
    return prod(L.smith_invariants)


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
    """(L tensor Q) intersected with Z^s: the kernel of the kernel of L's
    basis, where the kernel of a full-rank L is the zero row."""
    if not L.basis:
        return L
    return kernel_lattice(kernel_lattice(L.basis).basis or [(0,) * L.ambient_dim])


def kernel_lattice(A) -> Lattice:
    """ker_Z(A) = {y : A y = 0}; always saturated.

    The rows of [A^T | I_n] span {(A y, y) : y in Z^n}, and the rows of its
    Hermite form whose A^T part is zero are a basis of the pairs with A y = 0.
    """
    A = as_matrix(A)
    if not A:
        raise InvalidArgumentError("kernel of an empty matrix is ambiguous")
    m, n = len(A), len(A[0])
    cols = [tuple(r[j] for r in A) for j in range(n)]
    H = hermite_normal_form(
        [c + tuple(int(i == j) for i in range(n)) for j, c in enumerate(cols)]
    )
    return Lattice(n, [row[m:] for row in H if not any(row[:m])])
