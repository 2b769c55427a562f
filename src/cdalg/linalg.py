"""Linear algebra for multiplication operators on the level-n algebras.

Exact paths work on tuples of Fractions via fraction-free (Bareiss)
elimination, so ranks, nullspaces, projections and rational eigenspaces
are computed without rounding.  Every exact eigenspace comes from
eigen_kernel, restricted ones too: the zero-divisor criterion and the
bands of decompose ask for an eigenspace of L^2 inside the orthogonal
complement of a few vectors, which is the nullspace of L^2 - mu*I with
those vectors stacked below as rows.  Float paths (symmetric eigensolver,
pivoted rank) use numpy and report explicit error bounds instead of
exactness; they import numpy when called, so the exact paths never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Sequence, Tuple

from .algebra import Element, common_denominator

if TYPE_CHECKING:
    import numpy as np

Vector = Tuple[Fraction, ...]
Matrix = Tuple[Vector, ...]
# rows of an exact matrix; OperatorMatrix is the square case with
# column j holding the coordinates of op(e_j)
OperatorMatrix = Matrix
SubspaceBasis = Tuple[Vector, ...]


# -- construction -------------------------------------------------------------

def matrix_of(level: int, op: Callable[[Element], Element]) -> OperatorMatrix:
    """Exact matrix of a linear map on the level-n algebra.

    Column j is op(e_j), so rows are assembled by transposing the images.
    """
    dim = 1 << level
    cols = [op(Element.basis(level, j)).coords for j in range(dim)]
    return tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))


def left_mult_matrix(a: Element) -> OperatorMatrix:
    return matrix_of(a.level, lambda x: a * x)


def right_mult_matrix(a: Element) -> OperatorMatrix:
    return matrix_of(a.level, lambda x: x * a)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    Bt = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt)
                 for row in A)


# -- fraction-free elimination -------------------------------------------------

def _integer_rows(A: Matrix) -> List[List[int]]:
    """Clear denominators row by row; scaling rows changes neither the
    nullspace nor the pivot structure."""
    return [common_denominator(row)[0] for row in A]


def _echelon(W: List[List[int]]) -> List[int]:
    """In-place single-step Bareiss echelon form.

    Pivot choice is deterministic: columns left to right, first row with a
    nonzero entry.  Every division below is exact because each updated
    entry is a minor of the original integer matrix divided by the
    previous pivot.  Returns the pivot columns.
    """
    m = len(W)
    ncols = len(W[0]) if m else 0
    piv_cols: List[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if W[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            W[r], W[p] = W[p], W[r]
        Wr = W[r]
        pivot = Wr[c]
        for i in range(r + 1, m):
            Wi = W[i]
            f = Wi[c]
            # rows with f == 0 still rescale by pivot/prev, or the exact
            # divisibility of later steps breaks
            for j in range(c + 1, ncols):
                Wi[j] = (pivot * Wi[j] - f * Wr[j]) // prev
            Wi[c] = 0
        prev = pivot
        piv_cols.append(c)
        r += 1
    return piv_cols


def _rref(W: List[List[int]], piv_cols: List[int]) -> List[List[Fraction]]:
    """Reduced row echelon continuation of an echelon form, over Fraction."""
    R = [[Fraction(x) for x in W[r]] for r in range(len(piv_cols))]
    for r in reversed(range(len(piv_cols))):
        c = piv_cols[r]
        pv = R[r][c]
        R[r] = [x / pv for x in R[r]]
        for r2 in range(r):
            f = R[r2][c]
            if f:
                R[r2] = [x - f * y for x, y in zip(R[r2], R[r])]
    return R


def rank(A: Matrix) -> int:
    W = _integer_rows(A)
    piv = _echelon(W)
    return len(piv)


def nullspace(A: Matrix) -> SubspaceBasis:
    """Canonical exact nullspace basis: one vector per free column, taken in
    ascending column order, each with unit entry at its free column and the
    back-solved pivot entries elsewhere.  Identical matrices always produce
    identical bases, which the reporting layers rely on."""
    ncols = len(A[0]) if A else 0
    W = _integer_rows(A)
    piv = _echelon(W)
    R = _rref(W, piv)
    piv_set = set(piv)
    basis = []
    for f in range(ncols):
        if f in piv_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -R[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def rref_rows(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Canonical form of the row space: RREF rows with zero rows dropped.
    Two spanning sets describe the same subspace iff these agree."""
    if not vectors:
        return ()
    A = tuple(tuple(Fraction(x) for x in row) for row in vectors)
    W = _integer_rows(A)
    piv = _echelon(W)
    return tuple(tuple(row) for row in _rref(W, piv))


def eigen_kernel(M: Matrix, mu: Fraction,
                 orthogonal_to: Matrix = ()) -> SubspaceBasis:
    """Exact eigenspace of square M at rational mu, restricted to the
    orthogonal complement of the rows of orthogonal_to: the canonical
    nullspace of M - mu*I with those rows stacked below.  Only the diagonal
    is shifted."""
    shifted = tuple(row[:i] + (row[i] - mu,) + row[i + 1:]
                    for i, row in enumerate(M))
    return nullspace(shifted + orthogonal_to)


def project_out(v: Sequence[Fraction],
                vectors: Sequence[Sequence[Fraction]]) -> Vector:
    """Exact projection of v onto the orthogonal complement of the span of
    the given pairwise-orthogonal nonzero vectors: v - sum <v,g>/|g|^2 g."""
    vecs = [tuple(Fraction(c) for c in g) for g in vectors]
    for i, u in enumerate(vecs):
        for w in vecs[i + 1:]:
            if sum(p * q for p, q in zip(u, w)) != 0:
                raise ValueError("projection needs pairwise orthogonal vectors")
    norms = [sum(c * c for c in g) for g in vecs]
    if any(n2 == 0 for n2 in norms):
        raise ValueError("projection needs nonzero vectors")
    out = [Fraction(c) for c in v]
    for g, n2 in zip(vecs, norms):
        f = sum(p * q for p, q in zip(v, g)) / n2
        if f:
            out = [c - f * x for c, x in zip(out, g)]
    return tuple(out)


# -- float paths ---------------------------------------------------------------

@dataclass(frozen=True)
class FloatSpectrum:
    """Clustered eigenvalues of a symmetric operator.

    clusters: (representative eigenvalue, multiplicity) sorted ascending;
    multiplicities sum to the dimension.  residual_bound is the largest
    entry of |M v - lambda v| over all computed eigenpairs.
    """
    clusters: Tuple[Tuple[float, int], ...]
    residual_bound: float

    @property
    def dimension(self) -> int:
        return sum(m for _, m in self.clusters)


def symmetric_eigen_float(M: Matrix, cluster_gap: float = 1e-9) -> FloatSpectrum:
    """Eigensolve of an exactly symmetric matrix with numpy's eigh.

    Symmetry is verified on the exact entries before any rounding;
    eigenvalues closer than cluster_gap merge into one cluster.
    """
    import numpy as np
    n = len(M)
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j] != M[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    Mf = np.array(M, dtype=float)
    lams, V = np.linalg.eigh(Mf)     # eigenvalues ascending
    residual = float(np.max(np.abs(Mf @ V - V * lams)))
    clusters: List[Tuple[float, int]] = []
    bucket: List[float] = []
    for lam in map(float, lams):
        if bucket and lam - bucket[-1] > cluster_gap:
            clusters.append((sum(bucket) / len(bucket), len(bucket)))
            bucket = []
        bucket.append(lam)
    if bucket:
        clusters.append((sum(bucket) / len(bucket), len(bucket)))
    return FloatSpectrum(tuple(clusters), residual)


def float_rank(M: np.ndarray, tolerance: float = 1e-9) -> int:
    """Rank by Gaussian elimination with partial pivoting.

    A pivot below 1e-12 counts as zero; one in [1e-12, tolerance) is
    ambiguous and raises rather than guessing.
    """
    import numpy as np
    A = np.array(M, dtype=float, copy=True)
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        p = r + int(np.argmax(np.abs(A[r:, c])))
        pivot = abs(A[p, c])
        if pivot < 1e-12:
            continue
        if pivot < tolerance:
            raise ValueError(
                f"pivot {pivot:.3e} in the indeterminate band "
                f"[1e-12, {tolerance:.0e}); cannot decide rank")
        A[[r, p]] = A[[p, r]]
        A[r + 1:, c:] -= np.outer(A[r + 1:, c] / A[r, c], A[r, c:])
        r += 1
    return r
