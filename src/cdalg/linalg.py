"""Linear algebra for multiplication operators on the level-n algebras.

Exact paths work on tuples of Fractions via fraction-free (Bareiss)
elimination, so ranks, determinants, nullspaces and rational eigenspaces
are computed without rounding.  Float paths (symmetric eigensolver, pivoted
rank) use numpy and report explicit error bounds instead of exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .algebra import Element, common_denominator

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


def identity(n: int, scale: Fraction = Fraction(1)) -> Matrix:
    return tuple(tuple(scale if i == j else Fraction(0) for j in range(n))
                 for i in range(n))


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A: Matrix, s: Fraction) -> Matrix:
    return tuple(tuple(s * a for a in row) for row in A)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    Bt = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in Bt)
                 for row in A)


def mat_vec(A: Matrix, v: Sequence[Fraction]) -> Vector:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in A)


def transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def stack_rows(*blocks: Matrix) -> Matrix:
    out: list = []
    for b in blocks:
        out.extend(b)
    return tuple(out)


def mat_to_float(A: Matrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in A], dtype=float)


# -- fraction-free elimination -------------------------------------------------

def _integer_rows(A: Matrix) -> Tuple[List[List[int]], List[int]]:
    """Clear denominators row by row; scaling rows changes neither the
    nullspace nor the pivot structure."""
    rows, scales = [], []
    for row in A:
        ints, m = common_denominator(row)
        rows.append(ints)
        scales.append(m)
    return rows, scales


def _echelon(W: List[List[int]]) -> Tuple[List[int], int]:
    """In-place single-step Bareiss echelon form.

    Pivot choice is deterministic: columns left to right, first row with a
    nonzero entry.  Every division below is exact because each updated
    entry is a minor of the original integer matrix divided by the
    previous pivot.  Returns (pivot columns, row-swap sign).
    """
    m = len(W)
    ncols = len(W[0]) if m else 0
    piv_cols: List[int] = []
    sign = 1
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
            sign = -sign
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
    return piv_cols, sign


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
    W, _ = _integer_rows(A)
    piv, _ = _echelon(W)
    return len(piv)


def determinant(A: Matrix) -> Fraction:
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return Fraction(1)
    W, scales = _integer_rows(A)
    piv, sign = _echelon(W)
    if len(piv) < n:
        return Fraction(0)
    # after full-rank Bareiss the last pivot is the determinant of the
    # row-scaled integer matrix, up to the swap sign
    d = Fraction(sign * W[n - 1][n - 1])
    for s in scales:
        d /= s
    return d


def nullspace(A: Matrix) -> SubspaceBasis:
    """Canonical exact nullspace basis: one vector per free column, taken in
    ascending column order, each with unit entry at its free column and the
    back-solved pivot entries elsewhere.  Identical matrices always produce
    identical bases, which the reporting layers rely on."""
    ncols = len(A[0]) if A else 0
    W, _ = _integer_rows(A)
    piv, _ = _echelon(W)
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
    W, _ = _integer_rows(A)
    piv, _ = _echelon(W)
    return tuple(tuple(row) for row in _rref(W, piv))


def eigen_kernel(M: Matrix, mu: Fraction) -> SubspaceBasis:
    """Exact eigenspace of M at rational mu, as nullspace(M - mu*I)."""
    n = len(M)
    return nullspace(mat_sub(M, identity(n, Fraction(mu))))


def orthogonal_projection(vectors: Sequence[Sequence[Fraction]]) -> Matrix:
    """Exact projector onto the orthogonal complement of the span of the
    given pairwise-orthogonal nonzero vectors."""
    vecs = [tuple(Fraction(c) for c in v) for v in vectors]
    for i, u in enumerate(vecs):
        for w in vecs[i + 1:]:
            if sum(p * q for p, q in zip(u, w)) != 0:
                raise ValueError("projection needs pairwise orthogonal vectors")
    n = len(vecs[0]) if vecs else 0
    norms = [sum(c * c for c in v) for v in vecs]
    if any(n2 == 0 for n2 in norms):
        raise ValueError("projection needs nonzero vectors")
    return tuple(
        tuple(Fraction(1 if i == j else 0)
              - sum(v[i] * v[j] / n2 for v, n2 in zip(vecs, norms))
              for j in range(n))
        for i in range(n))


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
    n = len(M)
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j] != M[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")
    Mf = mat_to_float(M)
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
