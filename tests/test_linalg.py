"""Exact elimination and the float spectral fallbacks, cross-checked
against sympy on random inputs."""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from cdalg.algebra import Element, parse_element, tilde
from cdalg.linalg import (eigen_kernel, float_rank, left_mult_matrix,
                          mat_mul, matrix_of, nullspace, project_out, rank,
                          right_mult_matrix, rref_rows, symmetric_eigen_float)
from cdalg.structure import decompose


def rand_matrix(rng, rows, cols, bound=6, denom=1):
    return tuple(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, denom))
              for _ in range(cols))
        for _ in range(rows))


def to_sympy(M):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in M])


def column(v):
    return to_sympy((v,)).T


def sympy_nullspace(M):
    return [tuple(Fraction(int(x.p), int(x.q)) for x in vec)
            for vec in to_sympy(M).nullspace()]


def test_rank_and_det_against_sympy():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        M = rand_matrix(rng, n, m, denom=3)
        assert rank(M) == to_sympy(M).rank()
        if n == m:
            assert (rank(M) == n) == (to_sympy(M).det() != 0)


def test_rank_deficient_products():
    rng = random.Random(1)
    for _ in range(15):
        A = rand_matrix(rng, 5, 2)
        B = rand_matrix(rng, 2, 5)
        M = mat_mul(A, B)
        assert rank(M) <= 2
        assert to_sympy(M) == to_sympy(A) * to_sympy(B)


def test_nullspace_exact_and_complete():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 7)
        m = rng.randint(1, 7)
        M = rand_matrix(rng, n, m, denom=3)
        basis = nullspace(M)
        assert rank(M) + len(basis) == m
        for v in basis:
            assert to_sympy(M) * column(v) == sympy.zeros(n, 1)
        # canonical form agrees with sympy's span
        theirs = sympy_nullspace(M)
        if basis or theirs:
            assert rref_rows(list(basis) + theirs) == rref_rows(list(basis))


def test_nullspace_canonical_under_row_operations():
    rng = random.Random(4)
    for _ in range(15):
        M = rand_matrix(rng, 4, 6)
        rows = list(M)
        rng.shuffle(rows)
        scaled = tuple(tuple(Fraction(3, 2) * c for c in row) for row in rows)
        assert nullspace(M) == nullspace(scaled)


def test_left_mult_determinant_of_alternative():
    # det L_a is norm_sq(a) to the half-dimension for alternative a
    for level in (2, 3):
        rng = random.Random(5 + level)
        from cdalg.catalog import random_element
        for _ in range(8):
            a = random_element(rng, level, support=3)
            d = to_sympy(left_mult_matrix(a)).det()
            n2 = a.norm_sq()
            assert d == sympy.Rational(n2.numerator, n2.denominator) ** (1 << (level - 1))


def test_mult_matrices_represent_products():
    rng = random.Random(6)
    from cdalg.catalog import random_element
    for _ in range(10):
        a = random_element(rng, 3)
        x = random_element(rng, 3)
        assert to_sympy(left_mult_matrix(a)) * column(x.coords) == column((a * x).coords)
        assert to_sympy(right_mult_matrix(a)) * column(x.coords) == column((x * a).coords)


def test_eigen_kernel_of_squared_left_mult():
    x = parse_element("e1+e10", 4)
    L2 = mat_mul(left_mult_matrix(x), left_mult_matrix(x))
    assert len(eigen_kernel(L2, Fraction(0))) == 4
    assert len(eigen_kernel(L2, Fraction(-2))) == 8
    assert len(eigen_kernel(L2, Fraction(-4))) == 4
    assert len(eigen_kernel(L2, Fraction(-3))) == 0


def check_restricted_eigen_kernel(M, mu, rows):
    # oracle: the nullspace of (M - mu*I) with the rows stacked below,
    # built here entry by entry
    n = len(M)
    stacked = tuple(tuple(M[i][j] - (mu if i == j else 0) for j in range(n))
                    for i in range(n)) + tuple(rows)
    basis = eigen_kernel(M, mu, rows)
    assert basis == nullspace(stacked)
    theirs = sympy_nullspace(stacked)
    assert len(basis) == len(theirs)
    if basis:
        assert rref_rows(list(basis) + theirs) == rref_rows(list(basis))
    return basis


def test_eigen_kernel_restricted_on_symmetric_matrices():
    # seeded rational symmetric S = A^T A + c*I: every eigenvalue is >= c,
    # and the eigenspace at c is Ker A
    rng = random.Random(10)
    for _ in range(12):
        n = rng.randint(2, 6)
        A = rand_matrix(rng, rng.randint(1, n), n, bound=3, denom=3)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        S = tuple(tuple(sum(row[i] * row[j] for row in A) + (c if i == j else 0)
                        for j in range(n)) for i in range(n))
        rows = rand_matrix(rng, rng.randint(0, 2), n, denom=2)
        basis = check_restricted_eigen_kernel(S, c, rows)
        assert len(basis) == n - rank(A + rows)
        assert check_restricted_eigen_kernel(S, c - 1, rows) == ()


def test_eigen_kernel_restricted_in_criterion_shape():
    # the criterion's shape: L_{a+b}^2 at -2|a|^2 outside {e0, a, b, ab},
    # for every basis couple at level 3 and a seeded sample at level 4.  Its
    # dimension is that of Ker L_(a,b) one level up.  L_s^2 is negative
    # semidefinite for pure s, so 1 is no eigenvalue.
    couples = [(3, i, j) for i, j in itertools.combinations(range(1, 8), 2)]
    rng = random.Random(11)
    couples += [(4, i, j) for i, j in
                rng.sample(list(itertools.combinations(range(1, 16), 2)), 12)]
    for level, i, j in couples:
        a, b = Element.basis(level, i), Element.basis(level, j)
        s = a + b
        L2 = matrix_of(level, lambda v: s * (s * v))
        quad = tuple(e.coords for e in (Element.unit(level), a, b, a * b))
        criterion = check_restricted_eigen_kernel(L2, Fraction(-2), quad)
        kernel = nullspace(left_mult_matrix(Element.pair(a, b)))
        assert len(criterion) == len(kernel)
        assert check_restricted_eigen_kernel(L2, Fraction(1), quad) == ()


def test_eigen_kernel_restricted_in_decompose_shape():
    # decompose's shape: L_a^2 at -|a|^2 outside {e0, tilde(a), a, e_half}
    for text, level in (("e1+e10", 4), ("2*e3-e5+e9-e14", 4),
                        ("e1+e18", 5), ("e2-2*e7+e11+e20-e29", 5)):
        a = parse_element(text, level)
        n2 = a.norm_sq()
        L2 = matrix_of(level, lambda v: a * (a * v))
        gens = (Element.unit(level), tilde(a), a, Element.half_unit(level))
        rows = tuple(e.coords for e in gens)
        ker_t = check_restricted_eigen_kernel(L2, -n2, rows)
        assert ker_t == tuple(e.coords for e in decompose(a).alternator_kernel)
        assert check_restricted_eigen_kernel(L2, n2, rows) == ()


def test_rref_rows_canonicalizes_spans():
    v1 = (Fraction(1), Fraction(2), Fraction(0))
    v2 = (Fraction(0), Fraction(1), Fraction(1))
    mixed = [tuple(a + b for a, b in zip(v1, v2)), v2,
             tuple(2 * c for c in v1)]
    assert rref_rows(mixed) == rref_rows([v1, v2])
    assert rref_rows([v1]) != rref_rows([v2])
    assert rref_rows([]) == ()


def test_matrix_helper_algebra():
    rng = random.Random(7)
    A = rand_matrix(rng, 3, 3)
    I3 = tuple(tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3))
    assert mat_mul(I3, A) == A
    assert matrix_of(2, lambda v: v * 2) == tuple(
        tuple(Fraction(2 * (i == j)) for j in range(4)) for i in range(4))


def test_orthogonal_projection():
    # an orthogonal, non-normalized set: e0, e1 + e2, 2*e1 - 2*e2 + e3
    gens = [parse_element(t, 3).coords for t in ("e0", "e1+e2", "2*e1-2*e2+e3")]
    dim = 8
    # oracle: column j of I - sum g g^T / |g|^2 is the projection of e_j
    norms = [sum(c * c for c in g) for g in gens]
    P = tuple(tuple((1 if i == j else 0)
                    - sum(g[i] * g[j] / n2 for g, n2 in zip(gens, norms))
                    for j in range(dim))
              for i in range(dim))
    for j in range(dim):
        y = project_out(Element.basis(3, j).coords, gens)
        assert y == tuple(P[i][j] for i in range(dim))
        assert project_out(y, gens) == y
    for g in gens:
        assert all(c == 0 for c in project_out(g, gens))
    assert rank(P) == dim - len(gens)
    with pytest.raises(ValueError):
        project_out((Fraction(1), Fraction(1)),
                    [(Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))])
    with pytest.raises(ValueError):
        project_out((Fraction(1), Fraction(1)), [(Fraction(0), Fraction(0))])


def test_float_rank_matches_exact_on_integers():
    import numpy as np
    rng = random.Random(8)
    for _ in range(20):
        M = rand_matrix(rng, 5, 5)
        assert float_rank(np.array(M, dtype=float)) == rank(M)


def test_float_rank_band_behavior():
    clean = ((1.0, 0.0), (0.0, 1e-13))
    assert float_rank(clean) == 1
    murky = ((1.0, 0.0), (0.0, 1e-10))
    with pytest.raises(ValueError):
        float_rank(murky)
    assert float_rank(murky, tolerance=1e-11) == 2


def test_symmetric_eigen_known_spectrum():
    x = parse_element("e1+e10", 4)
    L2 = mat_mul(left_mult_matrix(x), left_mult_matrix(x))
    spec = symmetric_eigen_float(L2)
    assert spec.dimension == 16
    assert spec.residual_bound < 1e-8
    got = sorted((round(mu, 6), m) for mu, m in spec.clusters)
    assert got == [(-4.0, 4), (-2.0, 8), (0.0, 4)]


def test_symmetric_eigen_rejects_asymmetric():
    M = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        symmetric_eigen_float(M)


def test_symmetric_eigen_against_numpy():
    import numpy as np
    rng = random.Random(9)
    A = rand_matrix(rng, 6, 6, bound=4)
    S = tuple(tuple(A[i][j] + A[j][i] for j in range(6)) for i in range(6))
    spec = symmetric_eigen_float(S)
    theirs = np.linalg.eigvalsh(np.array(S, dtype=float))
    flat = [mu for mu, m in spec.clusters for _ in range(m)]
    assert np.allclose(sorted(flat), sorted(theirs), atol=1e-8)
