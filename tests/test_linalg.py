"""Exact elimination and the float spectral fallbacks, cross-checked
against sympy on random inputs."""

import random
from fractions import Fraction

import pytest
import sympy

from cdalg.algebra import Element, parse_element
from cdalg.linalg import (eigen_kernel, float_rank, identity,
                          left_mult_matrix, mat_add, mat_mul, mat_sub,
                          mat_to_float, mat_vec, matrix_of, nullspace,
                          project_out, rank, right_mult_matrix, rref_rows,
                          stack_rows, symmetric_eigen_float)


def rand_matrix(rng, rows, cols, bound=6, denom=1):
    return tuple(
        tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, denom))
              for _ in range(cols))
        for _ in range(rows))


def to_sympy(M):
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator)
                          for c in row] for row in M])


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
            assert all(c == 0 for c in mat_vec(M, v))
        # canonical form agrees with sympy's span
        theirs = [tuple(Fraction(sympy.fraction(x)[0]) / Fraction(sympy.fraction(x)[1])
                        for x in vec) for vec in to_sympy(M).nullspace()]
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
        assert mat_vec(left_mult_matrix(a), x.coords) == (a * x).coords
        assert mat_vec(right_mult_matrix(a), x.coords) == (x * a).coords


def test_eigen_kernel_of_squared_left_mult():
    x = parse_element("e1+e10", 4)
    L2 = mat_mul(left_mult_matrix(x), left_mult_matrix(x))
    assert len(eigen_kernel(L2, Fraction(0))) == 4
    assert len(eigen_kernel(L2, Fraction(-2))) == 8
    assert len(eigen_kernel(L2, Fraction(-4))) == 4
    assert len(eigen_kernel(L2, Fraction(-3))) == 0


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
    B = rand_matrix(rng, 3, 3)
    assert mat_sub(A, A) == identity(3, Fraction(0))
    assert mat_add(mat_sub(A, B), B) == A
    assert mat_mul(identity(3), A) == A
    assert stack_rows(A, identity(3)) == A + identity(3)
    assert matrix_of(2, lambda v: v * 2) == identity(4, Fraction(2))


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
    rng = random.Random(8)
    for _ in range(20):
        M = rand_matrix(rng, 5, 5)
        assert float_rank(mat_to_float(M)) == rank(M)


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
    S = mat_add(A, tuple(zip(*A)))
    spec = symmetric_eigen_float(S)
    theirs = np.linalg.eigvalsh(np.array(mat_to_float(S)))
    flat = [mu for mu, m in spec.clusters for _ in range(m)]
    assert np.allclose(sorted(flat), sorted(theirs), atol=1e-8)
