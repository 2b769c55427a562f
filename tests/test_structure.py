"""Structure layer: annihilators, embeddings, decomposition, and the
dual-path zero-divisor test."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from cdalg.algebra import (Element, associator, format_element, parse_element,
                           swap_halves, tilde)
from cdalg.catalog import random_element, random_special_couple
from cdalg.linalg import left_mult_matrix, mat_vec, nullspace, rref_rows
from cdalg.structure import (PreconditionError, VerificationError,
                             annihilator, alternator_matrix, couple_embedding,
                             couple_failure, couple_kernel_split, decompose,
                             float_zero_divisor_test, is_special_couple,
                             is_special_triple, is_special_zero_divisor,
                             middle_associator_matrix, octonion_embedding,
                             quaternion_embedding, zero_divisor_test)


def same_span(xs, ys):
    return rref_rows([x.coords for x in xs]) == rref_rows([y.coords for y in ys])


# -- annihilators ---------------------------------------------------------------

def test_annihilator_of_golden_divisor():
    x = parse_element("e1+e10", 4)
    ann = annihilator(x)
    assert len(ann) == 4
    target = parse_element("e15-e4", 4)
    assert rref_rows([v.coords for v in ann]) == \
        rref_rows([v.coords for v in ann] + [target.coords])
    zero = Element.zero(4)
    for w in ann:
        assert x * w == zero
        assert w * x == zero


def test_annihilator_trivial_below_sedenions():
    for level in (1, 2, 3):
        rng = random.Random(level)
        for _ in range(10):
            a = random_element(rng, level)
            if a:
                assert annihilator(a) == ()
    assert annihilator(parse_element("e1", 4)) == ()


def test_annihilator_rejects_zero():
    with pytest.raises(ValueError):
        annihilator(Element.zero(4))


# -- quaternion copy of a doubly pure element --------------------------------------

def test_quaternion_embedding_generators():
    a = parse_element("e1+e10", 4)
    gens = quaternion_embedding(a)
    assert gens[0] == Element.unit(4)
    assert gens[1] == tilde(a)
    assert gens[2] == a
    assert gens[3] == Element.half_unit(4)
    n2 = a.norm_sq()
    assert a * tilde(a) == -n2 * gens[3]
    assert tilde(a) * a == n2 * gens[3]
    assert a * gens[3] == tilde(a)
    assert gens[3] * a == -tilde(a)


def test_quaternion_embedding_random():
    rng = random.Random(11)
    for level in (2, 3, 4):
        for _ in range(6):
            a = random_element(rng, level, doubly_pure=True)
            quaternion_embedding(a)


def test_quaternion_embedding_needs_doubly_pure():
    with pytest.raises(ValueError):
        quaternion_embedding(parse_element("e8", 4))
    with pytest.raises(ValueError):
        quaternion_embedding(parse_element("e0+e1", 4))


# -- special couples -----------------------------------------------------------------

def test_couple_failure_clauses():
    z = Element.zero(3)
    e1, e2 = parse_element("e1", 3), parse_element("e2", 3)
    assert couple_failure(z, e1) == "first entry is zero"
    assert couple_failure(e1, z) == "second entry is zero"
    assert couple_failure(parse_element("e0+e1", 3), e1) == "first entry has nonzero trace"
    assert couple_failure(parse_element("e1+e10", 4), parse_element("e2", 4)) \
        == "first entry is not alternative"
    assert couple_failure(e1, 2 * e2) == "entries have different norms"
    assert couple_failure(e1, e1) == "entries are not orthogonal"
    assert couple_failure(e1, e2) is None
    assert is_special_couple(e1, e2)


def test_couple_embedding_table():
    a, b = parse_element("e1", 3), parse_element("2*e2", 3)
    assert couple_failure(a, 2 * b) == "entries have different norms"
    a, b = 2 * a, b
    gens = couple_embedding(a, b)
    assert gens == (Element.unit(3), a, b, a * b)
    na, nb = a.norm_sq(), b.norm_sq()
    assert a * b == -(b * a)
    assert a * (a * b) == -na * b
    assert (a * b) * a == na * b
    assert b * (a * b) == nb * a
    assert (a * b) * b == -nb * a
    assert (a * b) * (a * b) == -(na * nb) * Element.unit(3)


def test_random_couples_embed():
    for level in (3, 4):
        rng = random.Random(level * 7)
        for _ in range(5):
            a, b = random_special_couple(rng, level)
            couple_embedding(a, b)


# -- middle operator kernels ------------------------------------------------------------

def test_kernel_split_octonion_couples_trivial():
    p, m = couple_kernel_split(parse_element("e1", 3), parse_element("e2", 3))
    assert (len(p), len(m)) == (0, 0)


def test_kernel_split_golden_couple():
    a, b = parse_element("e1", 4), parse_element("e10", 4)
    plus, minus = couple_kernel_split(a, b)
    assert (len(plus), len(minus)) == (4, 4)
    s_mat = middle_associator_matrix(a, b)
    for v in plus + minus:
        assert all(c == 0 for c in mat_vec(s_mat, v.coords))
        assert v.inner(a) == 0 and v.inner(b) == 0
    zero = Element.zero(4)
    for v in plus:
        assert (a + b) * v == zero
    for v in minus:
        assert (a - b) * v == zero


def test_kernel_split_all_basis_couples_mod_eight():
    for level in (3, 4):
        dim = 1 << level
        sizes = set()
        for i in range(1, dim):
            for j in range(i + 1, dim):
                plus, minus = couple_kernel_split(
                    Element.basis(level, i), Element.basis(level, j))
                assert len(plus) == len(minus)
                assert (len(plus) + len(minus)) % 8 == 0
                sizes.add(len(plus) + len(minus))
        if level == 4:
            assert 8 in sizes  # some sedenion couples have middle kernels


# -- decomposition ---------------------------------------------------------------------

def test_decompose_golden_divisor():
    d = decompose(parse_element("e1+e10", 4))
    assert d.dims() == (4, 4, 4, (4,))
    assert d.total_dim() == 16
    band = d.middle[0]
    assert band.exact == 2
    assert abs(band.lambda_sq - 2.0) < 1e-9
    assert same_span(d.annihilator, annihilator(parse_element("e1+e10", 4)))


def test_decompose_alternative_element():
    d = decompose(parse_element("e1", 4))
    assert d.dims() == (4, 12, 0, ())
    assert d.total_dim() == 16


def test_decompose_scale_invariant():
    a = parse_element("e1+e10", 4)
    d1, d2 = decompose(a), decompose(3 * a)
    assert d1.dims() == d2.dims()
    assert [(b.lambda_sq, b.dim, b.exact) for b in d1.middle] == \
        [(b.lambda_sq, b.dim, b.exact) for b in d2.middle]
    assert same_span(d1.annihilator, d2.annihilator)


def test_decompose_summands_are_orthogonal():
    rng = random.Random(17)
    for _ in range(5):
        a = random_element(rng, 4, support=4, doubly_pure=True)
        d = decompose(a)
        q, t, l, mids = d.dims()
        assert q == 4
        assert t % 4 == 0 and l % 4 == 0 and all(m % 4 == 0 for m in mids)
        assert d.total_dim() == 16
        # summands are mutually orthogonal; bases inside one need not be
        groups = [d.quaternion_part, d.alternator_kernel, d.annihilator]
        for gi, g in enumerate(groups):
            for h in groups[gi + 1:]:
                for x in g:
                    for y in h:
                        assert x.inner(y) == 0


def test_decompose_dense_level5_keeps_bands_whole():
    # dense coefficients up to +-50: the float spectrum must neither split a
    # 4-dimensional band nor raise numpy warnings
    a = parse_element(
        "7*e1-32*e2+10*e3-16*e4+34*e5+28*e6+46*e7-43*e8+4*e9+44*e10-18*e11"
        "-5*e12+12*e13+40*e14-6*e15+48*e17-42*e18-38*e19-16*e20-39*e21"
        "-46*e22+47*e23-2*e24+41*e25+12*e26+19*e27+37*e28-40*e29-50*e30"
        "+41*e31", 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        d = decompose(a)
    assert d.dims() == (4, 0, 0, (4,) * 7)
    assert all(band.exact is None for band in d.middle)


def test_decompose_needs_doubly_pure():
    with pytest.raises(ValueError):
        decompose(parse_element("e0+e1", 4))


def test_alternator_matrix_vanishes_for_alternative():
    a = parse_element("e1+e2", 3)
    M = alternator_matrix(a)
    assert all(c == 0 for row in M for c in row)
    x = parse_element("e1+e10", 4)
    assert any(c != 0 for row in alternator_matrix(x) for c in row)


# -- zero-divisor verdicts --------------------------------------------------------------

def test_zero_divisor_golden_couple():
    rep = zero_divisor_test(parse_element("e1", 3), parse_element("e2", 3))
    assert rep.is_zero_divisor and rep.criterion_hit
    assert rep.ker_dim == 4
    assert rep.pair_level == 4
    assert rep.special_couple and rep.special_zd
    x, y = rep.witness
    pair = parse_element("e1+e10", 4)
    assert not pair * Element.pair(x, y)
    n2 = Fraction(1)
    assert associator(rep.a, y, rep.b) == (-2 * n2) * x
    assert associator(rep.a, x, rep.b) == (2 * n2) * y


def test_zero_divisor_negatives():
    e1 = parse_element("e1", 3)
    rep = zero_divisor_test(e1, e1)
    assert not rep.is_zero_divisor and not rep.criterion_hit
    assert rep.ker_dim == 0 and rep.witness is None and rep.special_zd is None
    rep = zero_divisor_test(e1, -e1)
    assert not rep.is_zero_divisor and rep.ker_dim == 0
    rep = zero_divisor_test(e1, 2 * parse_element("e2", 3))
    assert not rep.is_zero_divisor and not rep.special_couple
    assert rep.criterion_hit is False


def test_zero_divisor_deep_pair():
    a = parse_element("e1", 4)
    rep = zero_divisor_test(a, tilde(a))
    assert rep.is_zero_divisor and rep.ker_dim == 12
    assert rep.special_zd is True
    x, y = rep.witness
    pair = Element.pair(a, tilde(a))
    assert not pair * Element.pair(x, y)


def test_zero_divisor_preconditions():
    e1 = parse_element("e1", 3)
    with pytest.raises(ValueError) as mismatch:
        zero_divisor_test(e1, parse_element("e1", 4))
    assert not isinstance(mismatch.value, PreconditionError)
    with pytest.raises(PreconditionError, match="second entry is zero"):
        zero_divisor_test(e1, Element.zero(3))
    with pytest.raises(PreconditionError, match="first entry has nonzero trace"):
        zero_divisor_test(parse_element("e0+e1", 3), e1)
    with pytest.raises(PreconditionError, match="first entry is not alternative"):
        zero_divisor_test(parse_element("e1+e10", 4), parse_element("e2", 4))
    with pytest.raises(PreconditionError, match="second entry is not alternative"):
        zero_divisor_test(parse_element("e2", 4), parse_element("e1+e10", 4))


def test_special_zero_divisor_wrapper():
    assert is_special_zero_divisor(parse_element("e1", 3), parse_element("e2", 3))
    with pytest.raises(ValueError):
        is_special_zero_divisor(parse_element("e1", 3), parse_element("e1", 3))


def test_all_octonion_basis_couples_are_divisors():
    # every distinct pure basis couple one level below the sedenions
    for i in range(1, 8):
        for j in range(i + 1, 8):
            rep = zero_divisor_test(Element.basis(3, i), Element.basis(3, j))
            assert rep.is_zero_divisor and rep.ker_dim == 4
            assert rep.special_zd is True


def test_float_zero_divisor_agrees_on_golden():
    x = parse_element("e1+e10", 4)
    a, b = x.halves()
    fa = tuple(float(c) for c in a.coords)
    fb = tuple(float(c) for c in b.coords)
    rep = float_zero_divisor_test(fa, fb)
    assert rep.is_zero_divisor and rep.nullity == 4
    assert rep.pair_level == 4
    assert not rep.alternative


def test_float_zero_divisor_remark_case():
    s = 1 / math.sqrt(2)
    a = tuple(1.0 if i == 1 else 0.0 for i in range(8))
    b = tuple(s if i in (1, 2) else 0.0 for i in range(8))
    rep = float_zero_divisor_test(a, b)
    assert rep.nullity == 0 and not rep.is_zero_divisor
    assert not rep.alternative
    assert rep.max_alternator_residual > 1e-9
    assert rep.tolerance == 1e-9


def test_float_zero_divisor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        float_zero_divisor_test((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        float_zero_divisor_test((1.0, 0.0), (1.0, 0.0, 0.0, 0.0))


# -- special triples and the octonion copy ---------------------------------------------

def test_special_triple_golden():
    a, y, b = parse_element("e1", 3), parse_element("e7", 3), parse_element("e2", 3)
    assert is_special_triple(a, y, b)
    assert is_special_triple(b, y, a)
    assert is_special_triple(parse_element("e1", 4), parse_element("e7", 4),
                             parse_element("e2", 4))


def test_special_triple_condition_fails():
    # y inside the quaternion copy spanned by the couple breaks the
    # association condition
    a, y, b = parse_element("e1", 3), parse_element("e3", 3), parse_element("e2", 3)
    assert (a * y) * b != -(a * (y * b))
    assert not is_special_triple(a, y, b)
    with pytest.raises(VerificationError):
        octonion_embedding(a, y, b)


def test_octonion_embedding_generators():
    a, y, b = parse_element("e1", 4), parse_element("e7", 4), parse_element("e2", 4)
    gens = octonion_embedding(a, y, b)
    assert gens == (Element.unit(4), a, b, a * b, (a * y) * b, y * b, a * y, y)
    # scaled triples embed too, with norm factors absorbed
    octonion_embedding(2 * a, 3 * y, 2 * b)


def test_octonion_embedding_from_divisor_witness():
    rep = zero_divisor_test(parse_element("e1", 3), parse_element("e2", 3))
    _, y = rep.witness
    octonion_embedding(rep.a, y, rep.b)


def test_octonion_embedding_preconditions():
    a = parse_element("e1", 3)
    with pytest.raises(ValueError):
        octonion_embedding(a, Element.zero(3), a)
    with pytest.raises(ValueError):
        octonion_embedding(a, parse_element("e7", 4), a)


# -- paper-level identities on witnesses ----------------------------------------------

def test_witness_relations_random_couples():
    rng = random.Random(23)
    for _ in range(6):
        a, b = random_special_couple(rng, 3)
        rep = zero_divisor_test(a, b)
        if not rep.is_zero_divisor:
            continue
        x, y = rep.witness
        n2 = a.norm_sq()
        assert associator(a, y, b) == (-2 * n2) * x
        assert associator(a, x, b) == (2 * n2) * y
        assert x.inner(y) == 0
        for g in (Element.unit(3), a, b, a * b):
            assert x.inner(g) == 0 and y.inner(g) == 0


def test_partner_pairs_annihilate_swapped_element():
    # from one annihilating pair, the swapped-conjugated pair annihilates too
    p = parse_element("e1+e10", 4)
    for w in annihilator(p):
        w1, w2 = w.halves()
        partner = Element.pair(-w2.conjugate(), w1)
        assert not partner * swap_halves(p)
