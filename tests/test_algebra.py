"""Arithmetic layer: doubling products, conjugation, grammar."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cdalg.algebra import (Element, LevelError, ParseError, associator,
                           commutator, conj_coords, format_element,
                           is_alternative, mul_coords, parse_element,
                           swap_halves, tilde)


def e(level, i):
    return Element.basis(level, i)


def rand_elements(seed, level, count, **kw):
    from cdalg.catalog import random_element
    rng = random.Random(seed)
    return [random_element(rng, level, **kw) for _ in range(count)]


coeffs = st.fractions(min_value=-40, max_value=40, max_denominator=9)


def element_strategy(level):
    dim = 1 << level
    return st.lists(coeffs, min_size=dim, max_size=dim).map(
        lambda cs: Element(level, tuple(cs)))


# -- product convention --------------------------------------------------------

def test_quaternion_table():
    # full signed table at level 2
    assert e(2, 1) * e(2, 2) == e(2, 3)
    assert e(2, 2) * e(2, 1) == -e(2, 3)
    assert e(2, 2) * e(2, 3) == e(2, 1)
    assert e(2, 3) * e(2, 1) == e(2, 2)
    for i in range(1, 4):
        assert e(2, i) * e(2, i) == -Element.unit(2)
        assert e(2, 0) * e(2, i) == e(2, i)
        assert e(2, i) * e(2, 0) == e(2, i)


def test_octonion_products():
    cases = [
        (1, 5, "-e4"), (1, 7, "e6"), (7, 2, "e5"), (6, 2, "e4"),
        (1, 4, "e5"), (5, 2, "-e7"), (4, 2, "-e6"), (1, 6, "-e7"),
        (1, 2, "e3"), (2, 4, "e6"), (3, 4, "e7"),
    ]
    for i, j, expected in cases:
        assert format_element(e(3, i) * e(3, j)) == expected, (i, j)


def test_sedenion_products():
    cases = [(1, 10, "-e11"), (10, 1, "e11"), (1, 9, "-e8"), (9, 1, "e8"),
             (1, 15, "-e14"), (15, 2, "-e13")]
    for i, j, expected in cases:
        assert format_element(e(4, i) * e(4, j)) == expected, (i, j)


def test_basis_products_close():
    # e_i e_j is always a signed basis vector
    for level in (1, 2, 3, 4):
        dim = 1 << level
        for i in range(dim):
            for j in range(dim):
                p = e(level, i) * e(level, j)
                support = [c for c in p.coords if c != 0]
                assert len(support) == 1 and support[0] in (1, -1)


def test_basis_antisymmetry_and_squares():
    for level in (2, 3, 4):
        dim = 1 << level
        for i in range(1, dim):
            assert e(level, i) * e(level, i) == -Element.unit(level)
            for j in range(i + 1, dim):
                assert e(level, i) * e(level, j) == -(e(level, j) * e(level, i))


def test_golden_zero_product():
    x = parse_element("e1+e10", 4)
    y = parse_element("e15-e4", 4)
    assert not x * y
    assert not y * x


def doubling_product(x, y):
    """The defining doubling formula, recursed down to level 0:
    (x1, x2)(y1, y2) = (x1 y1 - conj(y2) x2, y2 x1 + x2 conj(y1))."""
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    x1, x2 = x[:h], x[h:]
    y1, y2 = y[:h], y[h:]
    a = doubling_product(x1, y1)
    b = doubling_product(conj_coords(y2), x2)
    c = doubling_product(y2, x1)
    d = doubling_product(x2, conj_coords(y1))
    return tuple(p - q for p, q in zip(a, b)) + tuple(p + q for p, q in zip(c, d))


def test_sign_table_product_matches_doubling_formula():
    # every basis pair at levels 0..6; the oracle is bilinear, so one call
    # e_i * w with w_j = j + 1 yields e_i e_j = +-e_(i^j) for every j at once
    for level in range(7):
        dim = 1 << level
        unit = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
        w = tuple(range(1, dim + 1))
        for i in range(dim):
            row = doubling_product(unit[i], w)
            for j in range(dim):
                sign, rem = divmod(row[i ^ j], j + 1)
                assert rem == 0 and sign in (1, -1), (level, i, j)
                expected = tuple(sign * c for c in unit[i ^ j])
                assert mul_coords(unit[i], unit[j]) == expected, (level, i, j)

    rng = random.Random(2009)
    for level in range(1, 7):
        dim = 1 << level
        for support in (dim, 3):
            for _ in range(3):
                x, y = ([Fraction(0)] * dim for _ in range(2))
                for v in (x, y):
                    for k in rng.sample(range(dim), min(support, dim)):
                        v[k] = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                assert mul_coords(x, y) == doubling_product(x, y), level

        # dyadic floats multiply and add without rounding, so the two
        # summation orders must agree exactly; general floats to rounding
        dyadic = [tuple(rng.randint(-64, 64) / 8 for _ in range(dim))
                  for _ in range(2)]
        assert mul_coords(*dyadic) == doubling_product(*dyadic), level
        x = [rng.uniform(-1, 1) for _ in range(dim)]
        y = [rng.uniform(-1, 1) for _ in range(dim)]
        for p, q in zip(mul_coords(x, y), doubling_product(x, y)):
            assert abs(p - q) <= 1e-12 * dim, level


def test_subalgebra_embedding():
    # padding with zeros embeds level n in level n+1 multiplicatively
    for x in rand_elements(3, 2, 6):
        for y in rand_elements(4, 2, 6):
            big = Element.pair(x, Element.zero(2)) * Element.pair(y, Element.zero(2))
            assert big == Element.pair(x * y, Element.zero(2))


def test_level_mismatch_rejected():
    with pytest.raises(LevelError):
        e(2, 1) * e(3, 1)
    with pytest.raises(LevelError):
        e(2, 1) + e(3, 1)


# -- conjugation, trace, norm --------------------------------------------------

def test_conjugation_fixes_unit_negates_rest():
    x = parse_element("e0+e5", 3)
    assert format_element(x.conjugate()) == "e0-e5"
    for level in (0, 1, 3):
        dim = 1 << level
        for i in range(dim):
            expected = e(level, i) if i == 0 else -e(level, i)
            assert e(level, i).conjugate() == expected


@settings(derandomize=True, deadline=None, max_examples=60)
@given(element_strategy(3), element_strategy(3))
def test_conjugation_antiautomorphism(x, y):
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()
    assert x.conjugate().conjugate() == x


@settings(derandomize=True, deadline=None, max_examples=60)
@given(element_strategy(4), element_strategy(4))
def test_trace_and_inner(x, y):
    e0 = Element.unit(4)
    assert x + x.conjugate() == x.trace() * e0
    assert x * y.conjugate() + y * x.conjugate() == (2 * x.inner(y)) * e0
    assert x.inner(x) == x.norm_sq()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(element_strategy(4))
def test_characteristic_equation(x):
    assert x * x - x.trace() * x + x.norm_sq() * Element.unit(4) == Element.zero(4)


def test_norm_multiplicative_through_octonions():
    for level in (0, 1, 2, 3):
        xs = rand_elements(7 + level, level, 25)
        ys = rand_elements(8 + level, level, 25)
        for x, y in zip(xs, ys):
            assert (x * y).norm_sq() == x.norm_sq() * y.norm_sq()


def test_pure_orthogonality_is_anticommutation():
    for x, y in zip(rand_elements(1, 4, 40, pure=True),
                    rand_elements(2, 4, 40, pure=True)):
        assert (x.inner(y) == 0) == (x * y == -(y * x))


# -- associator and friends ------------------------------------------------------

def test_associator_goldens():
    a, b, c = e(4, 1), e(4, 15), e(4, 2)
    assert format_element(associator(a, b, c)) == "2*e12"
    assert (a * b) * c == parse_element("e12", 4)
    assert a * (b * c) == parse_element("-e12", 4)
    assert not associator(a, c, b)


def test_octonions_alternative_sedenions_not():
    for x in rand_elements(9, 3, 15):
        assert is_alternative(x)
    assert not is_alternative(parse_element("e1+e10", 4))
    assert is_alternative(parse_element("e1+e2", 4))


def test_flexibility():
    for level in (3, 4):
        for x, y in zip(rand_elements(5, level, 15), rand_elements(6, level, 15)):
            assert not associator(x, y, x)


def test_commutator_trace_free():
    for x, y in zip(rand_elements(12, 4, 10), rand_elements(13, 4, 10)):
        assert commutator(x, y).trace() == 0
        assert associator(x, y, x * y).trace() == 0


# -- tilde and half swaps ----------------------------------------------------------

def test_tilde_on_basis():
    assert tilde(e(4, 1)) == e(4, 9)
    assert tilde(e(4, 10)) == -e(4, 2)
    for i in range(8):
        assert tilde(e(4, i)) == e(4, i + 8)
        assert tilde(e(4, i + 8)) == -e(4, i)


def test_tilde_involution_up_to_sign():
    for x in rand_elements(21, 4, 10):
        assert tilde(tilde(x)) == -x
        assert swap_halves(swap_halves(x)) == x


def test_tilde_is_right_multiplication_for_doubly_pure():
    h = Element.half_unit(4)
    for x in rand_elements(22, 4, 20, doubly_pure=True):
        assert x * h == tilde(x)
        assert h * x == -tilde(x)


def test_tilde_of_pure_need_not_be_pure():
    x = e(4, 8)
    assert x.trace() == 0
    assert tilde(x).trace() != 0


def test_doubly_pure_predicate():
    assert parse_element("e1+e10", 4).is_doubly_pure()
    assert not parse_element("e1+e8", 4).is_doubly_pure()
    assert not parse_element("e0+e1", 4).is_doubly_pure()
    with pytest.raises(LevelError):
        Element.basis(0, 0).is_doubly_pure()


# -- grammar ---------------------------------------------------------------------

def test_parse_basics():
    x = parse_element("e1 + 2*e3 - 1/2*e7", 3)
    assert x.coords[1] == 1 and x.coords[3] == 2 and x.coords[7] == Fraction(-1, 2)
    assert parse_element("0", 3) == Element.zero(3)
    assert parse_element("-5", 2) == -5 * Element.unit(2)
    assert parse_element("3/6*e1", 1) == Fraction(1, 2) * e(1, 1)
    assert parse_element("e1+e1", 2) == 2 * e(2, 1)
    assert parse_element("  e2\t-  e2 ", 2) == Element.zero(2)


def test_format_canonical():
    assert format_element(Element.zero(3)) == "0"
    assert format_element(-e(3, 1)) == "-e1"
    assert format_element(Fraction(3, 2) * Element.unit(2)) == "3/2"
    assert format_element(Element.unit(2)) == "e0"
    assert format_element(-Element.unit(2)) == "-e0"
    assert format_element(Fraction(2, 4) * e(2, 1)) == "1/2*e1"
    assert format_element(e(3, 2) - 2 * Element.unit(3)) == "-2+e2"


@settings(derandomize=True, deadline=None, max_examples=80)
@given(element_strategy(3))
def test_round_trip(x):
    assert parse_element(format_element(x), 3) == x


def test_parse_errors_carry_position():
    cases = [
        ("", 3, 0), ("e1+", 3, 3), ("2e3", 3, 1), ("e", 3, 1),
        ("e99", 3, 0), ("1/0", 3, 0), ("e1 e2", 3, 3), ("*e1", 3, 0),
        ("+", 3, 1), ("e1++e2", 3, 3),
    ]
    for text, level, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_element(text, level)
        assert err.value.pos == pos, text


def test_parse_level_guard():
    with pytest.raises(LevelError):
        parse_element("e1", -1)
    parse_element("e0", 0)
    with pytest.raises(ParseError):
        parse_element("e1", 0)


def test_scalar_operations():
    x = parse_element("e1+e2", 3)
    assert x / 2 == Fraction(1, 2) * x
    assert 3 * x == x + x + x
    assert bool(Element.zero(3)) is False
    assert hash(e(3, 1)) == hash(parse_element("e1", 3))
