"""Verification suites: seeded checks of the identities the theory
guarantees, under the names `cdalg verify --suite` takes.

run_suite(name, level, seed, trials) returns one row per check: (check
name, identities checked) or, at the first counterexample, (check name,
VerificationError) naming the elements in canonical text.  Each check
draws from a fresh random.Random(seed).  Any other exception propagates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

from .algebra import (Element, associator, commutator, format_element,
                      is_alternative, parse_element, swap_halves, tilde)
from .catalog import (alternative_pure_element, random_element,
                      random_special_couple)
from .linalg import left_mult_matrix, nullspace, project_out, right_mult_matrix
from .structure import (VerificationError, annihilator, couple_embedding,
                        couple_kernel_split, is_special_triple,
                        quaternion_embedding, zero_divisor_test)

# a check takes (rng, level, trials) and returns how many identities it
# verified, raising VerificationError at the first counterexample
Check = Tuple[str, Callable[[random.Random, int, int], int]]
Row = Tuple[str, Union[int, VerificationError]]


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise VerificationError(detail)


# -- core identities -------------------------------------------------------------

def _check_conjugation_reversal(rng, level, trials) -> int:
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        _require((x * y).conjugate() == y.conjugate() * x.conjugate(),
                 f"x={format_element(x)} y={format_element(y)}")
        _require(x.conjugate().conjugate() == x, f"x={format_element(x)}")
    return 2 * trials


def _check_characteristic(rng, level, trials) -> int:
    e0 = Element.unit(level)
    for _ in range(trials):
        x = random_element(rng, level)
        _require(x * x - x.trace() * x + x.norm_sq() * e0 == Element.zero(level),
                 f"x={format_element(x)}")
    return trials


def _check_flexibility(rng, level, trials) -> int:
    zero = Element.zero(level)
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        _require(associator(x, y, x) == zero,
                 f"x={format_element(x)} y={format_element(y)}")
    return trials


def _check_trace_and_inner_forms(rng, level, trials) -> int:
    e0 = Element.unit(level)
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        _require(x + x.conjugate() == x.trace() * e0, f"x={format_element(x)}")
        _require(x * y.conjugate() + y * x.conjugate() == (2 * x.inner(y)) * e0,
                 f"x={format_element(x)} y={format_element(y)}")
    return 2 * trials


def _check_round_trip(rng, level, trials) -> int:
    for _ in range(trials):
        x = random_element(rng, level)
        _require(parse_element(format_element(x), level) == x,
                 f"x={format_element(x)}")
    return trials


def _check_square_zero(rng, level, trials) -> int:
    zero = Element.zero(level)
    for _ in range(trials):
        x = random_element(rng, level)
        _require(bool(x) == (x * x != zero), f"x={format_element(x)}")
    return trials


CORE_CHECKS: List[Check] = [
    ("conjugation reverses products", _check_conjugation_reversal),
    ("characteristic equation", _check_characteristic),
    ("flexible law", _check_flexibility),
    ("trace and inner product forms", _check_trace_and_inner_forms),
    ("element text round trip", _check_round_trip),
    ("only zero squares to zero", _check_square_zero),
]


# -- chapter 1: associators, zero products, doubly pure elements ------------------

def _known_zero_divisor(level: int) -> Element:
    # (x, tilde(x)) pairs always annihilate one level up, so this element
    # has a nonzero kernel at every level >= 4
    base = Element.basis(level - 1, 1)
    return Element.pair(base, tilde(base))


def _check_associator_conjugations(rng, level, trials) -> int:
    for _ in range(trials):
        x, y, z = (random_element(rng, level) for _ in range(3))
        t = associator(x, y, z)
        for flipped in (associator(x.conjugate(), y, z),
                        associator(x, y.conjugate(), z),
                        associator(x, y, z.conjugate())):
            _require(flipped == -t,
                     f"x={format_element(x)} y={format_element(y)} z={format_element(z)}")
        _require(t.trace() == 0, f"associator trace: {format_element(t)}")
        _require(commutator(x, y).trace() == 0,
                 f"commutator trace: x={format_element(x)} y={format_element(y)}")
    return 5 * trials


def _check_four_term_expansion(rng, level, trials) -> int:
    for _ in range(trials):
        x, y, z, w = (random_element(rng, level, support=4) for _ in range(4))
        lhs = x * associator(y, z, w) + associator(x, y, z) * w
        rhs = (associator(x * y, z, w) - associator(x, y * z, w)
               + associator(x, y, z * w))
        _require(lhs == rhs,
                 f"x={format_element(x)} y={format_element(y)} "
                 f"z={format_element(z)} w={format_element(w)}")
    return trials


def _check_inner_shifts(rng, level, trials) -> int:
    for _ in range(trials):
        x, y, z = (random_element(rng, level) for _ in range(3))
        lhs = x.inner(y * z)
        _require(lhs == (x * z.conjugate()).inner(y)
                 and lhs == (y.conjugate() * x).inner(z),
                 f"x={format_element(x)} y={format_element(y)} z={format_element(z)}")
    return trials


def _check_norm_shifts(rng, level, trials) -> int:
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        n = (x * y).norm_sq()
        _require(n == (x.conjugate() * y).norm_sq()
                 and n == (x * y.conjugate()).norm_sq()
                 and n == (y * x).norm_sq(),
                 f"x={format_element(x)} y={format_element(y)}")
    return trials


def _check_zero_product_symmetry(rng, level, trials) -> int:
    zero = Element.zero(level)
    count = 0
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        verdicts = {x * y == zero, y * x == zero,
                    x.conjugate() * y == zero, x * y.conjugate() == zero}
        _require(len(verdicts) == 1,
                 f"x={format_element(x)} y={format_element(y)}")
        count += 1
    if level >= 4:
        p = _known_zero_divisor(level)
        for w in annihilator(p):
            _require(p * w == zero and w * p == zero
                     and p.conjugate() * w == zero and p * w.conjugate() == zero,
                     f"witness quartet: p={format_element(p)} w={format_element(w)}")
            count += 1
    return count


def _check_skew_operators(rng, level, trials) -> int:
    for _ in range(trials):
        x = random_element(rng, level, pure=True)
        for M in (left_mult_matrix(x), right_mult_matrix(x)):
            dim = len(M)
            for i in range(dim):
                for j in range(i, dim):
                    _require(M[i][j] == -M[j][i],
                             f"x={format_element(x)} entry ({i},{j})")
    return trials


def _check_partner_identity(rng, level, trials) -> int:
    if level < 4:
        return 0
    zero = Element.zero(level)
    p = _known_zero_divisor(level)
    count = 0
    for w in annihilator(p):
        w1, w2 = w.halves()
        partner = Element.pair(-w2.conjugate(), w1)
        _require(partner * swap_halves(p) == zero,
                 f"p={format_element(p)} w={format_element(w)}")
        count += 1
    return count


def _check_doubly_pure_relations(rng, level, trials) -> int:
    h = Element.half_unit(level)
    count = 0
    for _ in range(trials):
        a = random_element(rng, level, doubly_pure=True)
        b = random_element(rng, level, doubly_pure=True)
        n2 = a.norm_sq()
        _require(a * h == tilde(a) and h * a == -tilde(a),
                 f"a={format_element(a)}")
        _require(a * tilde(a) == (-n2) * h and tilde(a) * a == n2 * h,
                 f"a={format_element(a)}")
        _require(tilde(a) * b == -tilde(a * b),
                 f"a={format_element(a)} b={format_element(b)}")
        b_perp = n2 * b - a.inner(b) * a
        if b_perp:
            _require(tilde(a) * b_perp + tilde(b_perp) * a == Element.zero(level),
                     f"a={format_element(a)} b={format_element(b_perp)}")
        b_tilde_perp = n2 * b - tilde(a).inner(b) * tilde(a)
        if b_tilde_perp:
            _require(a * b_tilde_perp == tilde(b_tilde_perp) * tilde(a),
                     f"a={format_element(a)} b={format_element(b_tilde_perp)}")
        count += 5
    return count


CHAPTER1_CHECKS: List[Check] = [
    ("associator sign under conjugation", _check_associator_conjugations),
    ("four-term associator expansion", _check_four_term_expansion),
    ("inner product shifts", _check_inner_shifts),
    ("conjugation preserves product norms", _check_norm_shifts),
    ("zero products are two-sided", _check_zero_product_symmetry),
    ("pure multiplication operators are skew", _check_skew_operators),
    ("annihilation partner identity", _check_partner_identity),
    ("doubly pure tilde relations", _check_doubly_pure_relations),
]


# -- chapter 2: special couples and the zero-divisor criterion --------------------

def _check_couple_tables(rng, level, trials) -> int:
    rounds = max(1, trials // 5)
    for _ in range(rounds):
        a, b = random_special_couple(rng, level)
        couple_embedding(a, b)
        if a.is_doubly_pure():
            quaternion_embedding(a)
    return rounds


def _check_couple_kernel_split(rng, level, trials) -> int:
    rounds = max(1, trials // 10)
    for _ in range(rounds):
        couple_kernel_split(*random_special_couple(rng, level))
    return rounds


def _check_projected_alternator(rng, level, trials) -> int:
    # (s, s, y) for s = a + b, on y outside the couple's quaternion copy,
    # in two forms: 2(ay)b - (a, y, b) and (a, y, b) + 2a(yb); checked on
    # the projection y_j of every basis vector e_j
    count = 0
    for _ in range(max(1, trials // 10)):
        a, b = random_special_couple(rng, level)
        gens = [g.coords for g in couple_embedding(a, b)]
        s = a + b
        for j in range(1 << level):
            y = Element(level, project_out(Element.basis(level, j).coords, gens))
            t = associator(s, s, y)
            left, right = (a * y) * b, a * (y * b)
            middle = left - right
            _require(t == 2 * left - middle and t == middle + 2 * right,
                     f"a={format_element(a)} b={format_element(b)}")
        count += 2
    return count


def _check_restricted_annihilation(rng, level, trials) -> int:
    zero = Element.zero(level)
    count = 0
    for _ in range(trials):
        a, b = random_special_couple(rng, level)
        gens = [g.coords for g in couple_embedding(a, b)]
        y = Element(level, project_out(random_element(rng, level).coords, gens))
        if not y:
            continue
        n2 = a.norm_sq()
        s = a + b
        t_of_y = associator(s, s, y)
        x = (Fraction(-1, 2) / n2) * associator(a, y, b)
        annihilates = Element.pair(a, b) * Element.pair(x, y) == Element.zero(level + 1)
        _require((t_of_y == zero) == annihilates,
                 f"a={format_element(a)} b={format_element(b)} y={format_element(y)}")
        count += 1
    return count


def _check_criterion_against_kernel(rng, level, trials) -> int:
    # zero_divisor_test raises if its criterion and kernel verdicts differ;
    # pairs cycle through a special couple, then (a, a), (a, -a), (a, 2a)
    # and (a, b) for alternative pure a and b
    for i in range(trials):
        mode = i % 5
        if mode == 0:
            a, b = random_special_couple(rng, level)
        else:
            a = alternative_pure_element(rng, level)
            b = ((a, -a, 2 * a)[mode - 1] if mode < 4
                 else alternative_pure_element(rng, level))
        zero_divisor_test(a, b)
    return trials


def _check_kernel_bound(rng, level, trials) -> int:
    dim = 1 << level
    count = 0
    for i in range(1, dim - 1):
        for j in range(i + 1, dim):
            if count >= trials:
                return count
            a = Element.basis(level, i)
            b = Element.basis(level, j)
            rep = zero_divisor_test(a, b)
            slack = len(nullspace(left_mult_matrix(a + b)))
            _require(rep.ker_dim <= dim - 4 - 2 * slack,
                     f"a={format_element(a)} b={format_element(b)} "
                     f"ker={rep.ker_dim} slack={slack}")
            count += 1
    return count


def _check_triple_symmetry(rng, level, trials) -> int:
    dim = 1 << level
    for _ in range(trials):
        i, j, k = rng.sample(range(1, dim), 3)
        sa, sy, sb = (rng.choice((1, -1)) for _ in range(3))
        a = sa * Element.basis(level, i)
        y = sy * Element.basis(level, k)
        b = sb * Element.basis(level, j)
        _require(is_special_triple(a, y, b) == is_special_triple(b, y, a),
                 f"a={format_element(a)} y={format_element(y)} b={format_element(b)}")
    return trials


def _check_alternative_sum_special(rng, level, trials) -> int:
    count = 0
    for _ in range(max(1, trials // 10)):
        a = alternative_pure_element(rng, level)
        if not a.is_doubly_pure():
            a = random_element(rng, level, support=4, doubly_pure=True)
            if not is_alternative(a):
                continue
        b = tilde(a)
        if not is_alternative(a + b):
            continue
        rep = zero_divisor_test(a, b)
        _require(rep.is_zero_divisor and rep.special_zd is True,
                 f"a={format_element(a)} b={format_element(b)}")
        count += 1
    return count


CHAPTER2_CHECKS: List[Check] = [
    ("couple multiplication tables", _check_couple_tables),
    ("couple kernel splitting", _check_couple_kernel_split),
    ("projected alternator identity", _check_projected_alternator),
    ("restricted annihilation equivalence", _check_restricted_annihilation),
    ("criterion agrees with the kernel", _check_criterion_against_kernel),
    ("kernel dimension bound", _check_kernel_bound),
    ("special triple symmetry", _check_triple_symmetry),
    ("alternative sums give special zero divisors", _check_alternative_sum_special),
]


# -- the Hurwitz boundary: norm multiplicativity ends at the octonions ------------

def _check_norm_multiplicative(rng, level, trials) -> int:
    for _ in range(trials):
        x, y = random_element(rng, level), random_element(rng, level)
        _require((x * y).norm_sq() == x.norm_sq() * y.norm_sq(),
                 f"x={format_element(x)} y={format_element(y)}")
    return trials


def _check_norm_violation_exists(rng, level, trials) -> int:
    if level == 4:
        x = parse_element("e1+e10", 4)
        y = parse_element("e15-e4", 4)
    else:
        x = _known_zero_divisor(level)
        y = annihilator(x)[0]
    _require((x * y).norm_sq() != x.norm_sq() * y.norm_sq(),
             f"x={format_element(x)} y={format_element(y)} still multiplicative")
    return 1


def _hurwitz_checks(level: int) -> List[Check]:
    if level <= 3:
        return [("norm is multiplicative", _check_norm_multiplicative)]
    return [("norm multiplicativity fails", _check_norm_violation_exists)]


# suite name -> (lowest level it runs at, the checks for a level)
SUITES: Dict[str, Tuple[int, Callable[[int], List[Check]]]] = {
    "core_identities": (0, lambda level: CORE_CHECKS),
    "chapter1": (2, lambda level: CHAPTER1_CHECKS),
    "chapter2": (3, lambda level: CHAPTER2_CHECKS),
    "hurwitz_boundary": (0, _hurwitz_checks),
}


def run_suite(name: str, level: int, seed: int, trials: int) -> List[Row]:
    """Run every check of the named suite at one level, in order.

    Raises ValueError when the level is below the suite's lowest level.
    """
    min_level, checks_for_level = SUITES[name]
    if level < min_level:
        raise ValueError(f"{name} suite needs level >= {min_level}")
    rows: List[Row] = []
    for check_name, check in checks_for_level(level):
        try:
            rows.append((check_name, check(random.Random(seed), level, trials)))
        except VerificationError as exc:
            rows.append((check_name, exc))
    return rows
