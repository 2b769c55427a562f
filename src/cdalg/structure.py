"""Zero-divisor structure of the level-n algebras.

The organizing facts, all verified at runtime rather than assumed:

* an element annihilates something iff its left multiplication operator
  has a kernel, and left and right kernels coincide;
* for doubly pure a, the algebra splits orthogonally into a quaternion
  copy spanned by {e0, tilde(a), a, e_half}, the part where a multiplies
  with exact norm preservation, the annihilator of a, and "middle" bands
  where L_a^2 acts as an irrational multiple of the identity;
* a pair (a, b) of equal-norm, trace-zero alternative elements is a zero
  divisor one level up iff L_{a+b}^2 has the eigenvalue -2|a|^2 outside
  the quaternion copy spanned by {e0, a, b, ab};
* annihilating pairs of special couples generate octonion copies.

Everything exact runs over Fractions; the float entry point exists only
for inputs with irrational normalization and says so in its report type.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite
from typing import Optional, Sequence, Tuple

from .algebra import (Element, associator, common_denominator, format_element,
                      is_alternative, mul_coords, tilde)
from .linalg import (Matrix, SubspaceBasis, eigen_kernel, float_rank,
                     left_mult_matrix, matrix_of, nullspace, right_mult_matrix,
                     rref_rows, symmetric_eigen_float)


class VerificationError(AssertionError):
    """A computed result contradicts an identity the theory guarantees.

    Distinct from ValueError preconditions: seeing this means either a bug
    or a genuine counterexample, and both deserve a loud stop.
    """


class PreconditionError(ValueError):
    """A pair lies outside the zero-divisor criterion's preconditions: an
    entry is zero, has nonzero trace, or is not alternative."""


# -- small helpers -------------------------------------------------------------

def _coord_rows(elements: Sequence[Element]) -> Matrix:
    return tuple(e.coords for e in elements)


def _to_elements(level: int, vectors: SubspaceBasis) -> Tuple[Element, ...]:
    return tuple(Element(level, v) for v in vectors)


def _same_span(xs: SubspaceBasis, ys: SubspaceBasis) -> bool:
    return rref_rows(xs) == rref_rows(ys)


def _primitive(a: Element) -> Element:
    """Rescale to integer coordinates with content 1; every kernel and every
    normalized eigenvalue below is invariant under this."""
    nums, d = common_denominator(a.coords)
    return a * Fraction(d, gcd(*nums))


# -- annihilators ---------------------------------------------------------------

def annihilator(a: Element) -> Tuple[Element, ...]:
    """Canonical basis of {x : a x == 0}.

    Also computes the right kernel {x : x a == 0} and insists the two
    spans agree, which the zero-product symmetry guarantees.  Empty below
    level 4 and for anything alternative.
    """
    if not a:
        raise ValueError("annihilator of the zero element is undefined")
    left = nullspace(left_mult_matrix(a))
    right = nullspace(right_mult_matrix(a))
    if not _same_span(left, right):
        raise VerificationError("left and right annihilators disagree")
    return _to_elements(a.level, left)


# -- quaternion copies ----------------------------------------------------------

def quaternion_embedding(a: Element) -> Tuple[Element, ...]:
    """The four generators (e0, tilde(a), a, e_half) of the quaternion copy
    attached to a doubly pure a, with all 16 products verified against the
    quaternion table scaled by |a|^2."""
    if not a:
        raise ValueError("zero element spans no quaternion copy")
    if a.level < 1 or not a.is_doubly_pure():
        raise ValueError("element is not doubly pure")
    n2 = a.norm_sq()
    e0 = Element.unit(a.level)
    h = Element.half_unit(a.level)
    at = tilde(a)
    gens = (e0, at, a, h)
    expected = (
        (e0, at, a, h),
        (at, -n2 * e0, n2 * h, -a),
        (a, -n2 * h, -n2 * e0, at),
        (h, a, -at, -e0),
    )
    for i in range(4):
        for j in range(4):
            got = gens[i] * gens[j]
            if got != expected[i][j]:
                raise VerificationError(
                    f"quaternion table broken at ({i},{j}): "
                    f"got {got}, expected {expected[i][j]}")
    return gens


def couple_failure(a: Element, b: Element) -> Optional[str]:
    """None when {a, b} is a special couple up to norm, else the first
    violated clause.

    Equal norms are required on top of the orthogonality/anticommutation
    definition: the kernel-splitting identities below cancel only when
    |a|^2 == |b|^2, and zero-divisor candidates never need the unequal
    case (it is excluded by a necessary condition anyway).
    """
    if not a:
        return "first entry is zero"
    if not b:
        return "second entry is zero"
    if a.trace() != 0:
        return "first entry has nonzero trace"
    if b.trace() != 0:
        return "second entry has nonzero trace"
    if not is_alternative(a):
        return "first entry is not alternative"
    if not is_alternative(b):
        return "second entry is not alternative"
    if a.norm_sq() != b.norm_sq():
        return "entries have different norms"
    if a.inner(b) != 0:
        return "entries are not orthogonal"
    if a * b != -(b * a):
        return "entries do not anticommute"
    return None


# couple_failure's first six clauses: the criterion's preconditions
_PRECONDITION_CLAUSES = frozenset((
    "first entry is zero", "second entry is zero",
    "first entry has nonzero trace", "second entry has nonzero trace",
    "first entry is not alternative", "second entry is not alternative",
))


def is_special_couple(a: Element, b: Element) -> bool:
    return couple_failure(a, b) is None


def couple_embedding(a: Element, b: Element) -> Tuple[Element, ...]:
    """Generators (e0, a, b, ab) of the quaternion copy of a special couple,
    with the full multiplication table verified (scaled by the norms)."""
    fail = couple_failure(a, b)
    if fail is not None:
        raise ValueError(f"not a special couple: {fail}")
    na, nb = a.norm_sq(), b.norm_sq()
    e0 = Element.unit(a.level)
    ab = a * b
    gens = (e0, a, b, ab)
    expected = (
        (e0, a, b, ab),
        (a, -na * e0, ab, -na * b),
        (b, -ab, -nb * e0, nb * a),
        (ab, na * b, -nb * a, -na * nb * e0),
    )
    for i in range(4):
        for j in range(4):
            got = gens[i] * gens[j]
            if got != expected[i][j]:
                raise VerificationError(
                    f"couple table broken at ({i},{j}): "
                    f"got {got}, expected {expected[i][j]}")
    return gens


def couple_kernel_split(a: Element, b: Element) -> Tuple[Tuple[Element, ...], Tuple[Element, ...]]:
    """Split of Ker(y -> (a,y,b)) on the orthogonal complement of the couple's
    quaternion copy into the kernels of L_{a+b} and L_{a-b}.

    Asserts the two parts are equal-dimensional, meet trivially, span the
    whole restricted kernel, and that its dimension is divisible by 8.
    """
    gens = couple_embedding(a, b)
    rows = _coord_rows(gens)
    plus = nullspace(left_mult_matrix(a + b) + rows)
    minus = nullspace(left_mult_matrix(a - b) + rows)
    s_matrix = matrix_of(a.level, lambda x: associator(a, x, b))
    kernel = nullspace(s_matrix + rows)
    if len(plus) != len(minus):
        raise VerificationError(
            f"kernel halves differ: {len(plus)} vs {len(minus)}")
    if len(plus) + len(minus) != len(kernel):
        raise VerificationError(
            f"halves span {len(plus) + len(minus)} of {len(kernel)} dims")
    if plus + minus and not _same_span(plus + minus, kernel):
        raise VerificationError("kernel halves do not span the kernel")
    if len(kernel) % 8:
        raise VerificationError(f"kernel dimension {len(kernel)} not 0 mod 8")
    return _to_elements(a.level, plus), _to_elements(a.level, minus)


# -- the orthogonal decomposition attached to a doubly pure element -------------

@dataclass(frozen=True)
class MiddleBand:
    """One eigenspace of -L_a^2 / |a|^2 strictly between 0 and 1 or above 1.

    lambda_sq is the normalized eigenvalue as a float; exact is its
    Fraction value when the eigenvalue is rational, else None.
    """
    lambda_sq: float
    dim: int
    exact: Optional[Fraction]


@dataclass(frozen=True)
class Decomposition:
    """Orthogonal splitting of the algebra under a doubly pure element.

    quaternion_part (always dimension 4) spans {e0, tilde(a), a, e_half};
    alternator_kernel is where a multiplies with exact norm preservation
    outside that copy; annihilator is Ker L_a; middle holds the remaining
    eigenvalue bands.  Dimensions sum to 2^level.
    """
    a: Element
    quaternion_part: Tuple[Element, ...]
    alternator_kernel: Tuple[Element, ...]
    annihilator: Tuple[Element, ...]
    middle: Tuple[MiddleBand, ...]

    def dims(self) -> Tuple[int, int, int, Tuple[int, ...]]:
        return (len(self.quaternion_part), len(self.alternator_kernel),
                len(self.annihilator), tuple(b.dim for b in self.middle))

    def total_dim(self) -> int:
        return (len(self.quaternion_part) + len(self.alternator_kernel)
                + len(self.annihilator) + sum(b.dim for b in self.middle))


def decompose(a: Element) -> Decomposition:
    """Compute the full orthogonal decomposition for doubly pure nonzero a.

    Exact parts (quaternion copy, alternator kernel, annihilator, any
    integer eigenvalue band) come from fraction-free kernels; the float
    spectrum only discovers irrational bands, and every float multiplicity
    at an integer eigenvalue is cross-checked against the exact kernel.
    """
    if not a:
        raise ValueError("cannot decompose the zero element")
    if a.level < 1 or not a.is_doubly_pure():
        raise ValueError("element is not doubly pure")
    ap = _primitive(a)
    dim = 1 << a.level
    n2 = ap.norm_sq()          # an integer by construction
    gens = quaternion_embedding(a)
    gen_rows = _coord_rows((gens[0], tilde(ap), ap, gens[3]))
    L2 = matrix_of(a.level, lambda v: ap * (ap * v))
    ker_l = nullspace(left_mult_matrix(ap))
    # eigenvectors at -|a|^2 outside the quaternion copy
    ker_t = eigen_kernel(L2, -n2, gen_rows)
    exact_at = {
        0: len(ker_l),
        -int(n2): 4 + len(ker_t),
    }
    spectrum = symmetric_eigen_float(L2)
    bands = []
    for mu, mult in spectrum.clusters:
        mu_int = round(mu)
        if abs(mu - mu_int) <= 1e-6:
            if mu_int in exact_at:
                exact_dim = exact_at[mu_int]
            else:
                exact_dim = len(eigen_kernel(L2, Fraction(mu_int)))
            if exact_dim != mult:
                raise VerificationError(
                    f"float multiplicity {mult} at eigenvalue {mu_int} "
                    f"disagrees with exact dimension {exact_dim}")
            if mu_int in (0, -int(n2)):
                continue
            bands.append(MiddleBand(-mu / float(n2), mult, Fraction(-mu_int) / n2))
        else:
            bands.append(MiddleBand(-mu / float(n2), mult, None))
    if 0 not in (round(mu) for mu, _ in spectrum.clusters) and ker_l:
        raise VerificationError("exact annihilator invisible to float spectrum")
    bands.sort(key=lambda band: band.lambda_sq)
    dec = Decomposition(a, gens, tuple(Element(a.level, v) for v in ker_t),
                        _to_elements(a.level, ker_l), tuple(bands))
    if dec.total_dim() != dim:
        raise VerificationError(
            f"decomposition dims {dec.dims()} sum to {dec.total_dim()}, not {dim}")
    for band in dec.middle:
        if band.dim % 4:
            raise VerificationError(
                f"middle band dimension {band.dim} not 0 mod 4")
    if len(dec.annihilator) % 4 or len(dec.annihilator) > dim - 4:
        raise VerificationError(
            f"annihilator dimension {len(dec.annihilator)} out of bounds")
    return dec


# -- the zero-divisor criterion --------------------------------------------------

@dataclass(frozen=True)
class ZdReport:
    """Outcome of the paired zero-divisor test for (a, b) one level up.

    criterion_hit is the eigenvalue test on L_{a+b}^2 restricted outside
    the couple's quaternion copy; is_zero_divisor is the direct exact
    kernel verdict at pair_level.  Construction fails loudly if the two
    ever disagree, so stored reports always have them equal.
    criterion_hit is None for pairs outside the criterion's preconditions
    (see kernel_report), where only the kernel speaks.  witness is an
    annihilating pair (x, y), present exactly for zero divisors;
    special_zd is None when there is nothing to classify.
    """
    a: Element
    b: Element
    pair_level: int
    is_zero_divisor: bool
    criterion_hit: Optional[bool]
    ker_dim: int
    witness: Optional[Tuple[Element, Element]]
    special_couple: bool
    special_zd: Optional[bool]


def report_to_dict(rep: ZdReport) -> dict:
    """The report's fields as canonical text and JSON scalars, keyed as in
    the catalog schema; level is the level of a and b themselves."""
    x, y = rep.witness or (None, None)
    return {
        "level": rep.a.level,
        "a": format_element(rep.a),
        "b": format_element(rep.b),
        "is_zero_divisor": rep.is_zero_divisor,
        "criterion_hit": rep.criterion_hit,
        "ker_dim": rep.ker_dim,
        "witness_x": None if x is None else format_element(x),
        "witness_y": None if y is None else format_element(y),
        "special_couple": rep.special_couple,
        "special_zd": rep.special_zd,
    }


def _special_triple_witness(a: Element, y: Element, b: Element) -> bool:
    # the parts of the special-triple definition that depend on y; the
    # couple clauses are checked once by the caller
    return (bool(y)
            and a.inner(y) == 0 and b.inner(y) == 0
            and (a * y) * b == -(a * (y * b)))


def special_zd_verdict(a: Element, b: Element, kernel: SubspaceBasis,
                       pair_level: int) -> bool:
    """Whether every annihilating pair drawn from the given kernel basis
    makes {a, witness-half, b} a special triple.  The triple conditions are
    linear in the witness, so the basis settles the quantifier.

    Precondition: (a, b) is a special couple (couple_failure(a, b) is
    None); for any other pair no triple is special and the answer is False
    without calling this.
    """
    return all(
        _special_triple_witness(a, Element(pair_level, vec).halves()[1], b)
        for vec in kernel)


def zero_divisor_test(a: Element, b: Element) -> ZdReport:
    """Dual-path zero-divisor verdict for the pair (a, b) at the next level.

    Preconditions: both nonzero, trace zero and alternative; a pair that
    fails one raises PreconditionError (kernel_report covers it), and
    entries at different levels raise a plain ValueError.  The couple
    clauses are evaluated once, and their verdict is reported.  Unequal
    norms give an immediate negative (verified against the exact kernel).
    Otherwise the eigenvalue criterion and the direct kernel are both
    computed exactly and must agree, including in dimension; the witness
    is rebuilt from the first criterion eigenvector and re-multiplied to
    exactly zero.
    """
    if a.level != b.level:
        raise ValueError("pair entries must share a level")
    fail = couple_failure(a, b)
    if fail in _PRECONDITION_CLAUSES:
        raise PreconditionError(fail)
    couple = fail is None
    pair = Element.pair(a, b)
    if a.norm_sq() != b.norm_sq():
        kernel = nullspace(left_mult_matrix(pair))
        if kernel:
            raise VerificationError(
                "unequal-norm pair has a kernel, contradicting the norm condition")
        return ZdReport(a, b, pair.level, False, False, 0, None, couple, None)
    n2 = a.norm_sq()
    s = a + b
    L2 = matrix_of(a.level, lambda v: s * (s * v))
    # criterion space: eigenvectors of L_{a+b}^2 at -2|a|^2, restricted to
    # the orthogonal complement of {e0, a, b, ab} (those four are always
    # eigenvectors there for orthogonal couples, so the unrestricted test
    # would fire on every couple)
    quad_rows = _coord_rows((Element.unit(a.level), a, b, a * b))
    criterion = eigen_kernel(L2, -2 * n2, quad_rows)
    kernel = nullspace(left_mult_matrix(pair))
    criterion_hit = bool(criterion)
    is_zd = bool(kernel)
    if criterion_hit != is_zd:
        raise VerificationError(
            f"criterion verdict {criterion_hit} contradicts kernel verdict {is_zd} "
            f"for a={a}, b={b}")
    if len(criterion) != len(kernel):
        raise VerificationError(
            f"criterion space dim {len(criterion)} != kernel dim {len(kernel)}")
    witness = None
    special_zd: Optional[bool] = None
    if is_zd:
        y = Element(a.level, criterion[0])
        x = -(a * (b * y)) / n2
        w = Element.pair(x, y)
        if not w or pair * w != Element.zero(pair.level):
            raise VerificationError(f"witness ({x}, {y}) fails to annihilate")
        if associator(a, y, b) != (-2 * n2) * x:
            raise VerificationError("witness violates the first associator relation")
        if associator(a, x, b) != (2 * n2) * y:
            raise VerificationError("witness violates the second associator relation")
        if s * (s * y) != (-2 * n2) * y:
            raise VerificationError("witness is not an eigenvector of the squared sum")
        if associator(s, s, y) != (-2 * a.inner(b)) * y:
            raise VerificationError("witness violates the alternator relation")
        witness = (x, y)
        special_zd = couple and special_zd_verdict(a, b, kernel, pair.level)
    return ZdReport(a, b, pair.level, is_zd, criterion_hit, len(kernel),
                    witness, couple, special_zd)


def kernel_report(a: Element, b: Element) -> ZdReport:
    """Direct-kernel verdict for a pair outside the criterion's
    preconditions, where zero_divisor_test raises PreconditionError.

    Such a pair fails one of couple_failure's first clauses, so it is no
    special couple and none of its zero divisors is special.  The witness
    is the two halves of the first kernel vector, multiplied back to
    exactly zero; criterion_hit is None.
    """
    pair = Element.pair(a, b)
    kernel = nullspace(left_mult_matrix(pair))
    witness = None
    if kernel:
        w = Element(pair.level, kernel[0])
        if pair * w:
            raise VerificationError("kernel vector fails to annihilate")
        witness = w.halves()
    return ZdReport(a, b, pair.level, bool(kernel), None, len(kernel),
                    witness, False, False if kernel else None)


# -- float path -------------------------------------------------------------------

@dataclass(frozen=True)
class FloatZdReport:
    """Float-tolerance analogue of ZdReport for irrational inputs.

    No exact assertions are possible here, so this carries the measured
    quantities instead: the kernel nullity of the pair at pair_level and
    the largest alternator residual of the pair element.
    """
    pair_level: int
    nullity: int
    is_zero_divisor: bool
    alternative: bool
    max_alternator_residual: float
    tolerance: float


def float_zero_divisor_test(a: Sequence[float], b: Sequence[float],
                            tolerance: float = 1e-9) -> FloatZdReport:
    """Zero-divisor test for float coordinate vectors (same power-of-two
    length).  Rank comes from pivoted elimination; a pivot inside
    [1e-12, tolerance) raises instead of guessing.  A coordinate that is
    not finite, or a tolerance that is not finite and positive, raises
    ValueError: no verdict could be trusted."""
    import numpy as np
    if len(a) != len(b) or len(a) & (len(a) - 1) or not a:
        raise ValueError("inputs must share a power-of-two length")
    if not (isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, not {tolerance}")
    level = len(a).bit_length() - 1
    pair = tuple(float(c) for c in a) + tuple(float(c) for c in b)
    if not all(map(isfinite, pair)):
        raise ValueError("coordinates must be finite")
    dim = len(pair)
    pp = mul_coords(pair, pair)
    cols = []
    residual = 0.0
    for j in range(dim):
        e = tuple(1.0 if i == j else 0.0 for i in range(dim))
        col = mul_coords(pair, e)   # column j of L_pair
        cols.append(col)
        alt = (p - q for p, q in zip(mul_coords(pp, e), mul_coords(pair, col)))
        residual = max(residual, max(abs(c) for c in alt))
    nullity = dim - float_rank(np.array(cols, dtype=float).T, tolerance)
    return FloatZdReport(level + 1, nullity, nullity > 0,
                         residual <= tolerance, residual, tolerance)


# -- octonion copies ----------------------------------------------------------------

def is_special_triple(a: Element, y: Element, b: Element) -> bool:
    """True iff {a, y, b} is pairwise orthogonal and nonzero, (a, b) is a
    special couple, and (ay)b == -a(yb)."""
    if not (a and y and b):
        return False
    if a.inner(y) != 0 or b.inner(y) != 0 or a.inner(b) != 0:
        return False
    if couple_failure(a, b) is not None:
        return False
    return (a * y) * b == -(a * (y * b))


# which of the letters (a, y, b) each generator is built from; index k of
# the octonion unit e_k matches position k in the generator tuple
_GENERATOR_LETTERS = ((), (0,), (2,), (0, 2), (0, 1, 2), (1, 2), (0, 1), (1,))


def octonion_embedding(a: Element, y: Element, b: Element) -> Tuple[Element, ...]:
    """The eight generators (e0, a, b, ab, (ay)b, yb, ay, y) of the octonion
    copy generated by a special triple, mapped in order to the level-3
    units e0..e7.

    All 64 generator products are verified against the level-3 product,
    scaled by |letter|^2 for each letter the two generators share; the
    first mismatch is reported, which is how a non-special triple fails.
    """
    if not (a and y and b):
        raise ValueError("triple entries must be nonzero")
    if not (a.level == y.level == b.level):
        raise ValueError("triple entries must share a level")
    gens = (Element.unit(a.level), a, b, a * b, (a * y) * b, y * b, a * y, y)
    norms = (a.norm_sq(), y.norm_sq(), b.norm_sq())
    for i in range(8):
        for j in range(8):
            model = Element.basis(3, i) * Element.basis(3, j)
            k = next(t for t, c in enumerate(model.coords) if c)
            scale = model.coords[k]
            for letter in set(_GENERATOR_LETTERS[i]) & set(_GENERATOR_LETTERS[j]):
                scale *= norms[letter]
            got = gens[i] * gens[j]
            expected = scale * gens[k]
            if got != expected:
                raise VerificationError(
                    f"generator product ({i},{j}) is {got}, expected {expected}; "
                    "the triple is not special")
    return gens
