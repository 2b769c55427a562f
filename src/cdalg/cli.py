"""Command-line front-end: arithmetic, analysis, catalog search, and
verification suites over the level-n algebras.

Every command prints deterministically for fixed arguments: canonical
element text, sorted JSON keys, no timestamps.  Exit codes: 0 success,
1 property or verdict failure, 2 usage or parse error, 3 precondition
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .algebra import (Element, LevelError, ParseError, associator, commutator,
                      format_element, is_alternative, parse_element,
                      swap_halves, tilde)
from .catalog import (CandidateFamily, alternative_pure_element,
                      random_element, random_special_couple, run_catalog,
                      write_csv, write_jsonl)
from .linalg import (left_mult_matrix, mat_add, mat_mul, mat_scale, mat_vec,
                     matrix_of, nullspace, orthogonal_projection,
                     right_mult_matrix)
from .structure import (VerificationError, annihilator, couple_embedding,
                        couple_kernel_split, decompose, float_zero_divisor_test,
                        is_special_triple, quaternion_embedding,
                        report_to_dict, zero_divisor_test)

DEFAULT_LEVEL_CAP = 8


@dataclass(frozen=True)
class CliConfig:
    level: int
    seed: int
    trials: int
    tolerance: float
    out: Optional[str]
    fmt: str


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _level_cap() -> int:
    env = os.environ.get("CDALG_MAX_LEVEL")
    if env is None:
        return DEFAULT_LEVEL_CAP
    try:
        return max(DEFAULT_LEVEL_CAP, int(env))
    except ValueError:
        raise LevelError(f"CDALG_MAX_LEVEL is not an integer: {env!r}") from None


def _config(args: argparse.Namespace) -> CliConfig:
    cap = _level_cap()
    if not 0 <= args.level <= cap:
        raise LevelError(
            f"level {args.level} outside [0, {cap}] "
            "(set CDALG_MAX_LEVEL to raise the cap)")
    return CliConfig(args.level, args.seed, args.trials, args.tolerance,
                     args.out, args.format)


# -- elementary commands ------------------------------------------------------

def _cmd_mul(cfg: CliConfig, args) -> int:
    x = parse_element(args.x, cfg.level)
    y = parse_element(args.y, cfg.level)
    print(format_element(x * y))
    return 0


def _cmd_conj(cfg: CliConfig, args) -> int:
    print(format_element(parse_element(args.x, cfg.level).conjugate()))
    return 0


def _cmd_assoc(cfg: CliConfig, args) -> int:
    x = parse_element(args.x, cfg.level)
    y = parse_element(args.y, cfg.level)
    z = parse_element(args.z, cfg.level)
    print(format_element(associator(x, y, z)))
    return 0


def _cmd_inner(cfg: CliConfig, args) -> int:
    x = parse_element(args.x, cfg.level)
    y = parse_element(args.y, cfg.level)
    print(x.inner(y))
    return 0


def _cmd_ann(cfg: CliConfig, args) -> int:
    a = parse_element(args.a, cfg.level)
    basis = annihilator(a)
    if cfg.fmt == "json":
        print(json.dumps({"dim": len(basis),
                          "basis": [format_element(e) for e in basis]},
                         sort_keys=True))
    else:
        print(f"dim {len(basis)}")
        for e in basis:
            print(f"  {format_element(e)}")
    return 0


def _band_text(band) -> str:
    if band.exact is not None:
        return f"lambda_sq={band.lambda_sq:.6f} (exact {band.exact}) dim {band.dim}"
    return f"lambda_sq={band.lambda_sq:.6f} dim {band.dim}"


def _cmd_decompose(cfg: CliConfig, args) -> int:
    a = parse_element(args.a, cfg.level)
    dec = decompose(a)
    if cfg.fmt == "json":
        payload = {
            "element": format_element(a),
            "level": cfg.level,
            "quaternion_part": [format_element(e) for e in dec.quaternion_part],
            "alternator_kernel_dim": len(dec.alternator_kernel),
            "annihilator_dim": len(dec.annihilator),
            "middle": [{"lambda_sq": round(b.lambda_sq, 6), "dim": b.dim,
                        "exact": None if b.exact is None else str(b.exact)}
                       for b in dec.middle],
            "total_dim": dec.total_dim(),
        }
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"element {format_element(a)} at level {cfg.level}")
    print("quaternion part: dim 4 ("
          + ", ".join(format_element(e) for e in dec.quaternion_part) + ")")
    print(f"alternator kernel: dim {len(dec.alternator_kernel)}")
    for e in dec.alternator_kernel:
        print(f"  {format_element(e)}")
    print(f"annihilator: dim {len(dec.annihilator)}")
    for e in dec.annihilator:
        print(f"  {format_element(e)}")
    for band in dec.middle:
        print(f"middle band {_band_text(band)}")
    print(f"total dim {dec.total_dim()}")
    return 0


def _report_dict(rep) -> dict:
    return {**report_to_dict(rep), "pair_level": rep.pair_level}


def _cmd_zd(cfg: CliConfig, args) -> int:
    a = parse_element(args.a, cfg.level)
    b = parse_element(args.b, cfg.level)
    rep = zero_divisor_test(a, b)
    if cfg.fmt == "json":
        print(json.dumps(_report_dict(rep), sort_keys=True))
        return 0
    d = _report_dict(rep)
    print(f"a: {d['a']}")
    print(f"b: {d['b']}")
    print(f"pair level: {d['pair_level']}")
    print(f"special couple: {_yn(d['special_couple'])}")
    print(f"criterion hit: {_yn(d['criterion_hit'])}")
    print(f"zero divisor: {_yn(d['is_zero_divisor'])}")
    print(f"kernel dim: {d['ker_dim']}")
    if rep.witness is not None:
        print(f"witness x: {d['witness_x']}")
        print(f"witness y: {d['witness_y']}")
        print(f"special zero divisor: {_yn(d['special_zd'])}")
    return 0


def _yn(value) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _cmd_search(cfg: CliConfig, args) -> int:
    family = CandidateFamily(kind=args.family, level=cfg.level,
                             max_index=args.max_index, count=args.count,
                             support=args.support, bound=args.bound,
                             seed=cfg.seed)
    entries, summary = run_catalog(family)
    summary_line = json.dumps(summary, sort_keys=True)
    fmt = cfg.fmt
    if cfg.out:
        # a text dump is for the terminal; files get a machine format
        if fmt == "text":
            fmt = "csv" if cfg.out.endswith(".csv") else "json"
        with open(cfg.out, "w", newline="") as fh:
            if fmt == "csv":
                write_csv(entries, fh)
            else:
                write_jsonl(entries, fh)
        print(summary_line)
        return 0
    if fmt == "csv":
        write_csv(entries, sys.stdout)
        print(summary_line, file=sys.stderr)
    elif fmt == "json":
        write_jsonl(entries, sys.stdout)
        print(summary_line, file=sys.stderr)
    else:
        for e in entries:
            verdict = "ZD" if e.is_zero_divisor else "--"
            print(f"{e.index:4d} {verdict} ker_dim={e.ker_dim:2d} "
                  f"a={e.a_text} b={e.b_text}")
        print(summary_line)
    return 0


# -- verification suites -------------------------------------------------------

Check = Tuple[str, Callable[[random.Random, CliConfig], int]]


def _rand(rng: random.Random, level: int, **kw) -> Element:
    return random_element(rng, level, **kw)


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise VerificationError(detail)


def _check_conjugation_reversal(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        _require((x * y).conjugate() == y.conjugate() * x.conjugate(),
                 f"x={format_element(x)} y={format_element(y)}")
        _require(x.conjugate().conjugate() == x, f"x={format_element(x)}")
    return 2 * cfg.trials


def _check_characteristic(rng, cfg) -> int:
    e0 = Element.unit(cfg.level)
    for _ in range(cfg.trials):
        x = _rand(rng, cfg.level)
        _require(x * x - x.trace() * x + x.norm_sq() * e0 == Element.zero(cfg.level),
                 f"x={format_element(x)}")
    return cfg.trials


def _check_flexibility(rng, cfg) -> int:
    zero = Element.zero(cfg.level)
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        _require(associator(x, y, x) == zero,
                 f"x={format_element(x)} y={format_element(y)}")
    return cfg.trials


def _check_trace_and_inner_forms(rng, cfg) -> int:
    e0 = Element.unit(cfg.level)
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        _require(x + x.conjugate() == x.trace() * e0, f"x={format_element(x)}")
        _require(x * y.conjugate() + y * x.conjugate() == (2 * x.inner(y)) * e0,
                 f"x={format_element(x)} y={format_element(y)}")
    return 2 * cfg.trials


def _check_round_trip(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x = _rand(rng, cfg.level)
        _require(parse_element(format_element(x), cfg.level) == x,
                 f"x={format_element(x)}")
    return cfg.trials


def _check_square_zero(rng, cfg) -> int:
    zero = Element.zero(cfg.level)
    for _ in range(cfg.trials):
        x = _rand(rng, cfg.level)
        _require(bool(x) == (x * x != zero), f"x={format_element(x)}")
    return cfg.trials


def _core_checks() -> List[Check]:
    return [
        ("conjugation reverses products", _check_conjugation_reversal),
        ("characteristic equation", _check_characteristic),
        ("flexible law", _check_flexibility),
        ("trace and inner product forms", _check_trace_and_inner_forms),
        ("element text round trip", _check_round_trip),
        ("only zero squares to zero", _check_square_zero),
    ]


def _known_zero_divisor(level: int) -> Element:
    # (x, tilde(x)) pairs always annihilate one level up, so this element
    # has a nonzero kernel at every level >= 4
    base = Element.basis(level - 1, 1)
    return Element.pair(base, tilde(base))


def _check_associator_conjugations(rng, cfg) -> int:
    zero = Element.zero(cfg.level)
    for _ in range(cfg.trials):
        x, y, z = (_rand(rng, cfg.level) for _ in range(3))
        t = associator(x, y, z)
        for flipped in (associator(x.conjugate(), y, z),
                        associator(x, y.conjugate(), z),
                        associator(x, y, z.conjugate())):
            _require(flipped == -t,
                     f"x={format_element(x)} y={format_element(y)} z={format_element(z)}")
        _require(t.trace() == 0, f"associator trace: {format_element(t)}")
        _require(commutator(x, y).trace() == 0,
                 f"commutator trace: x={format_element(x)} y={format_element(y)}")
    return 5 * cfg.trials


def _check_four_term_expansion(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x, y, z, w = (_rand(rng, cfg.level, support=4) for _ in range(4))
        lhs = x * associator(y, z, w) + associator(x, y, z) * w
        rhs = (associator(x * y, z, w) - associator(x, y * z, w)
               + associator(x, y, z * w))
        _require(lhs == rhs,
                 f"x={format_element(x)} y={format_element(y)} "
                 f"z={format_element(z)} w={format_element(w)}")
    return cfg.trials


def _check_inner_shifts(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x, y, z = (_rand(rng, cfg.level) for _ in range(3))
        lhs = x.inner(y * z)
        _require(lhs == (x * z.conjugate()).inner(y)
                 and lhs == (y.conjugate() * x).inner(z),
                 f"x={format_element(x)} y={format_element(y)} z={format_element(z)}")
    return cfg.trials


def _check_norm_shifts(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        n = (x * y).norm_sq()
        _require(n == (x.conjugate() * y).norm_sq()
                 and n == (x * y.conjugate()).norm_sq()
                 and n == (y * x).norm_sq(),
                 f"x={format_element(x)} y={format_element(y)}")
    return cfg.trials


def _check_zero_product_symmetry(rng, cfg) -> int:
    zero = Element.zero(cfg.level)
    count = 0
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        verdicts = {x * y == zero, y * x == zero,
                    x.conjugate() * y == zero, x * y.conjugate() == zero}
        _require(len(verdicts) == 1,
                 f"x={format_element(x)} y={format_element(y)}")
        count += 1
    if cfg.level >= 4:
        p = _known_zero_divisor(cfg.level)
        for w in annihilator(p):
            _require(p * w == zero and w * p == zero
                     and p.conjugate() * w == zero and p * w.conjugate() == zero,
                     f"witness quartet: p={format_element(p)} w={format_element(w)}")
            count += 1
    return count


def _check_skew_operators(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x = _rand(rng, cfg.level, pure=True)
        for M in (left_mult_matrix(x), right_mult_matrix(x)):
            dim = len(M)
            for i in range(dim):
                for j in range(i, dim):
                    _require(M[i][j] == -M[j][i],
                             f"x={format_element(x)} entry ({i},{j})")
    return cfg.trials


def _check_partner_identity(rng, cfg) -> int:
    if cfg.level < 4:
        return 0
    zero = Element.zero(cfg.level)
    p = _known_zero_divisor(cfg.level)
    count = 0
    for w in annihilator(p):
        w1, w2 = w.halves()
        partner = Element.pair(-w2.conjugate(), w1)
        _require(partner * swap_halves(p) == zero,
                 f"p={format_element(p)} w={format_element(w)}")
        count += 1
    return count


def _check_doubly_pure_relations(rng, cfg) -> int:
    if cfg.level < 2:
        raise ValueError("doubly pure relations need level >= 2")
    h = Element.half_unit(cfg.level)
    count = 0
    for _ in range(cfg.trials):
        a = _rand(rng, cfg.level, doubly_pure=True)
        b = _rand(rng, cfg.level, doubly_pure=True)
        n2 = a.norm_sq()
        _require(a * h == tilde(a) and h * a == -tilde(a),
                 f"a={format_element(a)}")
        _require(a * tilde(a) == (-n2) * h and tilde(a) * a == n2 * h,
                 f"a={format_element(a)}")
        _require(tilde(a) * b == -tilde(a * b),
                 f"a={format_element(a)} b={format_element(b)}")
        b_perp = n2 * b - a.inner(b) * a
        if b_perp:
            _require(tilde(a) * b_perp + tilde(b_perp) * a == Element.zero(cfg.level),
                     f"a={format_element(a)} b={format_element(b_perp)}")
        b_tilde_perp = n2 * b - tilde(a).inner(b) * tilde(a)
        if b_tilde_perp:
            _require(a * b_tilde_perp == tilde(b_tilde_perp) * tilde(a),
                     f"a={format_element(a)} b={format_element(b_tilde_perp)}")
        count += 5
    return count


def _chapter1_checks() -> List[Check]:
    return [
        ("associator sign under conjugation", _check_associator_conjugations),
        ("four-term associator expansion", _check_four_term_expansion),
        ("inner product shifts", _check_inner_shifts),
        ("conjugation preserves product norms", _check_norm_shifts),
        ("zero products are two-sided", _check_zero_product_symmetry),
        ("pure multiplication operators are skew", _check_skew_operators),
        ("annihilation partner identity", _check_partner_identity),
        ("doubly pure tilde relations", _check_doubly_pure_relations),
    ]


def _check_couple_tables(rng, cfg) -> int:
    count = 0
    for _ in range(max(1, cfg.trials // 5)):
        a, b = random_special_couple(rng, cfg.level)
        couple_embedding(a, b)
        if a.is_doubly_pure():
            quaternion_embedding(a)
        count += 1
    return count


def _check_couple_kernel_split(rng, cfg) -> int:
    count = 0
    for _ in range(max(1, cfg.trials // 10)):
        a, b = random_special_couple(rng, cfg.level)
        couple_kernel_split(a, b)
        count += 1
    return count


def _check_projected_alternator(rng, cfg) -> int:
    count = 0
    for _ in range(max(1, cfg.trials // 10)):
        a, b = random_special_couple(rng, cfg.level)
        gens = couple_embedding(a, b)
        proj = orthogonal_projection([g.coords for g in gens])
        s = a + b
        t_mat = matrix_of(cfg.level, lambda v: associator(s, s, v))
        s_mat = matrix_of(cfg.level, lambda v: associator(a, v, b))
        rbla = mat_mul(right_mult_matrix(b), left_mult_matrix(a))
        larb = mat_mul(left_mult_matrix(a), right_mult_matrix(b))
        lhs = mat_mul(t_mat, proj)
        _require(lhs == mat_mul(mat_add(mat_scale(s_mat, Fraction(-1)),
                                        mat_scale(rbla, Fraction(2))), proj),
                 f"a={format_element(a)} b={format_element(b)}")
        _require(lhs == mat_mul(mat_add(s_mat, mat_scale(larb, Fraction(2))), proj),
                 f"a={format_element(a)} b={format_element(b)}")
        count += 2
    return count


def _check_restricted_annihilation(rng, cfg) -> int:
    zero = Element.zero(cfg.level)
    count = 0
    for _ in range(cfg.trials):
        a, b = random_special_couple(rng, cfg.level)
        gens = couple_embedding(a, b)
        proj = orthogonal_projection([g.coords for g in gens])
        y = Element(cfg.level, mat_vec(proj, _rand(rng, cfg.level).coords))
        if not y:
            continue
        n2 = a.norm_sq()
        s = a + b
        t_of_y = associator(s, s, y)
        x = (Fraction(-1, 2) / n2) * associator(a, y, b)
        annihilates = Element.pair(a, b) * Element.pair(x, y) == Element.zero(cfg.level + 1)
        _require((t_of_y == zero) == annihilates,
                 f"a={format_element(a)} b={format_element(b)} y={format_element(y)}")
        count += 1
    return count


def _check_criterion_against_kernel(rng, cfg) -> int:
    count = 0
    for i in range(cfg.trials):
        mode = i % 5
        if mode == 0:
            a, b = random_special_couple(rng, cfg.level)
        elif mode == 1:
            a = alternative_pure_element(rng, cfg.level)
            b = a
        elif mode == 2:
            a = alternative_pure_element(rng, cfg.level)
            b = -a
        elif mode == 3:
            a = alternative_pure_element(rng, cfg.level)
            b = 2 * a
        else:
            a = alternative_pure_element(rng, cfg.level)
            b = alternative_pure_element(rng, cfg.level)
        zero_divisor_test(a, b)
        count += 1
    return count


def _check_kernel_bound(rng, cfg) -> int:
    dim = 1 << cfg.level
    count = 0
    for i in range(1, dim - 1):
        for j in range(i + 1, dim):
            if count >= cfg.trials:
                return count
            a = Element.basis(cfg.level, i)
            b = Element.basis(cfg.level, j)
            rep = zero_divisor_test(a, b)
            slack = len(nullspace(left_mult_matrix(a + b)))
            _require(rep.ker_dim <= dim - 4 - 2 * slack,
                     f"a={format_element(a)} b={format_element(b)} "
                     f"ker={rep.ker_dim} slack={slack}")
            count += 1
    return count


def _check_triple_symmetry(rng, cfg) -> int:
    dim = 1 << cfg.level
    for _ in range(cfg.trials):
        i, j, k = rng.sample(range(1, dim), 3)
        sa, sy, sb = (rng.choice((1, -1)) for _ in range(3))
        a = sa * Element.basis(cfg.level, i)
        y = sy * Element.basis(cfg.level, k)
        b = sb * Element.basis(cfg.level, j)
        _require(is_special_triple(a, y, b) == is_special_triple(b, y, a),
                 f"a={format_element(a)} y={format_element(y)} b={format_element(b)}")
    return cfg.trials


def _check_alternative_sum_special(rng, cfg) -> int:
    count = 0
    for _ in range(max(1, cfg.trials // 10)):
        a = alternative_pure_element(rng, cfg.level)
        if not a.is_doubly_pure():
            a = random_element(rng, cfg.level, support=4, doubly_pure=True)
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


def _chapter2_checks() -> List[Check]:
    return [
        ("couple multiplication tables", _check_couple_tables),
        ("couple kernel splitting", _check_couple_kernel_split),
        ("projected alternator identity", _check_projected_alternator),
        ("restricted annihilation equivalence", _check_restricted_annihilation),
        ("criterion agrees with the kernel", _check_criterion_against_kernel),
        ("kernel dimension bound", _check_kernel_bound),
        ("special triple symmetry", _check_triple_symmetry),
        ("alternative sums give special zero divisors", _check_alternative_sum_special),
    ]


def _check_norm_multiplicative(rng, cfg) -> int:
    for _ in range(cfg.trials):
        x, y = _rand(rng, cfg.level), _rand(rng, cfg.level)
        _require((x * y).norm_sq() == x.norm_sq() * y.norm_sq(),
                 f"x={format_element(x)} y={format_element(y)}")
    return cfg.trials


def _check_norm_violation_exists(rng, cfg) -> int:
    if cfg.level == 4:
        x = parse_element("e1+e10", 4)
        y = parse_element("e15-e4", 4)
    else:
        x = _known_zero_divisor(cfg.level)
        y = annihilator(x)[0]
    _require((x * y).norm_sq() != x.norm_sq() * y.norm_sq(),
             f"x={format_element(x)} y={format_element(y)} still multiplicative")
    return 1


def _hurwitz_checks(level: int) -> List[Check]:
    if level <= 3:
        return [("norm is multiplicative", _check_norm_multiplicative)]
    return [("norm multiplicativity fails", _check_norm_violation_exists)]


def _cmd_verify(cfg: CliConfig, args) -> int:
    if args.suite == "core_identities":
        checks = _core_checks()
    elif args.suite == "chapter1":
        if cfg.level < 2:
            raise ValueError("chapter1 suite needs level >= 2")
        checks = _chapter1_checks()
    elif args.suite == "chapter2":
        if cfg.level < 3:
            raise ValueError("chapter2 suite needs level >= 3")
        checks = _chapter2_checks()
    else:
        checks = _hurwitz_checks(cfg.level)
    failures = 0
    for name, fn in checks:
        rng = random.Random(cfg.seed)
        try:
            count = fn(rng, cfg)
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            failures += 1
            continue
        print(f"PASS {name} ({count} checks)")
    return 1 if failures else 0


def _cmd_zdf(cfg: CliConfig, args) -> int:
    # float-path test: operands are comma-separated doubles of length 2^n
    a = tuple(float(t) for t in args.a.split(","))
    b = tuple(float(t) for t in args.b.split(","))
    rep = float_zero_divisor_test(a, b, cfg.tolerance)
    print(json.dumps({
        "pair_level": rep.pair_level,
        "nullity": rep.nullity,
        "is_zero_divisor": rep.is_zero_divisor,
        "alternative": rep.alternative,
        "max_alternator_residual": f"{rep.max_alternator_residual:.6f}",
        "tolerance": rep.tolerance,
    }, sort_keys=True))
    return 0


# -- wiring ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("-n", "--level", type=int, default=4,
                        help="algebra level n (dimension 2^n)")
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--trials", type=_positive_int, default=50)
    shared.add_argument("--tolerance", type=float, default=1e-9)
    shared.add_argument("--out", default=None)
    shared.add_argument("--format", choices=("text", "json", "csv"),
                        default="text")
    parser = argparse.ArgumentParser(
        prog="cdalg",
        description="exact Cayley-Dickson arithmetic and zero-divisor analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, operands):
        p = sub.add_parser(name, parents=[shared], help=help_text)
        for operand in operands:
            p.add_argument(operand)
        p.set_defaults(func=func)
        return p

    add("mul", _cmd_mul, "multiply two elements", ("x", "y"))
    add("conj", _cmd_conj, "conjugate an element", ("x",))
    add("assoc", _cmd_assoc, "associator (xy)z - x(yz)", ("x", "y", "z"))
    add("inner", _cmd_inner, "inner product", ("x", "y"))
    add("ann", _cmd_ann, "annihilator basis of an element", ("a",))
    add("decompose", _cmd_decompose,
        "orthogonal decomposition under a doubly pure element", ("a",))
    add("zd", _cmd_zd, "dual-path zero-divisor test for a pair", ("a", "b"))
    add("zdf", _cmd_zdf,
        "float zero-divisor test (comma-separated coordinates)", ("a", "b"))
    p_search = sub.add_parser("search", parents=[shared],
                              help="run a candidate family catalog")
    p_search.add_argument("--family", choices=("basis_pairs", "basis_sum_pairs",
                                               "random_rational"),
                          default="basis_pairs")
    p_search.add_argument("--max-index", type=int, default=None)
    p_search.add_argument("--count", type=_positive_int, default=20)
    p_search.add_argument("--support", type=_positive_int, default=4)
    p_search.add_argument("--bound", type=_positive_int, default=3)
    p_search.set_defaults(func=_cmd_search)
    p_verify = sub.add_parser("verify", parents=[shared],
                              help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=("core_identities", "chapter1", "chapter2",
                                   "hurwitz_boundary"))
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        return args.func(cfg, args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LevelError as exc:
        print(f"level error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
