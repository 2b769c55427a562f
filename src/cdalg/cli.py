"""Command-line front-end: arithmetic, analysis, catalog search, and
verification suites over the level-n algebras.

Every command prints deterministically for fixed arguments: canonical
element text, sorted JSON keys, no timestamps.  Exit codes: 0 success,
1 property or verdict failure, 2 usage or parse error, 3 precondition
violation, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (LevelError, ParseError, associator, format_element,
                      parse_element)
from .catalog import CandidateFamily, run_catalog, write_csv, write_jsonl
from .structure import (VerificationError, annihilator, decompose,
                        float_zero_divisor_test, report_to_dict,
                        zero_divisor_test)
from .suites import SUITES, run_suite

DEFAULT_LEVEL_CAP = 8


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


def _check_level(level: int) -> None:
    cap = _level_cap()
    if not 0 <= level <= cap:
        raise LevelError(
            f"level {level} outside [0, {cap}] "
            "(set CDALG_MAX_LEVEL to raise the cap)")


# -- elementary commands ------------------------------------------------------

def _cmd_mul(args) -> int:
    x = parse_element(args.x, args.level)
    y = parse_element(args.y, args.level)
    print(format_element(x * y))
    return 0


def _cmd_conj(args) -> int:
    print(format_element(parse_element(args.x, args.level).conjugate()))
    return 0


def _cmd_assoc(args) -> int:
    x = parse_element(args.x, args.level)
    y = parse_element(args.y, args.level)
    z = parse_element(args.z, args.level)
    print(format_element(associator(x, y, z)))
    return 0


def _cmd_inner(args) -> int:
    x = parse_element(args.x, args.level)
    y = parse_element(args.y, args.level)
    print(x.inner(y))
    return 0


def _cmd_ann(args) -> int:
    a = parse_element(args.a, args.level)
    basis = annihilator(a)
    if args.format == "json":
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


def _cmd_decompose(args) -> int:
    a = parse_element(args.a, args.level)
    dec = decompose(a)
    if args.format == "json":
        payload = {
            "element": format_element(a),
            "level": args.level,
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
    print(f"element {format_element(a)} at level {args.level}")
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


def _cmd_zd(args) -> int:
    a = parse_element(args.a, args.level)
    b = parse_element(args.b, args.level)
    rep = zero_divisor_test(a, b)
    if args.format == "json":
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


def _cmd_search(args) -> int:
    family = CandidateFamily(kind=args.family, level=args.level,
                             max_index=args.max_index, count=args.count,
                             support=args.support, bound=args.bound,
                             seed=args.seed)
    entries, summary = run_catalog(family)
    summary_line = json.dumps(summary, sort_keys=True)
    fmt = args.format
    if args.out:
        # a text dump is for the terminal; files get a machine format
        if fmt == "text":
            fmt = "csv" if args.out.endswith(".csv") else "json"
        with open(args.out, "w", newline="") as fh:
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

def _cmd_verify(args) -> int:
    failures = 0
    for name, result in run_suite(args.suite, args.level, args.seed, args.trials):
        if isinstance(result, VerificationError):
            print(f"FAIL {name}: {result}")
            failures += 1
        else:
            print(f"PASS {name} ({result} checks)")
    return 1 if failures else 0


def _float_coords(text: str) -> tuple:
    """Comma-separated doubles; a token float() rejects is a parse error
    at its offset."""
    coords = []
    pos = 0
    for token in text.split(","):
        try:
            coords.append(float(token))
        except ValueError:
            raise ParseError(f"not a number: {token!r}", pos) from None
        pos += len(token) + 1
    return tuple(coords)


def _cmd_zdf(args) -> int:
    # float-path test: operands are comma-separated doubles of length 2^n
    a = _float_coords(args.a)
    b = _float_coords(args.b)
    rep = float_zero_divisor_test(a, b, args.tolerance)
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
    p_verify.add_argument("--suite", required=True, choices=tuple(SUITES))
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_level(args.level)
        code = args.func(args)
        # output still buffered must fail here, where it is caught, and not
        # at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`cdalg ... | head`); send whatever is
        # left to devnull so that the exit-time flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, what a shell reports for a killed writer
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
