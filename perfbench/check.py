"""Correctness checks for one benchmark op, independent of the timed code.

Each op is judged twice, outside the timed region:

* against a recorded reference when one exists for the exact invocation
  (reference.json, recorded for the default seed at the commit that added
  the benchmark):
  a digest of stdout and stderr for search and verify, and the parsed
  dimensions, exact eigenvalues and lambda_sq (within 1e-6) for decompose,
  so that a rewrite of the spectrum is judged on values, not bytes;
* against invariants that hold for every seed: no criterion mismatches,
  every witness multiplies its pair to exact zero, decomposition dimensions
  sum to 2^n, and verify prints only PASS lines and exits 0.

The witness product uses the doubling formula implemented here, not the
product of the program under test.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?e(\d+)|([+-]?)(\d+(?:/\d+)?)")
_PASS = re.compile(r"PASS .+ \((\d+) checks\)")


@dataclass(frozen=True)
class OpResult:
    """What one op produced: exit code, captured streams, or the exception."""

    rc: Optional[int]
    stdout: str
    stderr: str
    error: Optional[str] = None

    def digest(self) -> str:
        return hashlib.sha256(
            f"{self.rc}\0{self.stdout}\0{self.stderr}".encode()).hexdigest()[:32]


# -- reference arithmetic ---------------------------------------------------------

def _conj(v: Sequence) -> tuple:
    return (v[0],) + tuple(-c for c in v[1:])


def oracle_mul(x: Sequence, y: Sequence) -> tuple:
    """(x1, x2)(y1, y2) = (x1 y1 - conj(y2) x2, y2 x1 + x2 conj(y1))."""
    if len(x) == 1:
        return (x[0] * y[0],)
    h = len(x) // 2
    x1, x2, y1, y2 = x[:h], x[h:], y[:h], y[h:]
    a, b = oracle_mul(x1, y1), oracle_mul(_conj(y2), x2)
    c, d = oracle_mul(y2, x1), oracle_mul(x2, _conj(y1))
    return (tuple(p - q for p, q in zip(a, b))
            + tuple(p + q for p, q in zip(c, d)))


def parse_coords(text: str, level: int) -> Tuple[Fraction, ...]:
    """Coordinates of canonical element text such as `-3/2*e1+e10` or `0`."""
    coords = [Fraction(0)] * (1 << level)
    pos = 0
    for m in _TERM.finditer(text):
        if m.start() != pos:
            raise ValueError(f"unparsable element text {text!r}")
        pos = m.end()
        if m.group(3) is not None:
            sign, coeff, index = m.group(1), m.group(2), int(m.group(3))
        else:
            sign, coeff, index = m.group(4), m.group(5), 0
        value = Fraction(coeff) if coeff else Fraction(1)
        coords[index] += -value if sign == "-" else value
    if pos != len(text) or not text:
        raise ValueError(f"unparsable element text {text!r}")
    return tuple(coords)


# -- per-command checks -------------------------------------------------------------

def _option(argv: Sequence[str], flag: str) -> str:
    return argv[list(argv).index(flag) + 1]


def _search_items(argv, res: OpResult) -> Tuple[int, dict]:
    level = int(_option(argv, "-n"))
    lines = res.stdout.splitlines()
    summary = json.loads(res.stderr.strip().splitlines()[-1])
    if summary.get("criterion_mismatches") != 0:
        raise ValueError(f"criterion mismatches: {summary}")
    if summary.get("entries") != len(lines):
        raise ValueError("summary entry count differs from the rows written")
    fallback = zds = 0
    for line in lines:
        e = json.loads(line)
        if e["level"] != level:
            raise ValueError(f"entry at level {e['level']}, expected {level}")
        if e["criterion_hit"] is None:
            fallback += 1
        elif e["criterion_hit"] != e["is_zero_divisor"]:
            raise ValueError(f"criterion disagrees with kernel: {line}")
        if not e["is_zero_divisor"]:
            if e["witness_x"] is not None or e["ker_dim"] != 0:
                raise ValueError(f"non zero divisor with a kernel: {line}")
            continue
        zds += 1
        if e["ker_dim"] < 1:
            raise ValueError(f"zero divisor without kernel: {line}")
        pair = parse_coords(e["a"], level) + parse_coords(e["b"], level)
        witness = (parse_coords(e["witness_x"], level)
                   + parse_coords(e["witness_y"], level))
        if not any(witness) or any(oracle_mul(pair, witness)):
            raise ValueError(f"witness does not annihilate its pair: {line}")
    return len(lines), {"entries": len(lines), "fallback": fallback, "zds": zds}


def decompose_summary(res: OpResult) -> dict:
    d = json.loads(res.stdout)
    return {
        "dims": [len(d["quaternion_part"]), d["alternator_kernel_dim"],
                 d["annihilator_dim"], [b["dim"] for b in d["middle"]]],
        "exact": [b["exact"] for b in d["middle"]],
        "lambda_sq": [b["lambda_sq"] for b in d["middle"]],
        "total_dim": d["total_dim"],
    }


def _decompose_items(argv, res: OpResult) -> Tuple[int, dict]:
    dim = 1 << int(_option(argv, "-n"))
    s = decompose_summary(res)
    quat, alt, ann, middle = s["dims"]
    if quat != 4 or quat + alt + ann + sum(middle) != dim or s["total_dim"] != dim:
        raise ValueError(f"decomposition dims {s['dims']} do not sum to {dim}")
    return 1, {}


def _verify_items(argv, res: OpResult) -> Tuple[int, dict]:
    if res.stderr:
        raise ValueError(f"verify wrote to stderr: {res.stderr[:200]!r}")
    lines = res.stdout.splitlines()
    counts = [_PASS.fullmatch(line) for line in lines]
    if not lines or not all(counts):
        raise ValueError(f"verify printed a non-PASS line: {res.stdout[:300]!r}")
    return sum(int(m.group(1)) for m in counts), {}


_ITEMS = {"search": _search_items, "decompose": _decompose_items,
          "verify": _verify_items}


def reference_of(argv: Sequence[str], res: OpResult):
    """The value recorded for an invocation: decompose keeps parsed values,
    the other commands a digest of exit code, stdout and stderr."""
    if argv[0] == "decompose":
        return decompose_summary(res)
    return res.digest()


def _matches(argv, res: OpResult, ref) -> bool:
    if argv[0] != "decompose":
        return res.digest() == ref
    got = decompose_summary(res)
    return (got["dims"] == ref["dims"] and got["exact"] == ref["exact"]
            and len(got["lambda_sq"]) == len(ref["lambda_sq"])
            and all(abs(g - r) <= 1e-6 + 1e-12
                    for g, r in zip(got["lambda_sq"], ref["lambda_sq"])))


def load_references() -> Dict[str, Dict[str, object]]:
    """Recorded references by workload, then by invocation text."""
    return json.loads(REFERENCE_PATH.read_text())


def check(argv: Sequence[str], res: OpResult,
          references: Dict[str, object]) -> Tuple[int, dict]:
    """Items the op completed plus per-op facts; raises ValueError when the
    output is wrong."""
    if res.error is not None:
        raise ValueError(f"raised {res.error}")
    if res.rc != 0:
        raise ValueError(f"exit code {res.rc}: {res.stderr[-300:]!r}")
    ref = references.get(" ".join(argv))
    if ref is not None and not _matches(argv, res, ref):
        raise ValueError("output differs from the recorded reference")
    return _ITEMS[argv[0]](argv, res)
