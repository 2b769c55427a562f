"""Candidate enumeration and catalog export for zero-divisor searches.

Families are deterministic streams of (a, b) pairs at a fixed level; the
runner tests each pair one level up and writes JSON-lines or CSV rows.
Identical parameters always reproduce byte-identical files: element text
is canonical, JSON keys are sorted, and nothing timestamped is emitted.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import IO, Iterator, List, Optional, Sequence, Tuple

from .algebra import Element, format_element, tilde
from .structure import (PreconditionError, is_special_couple, kernel_report,
                        report_to_dict, zero_divisor_test)

SCHEMA_VERSION = 1

_JSON_FIELDS = ("schema_version", "level", "a", "b", "is_zero_divisor",
                "criterion_hit", "ker_dim", "witness_x", "witness_y",
                "special_couple", "special_zd", "family", "index")


@dataclass(frozen=True)
class CandidateFamily:
    """A deterministic pair stream.

    kind 'basis_pairs': all (e_i, e_j) with 1 <= i < j < 2^level (optionally
    clamped by max_index).  kind 'basis_sum_pairs': unordered pairs of
    distinct doubly pure two-term combinations e_i +- e_j.  kind
    'random_rational': `count` seeded pairs of trace-zero elements with
    rational coefficients of numerator and denominator bounded by `bound`.
    """
    kind: str
    level: int
    max_index: Optional[int] = None
    count: int = 20
    support: int = 4
    bound: int = 3
    seed: int = 0


@dataclass(frozen=True)
class CatalogEntry:
    level: int
    a_text: str
    b_text: str
    is_zero_divisor: bool
    criterion_hit: Optional[bool]
    ker_dim: int
    witness_x: Optional[str]
    witness_y: Optional[str]
    special_couple: bool
    special_zd: Optional[bool]
    family: str
    index: int

    def to_json_dict(self) -> dict:
        row = {"schema_version": SCHEMA_VERSION, **asdict(self)}
        row["a"], row["b"] = row.pop("a_text"), row.pop("b_text")
        return row


# -- random element plumbing ------------------------------------------------

def random_element(rng: random.Random, level: int, support: int = 6,
                   bound: int = 3, pure: bool = False,
                   doubly_pure: bool = False, rational: bool = False) -> Element:
    """Seed-deterministic element with nonzero integer (or rational)
    coefficients on a small random support."""
    dim = 1 << level
    pool = [i for i in range(dim)
            if not ((pure or doubly_pure) and i == 0)
            and not (doubly_pure and i == dim // 2)]
    k = rng.randint(1, max(1, min(support, len(pool))))
    coords = [Fraction(0)] * dim
    for i in rng.sample(pool, k):
        num = rng.choice([v for v in range(-bound, bound + 1) if v])
        den = rng.randint(1, bound) if rational else 1
        coords[i] = Fraction(num, den)
    return Element(level, coords)


def alternative_pure_element(rng: random.Random, level: int, support: int = 4,
                             bound: int = 3) -> Element:
    """A random pure element guaranteed alternative at any level.

    Levels up to 3 are alternative throughout; above that, embed a random
    level-3 pure element in the lowest eight coordinates, which keeps L^2
    a negative multiple of the identity.
    """
    if level <= 3:
        return random_element(rng, level, support, bound, pure=True)
    base = random_element(rng, 3, support, bound, pure=True)
    coords = base.coords + (Fraction(0),) * ((1 << level) - 8)
    return Element(level, coords)


def random_special_couple(rng: random.Random, level: int,
                          attempts: int = 1000) -> Tuple[Element, Element]:
    """A seed-deterministic special couple (up to norm) at the given level.

    Draws an alternative pure element and pairs it either with its tilde
    image or with a signed coordinate permutation of itself, rejecting
    candidates until the couple clauses hold.
    """
    if level < 2:
        raise ValueError("special couples need level >= 2")
    for _ in range(attempts):
        a = alternative_pure_element(rng, level)
        if rng.random() < 0.5 and a.is_doubly_pure():
            b = tilde(a)
        else:
            # signed permutation within a's own support: stays inside the
            # embedded alternative copy and keeps the norm equal
            support = [i for i, c in enumerate(a.coords) if c]
            values = [a.coords[i] * rng.choice((1, -1)) for i in support]
            rng.shuffle(values)
            coords = [Fraction(0)] * (1 << level)
            for i, v in zip(support, values):
                coords[i] = v
            b = Element(level, coords)
        if is_special_couple(a, b):
            return a, b
    raise ValueError("could not draw a special couple; widen the attempts")


# -- enumeration ---------------------------------------------------------------

def enumerate_family(family: CandidateFamily) -> Iterator[Tuple[Element, Element]]:
    dim = 1 << family.level
    if family.kind == "basis_pairs":
        # an out-of-range ceiling just truncates; an empty range is a
        # legitimate empty family, not an error
        top = min(dim - 1 if family.max_index is None else family.max_index, dim - 1)
        for i in range(1, top + 1):
            for j in range(i + 1, top + 1):
                yield Element.basis(family.level, i), Element.basis(family.level, j)
    elif family.kind == "basis_sum_pairs":
        top = min(dim - 1 if family.max_index is None else family.max_index, dim - 1)
        half = dim // 2
        combos: List[Element] = []
        for i in range(1, top + 1):
            if i == half:
                continue
            for j in range(i + 1, top + 1):
                if j == half:
                    continue
                ei, ej = Element.basis(family.level, i), Element.basis(family.level, j)
                combos.append(ei + ej)
                combos.append(ei - ej)
        for p in range(len(combos)):
            for q in range(p + 1, len(combos)):
                a, b = combos[p], combos[q]
                if format_element(b) < format_element(a):
                    a, b = b, a
                yield a, b
    elif family.kind == "random_rational":
        rng = random.Random(family.seed)
        for _ in range(family.count):
            a = random_element(rng, family.level, family.support,
                               family.bound, pure=True, rational=True)
            b = random_element(rng, family.level, family.support,
                               family.bound, pure=True, rational=True)
            yield a, b
    else:
        raise ValueError(f"unknown family kind: {family.kind}")


# -- the runner -----------------------------------------------------------------

def _entry_for(a: Element, b: Element, family: str, index: int) -> CatalogEntry:
    try:
        rep = zero_divisor_test(a, b)
    except PreconditionError:
        # outside the criterion's preconditions (typically non-alternative
        # entries): the direct kernel decides and the criterion stays null
        rep = kernel_report(a, b)
    fields = report_to_dict(rep)
    return CatalogEntry(a_text=fields.pop("a"), b_text=fields.pop("b"),
                        family=family, index=index, **fields)


def run_catalog(family: CandidateFamily) -> Tuple[Tuple[CatalogEntry, ...], dict]:
    """Test every candidate in the family; returns (entries, summary).

    summary counts zero divisors, special zero divisors, and criterion
    mismatches; caller code may rely on mismatches being zero because the
    per-pair test raises before producing a mismatched entry.
    """
    entries = tuple(_entry_for(a, b, family.kind, index)
                    for index, (a, b) in enumerate(enumerate_family(family)))
    summary = {
        "entries": len(entries),
        "zero_divisors": sum(1 for e in entries if e.is_zero_divisor),
        "special_zds": sum(1 for e in entries if e.special_zd),
        "criterion_mismatches": sum(
            1 for e in entries
            if e.criterion_hit is not None and e.criterion_hit != e.is_zero_divisor),
    }
    return entries, summary


def write_jsonl(entries: Sequence[CatalogEntry], fh: IO[str]) -> None:
    for e in entries:
        fh.write(json.dumps(e.to_json_dict(), sort_keys=True) + "\n")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(entries: Sequence[CatalogEntry], fh: IO[str]) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_JSON_FIELDS)
    for e in entries:
        row = e.to_json_dict()
        writer.writerow([_csv_cell(row[k]) for k in _JSON_FIELDS])
