"""Candidate enumeration, catalog runs, and the persisted formats."""

import csv
import io
import json
import random

import pytest

from cdalg import catalog
from cdalg.algebra import (Element, LevelError, format_element, is_alternative,
                           parse_element)
from cdalg.catalog import (SCHEMA_VERSION, CandidateFamily, CatalogEntry,
                           _entry_for, alternative_pure_element,
                           enumerate_family, random_element,
                           random_special_couple, run_catalog, write_csv,
                           write_jsonl)
from cdalg.structure import couple_failure


def family(kind, level, **kw):
    return CandidateFamily(kind=kind, level=level, **kw)


# -- generators ------------------------------------------------------------------

def test_random_element_respects_flags():
    rng = random.Random(0)
    for _ in range(30):
        x = random_element(rng, 4, support=3, bound=5, pure=True)
        assert x.coords[0] == 0
        assert sum(1 for c in x.coords if c) <= 3
        assert all(abs(c) <= 5 and c.denominator == 1 for c in x.coords)
    for _ in range(30):
        x = random_element(rng, 4, doubly_pure=True)
        assert x.is_doubly_pure()
    for _ in range(30):
        x = random_element(rng, 3, rational=True, bound=4)
        assert all(c.denominator <= 4 for c in x.coords)


def test_random_element_deterministic():
    xs = [random_element(random.Random(9), 3) for _ in range(3)]
    assert xs[0] == xs[1] == xs[2]


def test_alternative_pure_element():
    for level in (2, 3, 4, 5):
        rng = random.Random(level)
        for _ in range(10):
            a = alternative_pure_element(rng, level)
            assert a.trace() == 0
            assert is_alternative(a)


def test_random_special_couple():
    for level in (2, 3, 4, 5):
        rng = random.Random(level * 3)
        for _ in range(6):
            a, b = random_special_couple(rng, level)
            assert couple_failure(a, b) is None


# -- enumeration -------------------------------------------------------------------

def test_basis_pairs_counts():
    assert len(list(enumerate_family(family("basis_pairs", 3)))) == 21
    assert len(list(enumerate_family(family("basis_pairs", 2)))) == 3
    assert len(list(enumerate_family(family("basis_pairs", 3, max_index=4)))) == 6
    assert list(enumerate_family(family("basis_pairs", 3, max_index=1))) == []
    assert list(enumerate_family(family("basis_pairs", 0))) == []


def test_basis_pair_ordering():
    pairs = list(enumerate_family(family("basis_pairs", 2)))
    names = [(format_element(a), format_element(b)) for a, b in pairs]
    assert names == [("e1", "e2"), ("e1", "e3"), ("e2", "e3")]


def test_basis_sum_pairs_doubly_pure():
    for a, b in enumerate_family(family("basis_sum_pairs", 3, max_index=5)):
        assert a.is_doubly_pure() and b.is_doubly_pure()
        assert format_element(a) <= format_element(b)
    count = len(list(enumerate_family(family("basis_sum_pairs", 3, max_index=3))))
    assert count == 15  # six two-term combinations, unordered pairs


def test_random_rational_stream_deterministic():
    fam = family("random_rational", 3, count=8, seed=42)
    first = [(format_element(a), format_element(b)) for a, b in enumerate_family(fam)]
    second = [(format_element(a), format_element(b)) for a, b in enumerate_family(fam)]
    assert first == second and len(first) == 8
    other = family("random_rational", 3, count=8, seed=43)
    assert first != [(format_element(a), format_element(b))
                     for a, b in enumerate_family(other)]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        list(enumerate_family(family("mystery", 3)))


# -- catalog runs --------------------------------------------------------------------

def test_octonion_basis_catalog():
    entries, summary = run_catalog(family("basis_pairs", 3))
    assert summary == {"entries": 21, "zero_divisors": 21,
                       "special_zds": 21, "criterion_mismatches": 0}
    for e in entries:
        assert e.is_zero_divisor and e.ker_dim == 4
        assert e.criterion_hit is True


def test_quaternion_level_has_no_divisors():
    entries, summary = run_catalog(family("basis_pairs", 2))
    assert summary["zero_divisors"] == 0
    assert all(not e.is_zero_divisor for e in entries)


def test_empty_family_zero_counts():
    entries, summary = run_catalog(family("basis_pairs", 3, max_index=1))
    assert entries == ()
    assert summary == {"entries": 0, "zero_divisors": 0,
                       "special_zds": 0, "criterion_mismatches": 0}


def test_witnesses_reannihilate():
    entries, _ = run_catalog(family("basis_pairs", 3))
    for e in entries:
        if not e.is_zero_divisor:
            continue
        a = parse_element(e.a_text, e.level)
        b = parse_element(e.b_text, e.level)
        x = parse_element(e.witness_x, e.level)
        y = parse_element(e.witness_y, e.level)
        assert not Element.pair(a, b) * Element.pair(x, y)


def test_random_rational_catalog_runs():
    entries, summary = run_catalog(family("random_rational", 3, count=12, seed=5))
    assert summary["entries"] == 12
    assert summary["criterion_mismatches"] == 0


def test_fallback_for_non_alternative_entries():
    # the introduction's pair has a non-alternative first entry, so the
    # eigenvalue criterion does not apply and the kernel is computed directly
    a = parse_element("e1+e10", 4)
    b = parse_element("e15-e4", 4)
    entry = _entry_for(a, b, "manual", 0)
    assert entry.criterion_hit is None
    assert entry.special_couple is False
    assert entry.ker_dim >= 0
    if entry.is_zero_divisor:
        x = parse_element(entry.witness_x, 4)
        y = parse_element(entry.witness_y, 4)
        assert not Element.pair(a, b) * Element.pair(x, y)


def test_only_precondition_failures_fall_back(monkeypatch):
    # any other ValueError is a fault of the run, not a non-alternative pair
    def broken(a, b):
        raise LevelError("levels do not match")
    monkeypatch.setattr(catalog, "zero_divisor_test", broken)
    with pytest.raises(LevelError):
        run_catalog(family("basis_pairs", 3, max_index=2))


# -- persistence ----------------------------------------------------------------------

def test_jsonl_format():
    entries, _ = run_catalog(family("basis_pairs", 3))
    buf = io.StringIO()
    write_jsonl(entries, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 21
    first = json.loads(lines[0])
    assert first == {
        "schema_version": SCHEMA_VERSION, "level": 3, "a": "e1", "b": "e2",
        "is_zero_divisor": True, "criterion_hit": True, "ker_dim": 4,
        "witness_x": "e7", "witness_y": "e4", "special_couple": True,
        "special_zd": True, "family": "basis_pairs", "index": 0,
    }
    # keys are sorted in the serialized text itself
    keys = list(json.loads(lines[0], object_pairs_hook=lambda kv: [k for k, _ in kv]))
    assert keys == sorted(keys)


def test_csv_format():
    entries, _ = run_catalog(family("basis_pairs", 2))
    buf = io.StringIO()
    write_csv(entries, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert rows[0] == ["schema_version", "level", "a", "b", "is_zero_divisor",
                       "criterion_hit", "ker_dim", "witness_x", "witness_y",
                       "special_couple", "special_zd", "family", "index"]
    assert rows[1][:7] == ["1", "2", "e1", "e2", "false", "false", "0"]
    assert rows[1][7] == "" and rows[1][8] == ""  # no witness for a non-divisor


def test_reruns_byte_identical():
    for kind, kw in (("basis_pairs", {}),
                     ("random_rational", {"count": 10, "seed": 3})):
        fam = family(kind, 3, **kw)
        outs = []
        for _ in range(2):
            entries, _ = run_catalog(fam)
            buf = io.StringIO()
            write_jsonl(entries, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]


def test_entry_round_trip_through_grammar():
    entries, _ = run_catalog(family("random_rational", 3, count=6, seed=8))
    for e in entries:
        a = parse_element(e.a_text, e.level)
        assert format_element(a) == e.a_text
