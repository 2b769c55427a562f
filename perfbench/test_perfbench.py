"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from layertrace import Tracer  # noqa: E402

cdalg = worker.import_cdalg()
import cdalg.cli as cli  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL_SEARCH = [
    ("search", "-n", "3", "--family", "basis_pairs", "--max-index", "2",
     "--format", "json"),
    ("search", "-n", "3", "--family", "random_rational", "--count", "2",
     "--seed", "5", "--format", "json"),
    # a non-alternative pair: the catalog's fallback path
    ("search", "-n", "4", "--family", "random_rational", "--count", "1",
     "--seed", "1", "--format", "json"),
]
SMALL_OTHER = [
    ("decompose", "-n", "4", "--format", "json", "--", "e1+e10"),
    ("verify", "--suite", "core_identities", "-n", "4", "--trials", "2",
     "--seed", "3"),
]


def _kind(argv):
    # the op kind: the argv without its seeded operand
    if argv[0] == "decompose":
        text = argv[-1]
        return argv[:3] + ("dense" if text.count("e") > 6 else "sparse",)
    return tuple(a for i, a in enumerate(argv) if i == 0 or argv[i - 1] != "--seed")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_lists_are_deterministic_per_seed(workload):
    first = workloads.cycles(workload, 7)
    assert first == workloads.cycles(workload, 7)
    assert first != workloads.cycles(workload, 8)
    assert len(first) == workloads.CYCLES


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    mixes = {frozenset(Counter(map(_kind, c)).items())
             for c in workloads.cycles(workload, 3)[::2]}
    assert len(mixes) == 1


def test_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.UNITS
    for m in SPEC["per_layer"]:
        assert run.LAYER_UNITS[m["name"].rsplit(".", 1)[1]] == m["unit"]
    mapped = {n for group in json.loads((HERE / "layers.json").read_text())["map"]
              for n in group["per_layer"]}
    assert mapped == {m["name"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_references_cover_the_default_seed():
    refs = check.load_references()
    for workload in workloads.WORKLOADS:
        for cycle in workloads.cycles(workload, workloads.DEFAULT_SEED):
            for argv in cycle:
                assert " ".join(argv) in refs[workload]


def test_traced_stdout_is_identical_and_counts_match_work():
    ops = SMALL_SEARCH + SMALL_OTHER
    checker = worker.Checker({})
    plain = worker.run_ops(cli, ops, checker)
    tracer = Tracer()
    traced = worker.run_ops(cli, ops, checker, tracer)
    traced.tracer = tracer
    assert traced.stdouts == plain.stdouts
    assert plain.failed == traced.failed == 0 and not checker.failures
    pairs = plain.facts["entries"]
    assert pairs == 4
    metrics, _ = worker.layer_metrics([plain], [traced])
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["structure.zero_divisor_test.calls"] == pairs
    assert metrics["catalog.fallback_frac"] == 1 / pairs
    stats = tracer.stats
    assert stats["structure.zero_divisor_test"].calls == pairs
    assert stats["cli.main"].calls == len(ops)
    assert stats["structure.decompose"].calls == 1
    assert stats["linalg.symmetric_eigen_float"].calls == 1
    assert stats["linalg.nullspace"].calls > 0 and tracer.nullspace_max_bits > 0
    assert stats["algebra.mul"].calls > 0
    for name, st in stats.items():
        assert st.self_s <= st.total_s + 1e-9, name


def test_tracer_restores_every_binding():
    from cdalg import linalg, structure
    from cdalg.algebra import Element
    mul, nullspace = Element.__mul__, linalg.nullspace
    with Tracer():
        assert structure.nullspace is not nullspace
        assert cdalg.nullspace is not nullspace
        assert Element.__mul__ is not mul
    assert structure.nullspace is nullspace and cdalg.nullspace is nullspace
    assert Element.__mul__ is mul


def test_checks_accept_real_output_and_reject_a_bad_witness():
    argv = SMALL_SEARCH[0]
    res = worker.run_op(cli, argv)[1]
    items, facts = check.check(argv, res, {})
    assert items == 1 and facts["zds"] == 1
    entry = json.loads(res.stdout)
    entry["witness_y"] = entry["witness_y"] + "+e7"
    bad = check.OpResult(0, json.dumps(entry, sort_keys=True) + "\n", res.stderr)
    with pytest.raises(ValueError, match="witness"):
        check.check(argv, bad, {})


def test_checks_reject_reference_and_invariant_violations():
    argv = SMALL_OTHER[0]
    res = worker.run_op(cli, argv)[1]
    ref = {" ".join(argv): check.reference_of(argv, res)}
    assert check.check(argv, res, ref) == (1, {})
    shifted = res.stdout.replace('"lambda_sq": 2.0', '"lambda_sq": 2.00001')
    with pytest.raises(ValueError, match="reference"):
        check.check(argv, check.OpResult(0, shifted, ""), ref)
    verify = SMALL_OTHER[1]
    res = worker.run_op(cli, verify)[1]
    assert check.check(verify, res, {})[0] > 0
    failing = res.stdout.replace("PASS", "FAIL", 1)
    with pytest.raises(ValueError, match="non-PASS"):
        check.check(verify, check.OpResult(0, failing, ""), {})


def test_oracle_product_matches_known_zero_product():
    a = check.parse_coords("e1+e10", 4)
    b = check.parse_coords("e15-e4", 4)
    assert not any(check.oracle_mul(a, b))
    assert check.parse_coords("-3/2*e1+2", 2) == (2, -1.5, 0, 0)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zd_search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
