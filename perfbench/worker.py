"""Child process of the benchmark: runs one workload in a fresh interpreter.

    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE
        run the workload closed-loop (one caller, ops back to back) through
        cdalg.cli.main and print one JSON object with the measurements
    python3 perfbench/worker.py record
        check every op of each workload's default-seed op list and write
        their outputs to reference.json

run.py starts it with BLAS and OpenMP pools pinned to one thread.
"""

import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import workloads
from check import (REFERENCE_PATH, OpResult, check, load_references,
                   oracle_mul, reference_of)
from layertrace import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_cdalg():
    """Import cdalg from this checkout's src/, refusing any other copy."""
    if not (SRC / "cdalg" / "__init__.py").is_file():
        raise SystemExit(f"no cdalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cdalg
    if Path(cdalg.__file__).resolve().parent != (SRC / "cdalg").resolve():
        raise SystemExit(f"imported cdalg from {cdalg.__file__}, not {SRC}")
    return cdalg


# Timings are reported at a reference machine speed.  On a shared 2-vCPU VM
# (Xeon, 2.0 GHz) other tenants slowed every pure-Python loop by up to 2x
# for seconds to minutes at a time.  A fixed pure-Python job that shares no
# code with cdalg (check.oracle_mul on two level-4 rationals) is timed just
# before and just after each op; it slows with the machine, so each op's
# seconds are scaled by REF_CAL_S / (the job's mean time).  REF_CAL_S is the
# job's time on that VM when quiet.  Raw seconds are reported as info.
REF_CAL_S = 1.3e-3


_CAL_X = tuple(Fraction(i % 7 - 3, 1 + i % 3) for i in range(16))
_CAL_Y = tuple(Fraction(i % 5 - 2, 1 + i % 2) for i in range(16))


def calibration_s(reps: int = 5) -> float:
    """Median seconds of the calibration job."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        oracle_mul(_CAL_X, _CAL_Y)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def warm_levels(cdalg, levels) -> None:
    """One product per level: pays any lazy per-level set-up."""
    for level in levels:
        e = cdalg.Element.basis(level, 1)
        e * cdalg.Element.basis(level, 2)


def run_op(cli, argv):
    """One CLI invocation with captured streams; returns (seconds, result)."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # any crash is a failed op, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return dt, OpResult(rc, out.getvalue(), err.getvalue(), error)


def _fingerprint(argv, res) -> object:
    # numpy prints a RuntimeWarning only once per process, so decompose's
    # stderr differs between repeats of one op
    if argv[0] == "decompose":
        return res.rc, res.error, res.stdout
    return res.digest()


class Checker:
    """Checks each distinct invocation in full once; repeats of it must give
    the same output."""

    def __init__(self, references):
        self.references = references
        self.seen = {}
        self.failures = []

    def __call__(self, argv, res):
        """(items, facts) for a correct op, None for a failed one."""
        key = " ".join(argv)
        try:
            if key in self.seen:
                fingerprint, got = self.seen[key]
                if _fingerprint(argv, res) != fingerprint:
                    raise ValueError("output differs from an earlier run of the same op")
                return got
            got = check(argv, res, self.references)
        except Exception as exc:  # a wrong output is a failed op, not a failed run
            self.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            return None
        self.seen[key] = (_fingerprint(argv, res), got)
        return got


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run_ops(cli, ops, checker, tracer=None) -> SimpleNamespace:
    """Run ops back to back, calibrating before the first op and after each
    one; each op's scaled seconds use the calibrations on either side."""
    cals = [calibration_s()]
    raw, stdouts, items, failed = [], [], 0, 0
    facts = Counter()
    for argv in ops:
        with tracer or contextlib.nullcontext():
            dt, res = run_op(cli, argv)
        cals.append(calibration_s())
        raw.append(dt)
        stdouts.append(res.stdout)
        got = checker(argv, res)
        if got is None:
            failed += 1
        else:
            items += got[0]
            facts.update(got[1])
    scaled = [2 * dt * REF_CAL_S / (c0 + c1)
              for dt, c0, c1 in zip(raw, cals, cals[1:])]
    return SimpleNamespace(raw=raw, scaled=scaled, cals=cals, stdouts=stdouts,
                           items=items, failed=failed, facts=facts)


def timed_run(cli, op_cycles, seconds, checker):
    """Whole cycles, closed loop, until the next cycle would end after the
    deadline (at least one cycle).  Time counts only the op calls."""
    raw, scaled, cals, items, failed = [], [], [], 0, 0
    n = 0
    while True:
        r = run_ops(cli, op_cycles[n % len(op_cycles)], checker)
        raw += r.raw
        scaled += r.scaled
        cals += r.cals
        items += r.items
        failed += r.failed
        n += 1
        busy = sum(raw)
        if busy + busy / n > seconds:
            break
    # the highest percentile up to p90 that keeps ten samples above it
    q = min(0.90, max(0.5, 1 - 10 / len(raw)))

    def summary(lat):
        s = sorted(lat)
        return (items / sum(s), 1000 * statistics.median(s),
                1000 * _percentile(s, q))

    items_per_s, p50, p90 = summary(scaled)
    raw_items_per_s, raw_p50, raw_p90 = summary(raw)
    return {
        "metrics": {
            "items_per_s": items_per_s, "op_p50_ms": p50, "op_p90_ms": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "info": {
            "cycles": n, "samples": len(raw), "p90_quantile": q, "items": items,
            "busy_s": busy, "raw_items_per_s": raw_items_per_s,
            "raw_op_p50_ms": raw_p50, "raw_op_p90_ms": raw_p90,
            "calibration_ms": 1000 * statistics.median(cals),
        },
        "attempted": len(raw),
        "failed": failed,
    }


def traced_run(cli, ops, seconds, checker):
    """Alternate untraced and traced passes over the same ops until the
    deadline (at least one pair).  Counts come from the first traced pass;
    times are scaled medians over the traced passes."""
    plain, traced = [], []
    attempted = failed = 0
    spent = 0.0
    while not traced or spent < seconds:
        p = run_ops(cli, ops, checker)
        tracer = Tracer()
        t = run_ops(cli, ops, checker, tracer)
        t.tracer = tracer
        for argv, a, b in zip(ops, p.stdouts, t.stdouts):
            if a != b:
                checker.failures.append(f"{' '.join(argv)}: traced stdout differs")
                t.failed += 1
        plain.append(p)
        traced.append(t)
        attempted += 2 * len(ops)
        failed += p.failed + t.failed
        spent += sum(p.raw) + sum(t.raw)
    return layer_metrics(plain, traced), attempted, failed


def layer_metrics(plain, traced):
    first = traced[0]
    stats, items, facts = first.tracer.stats, first.items, first.facts

    def med(name, field):
        # each pass's seconds scaled like the end-to-end timings
        return statistics.median(
            getattr(t.tracer.stats[name], field) * REF_CAL_S / statistics.median(t.cals)
            for t in traced)

    def calls(name):
        return stats[name].calls

    per_item = (lambda n: n / items) if items else (lambda n: 0.0)
    entries = facts["entries"]
    untraced_s = statistics.median(sum(p.scaled) for p in plain)
    traced_s = statistics.median(sum(t.scaled) for t in traced)
    m = {
        "algebra.mul.calls": calls("algebra.mul"),
        "algebra.mul.self_s": med("algebra.mul", "self_s"),
        "algebra.mul.calls_per_item": per_item(calls("algebra.mul")),
        "algebra.is_alternative.calls": calls("algebra.is_alternative"),
        "algebra.is_alternative.total_s": med("algebra.is_alternative", "total_s"),
        "algebra.is_alternative.calls_per_item": per_item(calls("algebra.is_alternative")),
        "algebra.text.self_s": med("algebra.text", "self_s"),
        "linalg.mult_matrix.calls": calls("linalg.mult_matrix"),
        "linalg.mult_matrix.total_s": med("linalg.mult_matrix", "total_s"),
        "linalg.mat_mul.calls": calls("linalg.mat_mul"),
        "linalg.mat_mul.self_s": med("linalg.mat_mul", "self_s"),
        "linalg.nullspace.calls": calls("linalg.nullspace"),
        "linalg.nullspace.self_s": med("linalg.nullspace", "self_s"),
        "linalg.nullspace.max_input_bits": first.tracer.nullspace_max_bits,
        "linalg.rref_rows.self_s": med("linalg.rref_rows", "self_s"),
        "linalg.eigen_kernel.calls": calls("linalg.eigen_kernel"),
        "linalg.symmetric_eigen_float.calls": calls("linalg.symmetric_eigen_float"),
        "linalg.symmetric_eigen_float.self_s": med("linalg.symmetric_eigen_float", "self_s"),
        "linalg.symmetric_eigen_float.warnings": first.tracer.eigen_warnings,
        "structure.zero_divisor_test.calls": calls("structure.zero_divisor_test"),
        "structure.zero_divisor_test.self_s": med("structure.zero_divisor_test", "self_s"),
        "structure.zero_divisor_test.total_s": med("structure.zero_divisor_test", "total_s"),
        "structure.couple_failure.calls": calls("structure.couple_failure"),
        "structure.special_zd_verdict.total_s": med("structure.special_zd_verdict", "total_s"),
        "structure.decompose.total_s": med("structure.decompose", "total_s"),
        "structure.decompose.self_s": med("structure.decompose", "self_s"),
        "structure.annihilator.total_s": med("structure.annihilator", "total_s"),
        "catalog.run_catalog.self_s": med("catalog.run_catalog", "self_s"),
        "catalog.write.self_s": med("catalog.write", "self_s"),
        "catalog.fallback_frac": facts["fallback"] / entries if entries else 0.0,
        "catalog.zd_frac": facts["zds"] / entries if entries else 0.0,
        "cli.main.self_s": med("cli.main", "self_s"),
        "trace.overhead_frac": traced_s / untraced_s - 1,
    }
    info = {"items": items, "ops": len(first.raw), "traced_passes": len(traced),
            "untraced_pass_s": untraced_s, "traced_pass_s": traced_s}
    return m, info


def main(argv):
    cdalg = import_cdalg()
    import cdalg.cli as cli

    if argv[0] == "record":
        refs = {}
        for workload in workloads.WORKLOADS:
            wrefs = refs[workload] = {}
            for cycle in workloads.cycles(workload, workloads.DEFAULT_SEED):
                for op in cycle:
                    key = " ".join(op)
                    if key not in wrefs:
                        _, res = run_op(cli, op)
                        check(op, res, {})
                        wrefs[key] = reference_of(op, res)
        REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        return 0

    workload, seed, seconds, trace = argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    op_cycles = workloads.cycles(workload, seed)
    warm_levels(cdalg, workloads.LEVELS[workload])
    checker = Checker(load_references().get(workload, {}))
    if trace:
        (metrics, info), attempted, failed = traced_run(
            cli, op_cycles[0] + op_cycles[1], seconds, checker)
        out = {"metrics": metrics, "info": info,
               "attempted": attempted, "failed": failed}
    else:
        out = timed_run(cli, op_cycles, seconds, checker)
    out["failures"] = checker.failures[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
