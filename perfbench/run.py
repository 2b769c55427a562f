"""The cdalg benchmark: one workload, closed loop, through `cdalg.cli.main`.

    python3 perfbench/run.py --workload zd_search --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  With --trace 0 it prints the
end-to-end metrics (setup_s, items_per_s, op_p50_ms, op_p90_ms,
peak_rss_mb, ok_frac); with --trace 1 the per-layer metrics of a separate
traced run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Every workload runs in a fresh
child interpreter with BLAS and OpenMP pools pinned to one thread;
set-up time is the median of several fresh-interpreter starts.  Timings
are scaled to a reference machine speed (see worker.REF_CAL_S); the raw
ones are printed on the info and setup_starts lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import REF_CAL_S, calibration_s  # noqa: E402

SETUP_STARTS = 9
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_frac": "fraction",
}
LAYER_UNITS = {"calls": "count", "calls_per_item": "count/item", "self_s": "s",
               "total_s": "s", "max_input_bits": "bits", "warnings": "count",
               "fallback_frac": "fraction", "zd_frac": "fraction",
               "overhead_frac": "fraction"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def child(script: str, *args: str, timeout: float) -> str:
    """Run a script of this directory in a fresh interpreter; return the last
    line it printed."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{script} {' '.join(args)} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(workload: str) -> list:
    """(scaled, raw) seconds of SETUP_STARTS fresh starts; each start is
    scaled by the calibrations this process makes just before and after it."""
    levels = [str(n) for n in workloads.LEVELS[workload]]
    starts, before = [], calibration_s()
    for _ in range(SETUP_STARTS):
        raw = float(child("setup_probe.py", str(ROOT / "src"), *levels, timeout=60))
        after = calibration_s()
        starts.append((2 * raw * REF_CAL_S / (before + after), raw))
        before = after
    return starts


def machine_block() -> dict:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10).stdout.split() or ("", "")
    except (OSError, subprocess.SubprocessError, ValueError):
        top = sha = ""
    if Path(top or "/nonexistent").resolve() != ROOT:
        sha = ""  # not a checkout of its own, or inside another repository
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        env=child_env(), capture_output=True, text=True, timeout=60).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_sha": sha or "unknown", "threads": THREAD_ENV,
            "load": "closed loop, 1 caller, no think time"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cdalg" / "__init__.py").is_file():
        print(f"no cdalg sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))
    setups = [] if args.trace else setup_seconds(args.workload)
    raw = json.loads(child("worker.py", "run", args.workload, str(args.seed),
                           str(args.seconds), str(args.trace),
                           timeout=args.seconds + 120))
    for failure in raw["failures"]:
        print(f"FAILED {failure}")
    print("info " + json.dumps(raw["info"], sort_keys=True))

    attempted, failed = raw["attempted"], raw["failed"]
    values = dict(raw["metrics"])
    if args.trace:
        units = {k: LAYER_UNITS[k.rsplit(".", 1)[1]] for k in values}
    else:
        print("setup_starts (scaled s, raw s) " + json.dumps(setups))
        values["setup_s"] = statistics.median(scaled for scaled, _ in setups)
        values["ok_frac"] = (attempted - failed) / attempted
        units = UNITS
    for name, value in values.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
