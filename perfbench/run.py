"""Benchmark of the carentropy package: entropy campaigns, the counterexample
CLI and symmetric purification, end to end and per module.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_n5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every run starts the workload in a fresh interpreter (``worker.py``) that
imports the package from ``src/``.  A run executes a fixed number of ops,
``max(MIN_OPS, RATE * seconds)``, so that its ops take about ``--seconds``
on the machine ``RATES`` were measured on and every count repeats exactly for
a given seed.

``--trace 0`` reports the end-to-end metrics.  ``wall_s`` is the sum of
the op latencies; the checks run outside the op timers and count in neither.
``setup_s`` is the minimum of the worker's own set-up and ``SETUP_PROBES``
extra fresh interpreters that only set up, half started before the worker
and half after it; the minimum is the sample least disturbed by other load
on the machine.  ``--trace 1`` runs the same ops untraced and then traced, and
reports the per-layer metrics with ``trace.overhead_ratio`` (traced
``wall_s`` over untraced ``wall_s``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run environment
and the per-run record (op count, failures, spans file) are printed above it
and written to ``perfbench/out/``.  The exit code is 1 when any op fails its
check and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

# Fixed sizing constants: ops per second of op time measured on a 2-core VM,
# so that a run's ops take about ``--seconds`` there.  The untimed checks add
# to a run's elapsed time, purify_n5's about half again.  A faster or slower
# program keeps the same ops.
RATES = {
    "campaign_n5": 250.0,
    "campaign_n4_even": 1000.0,
    "counterexample_n5": 6.0,
    "purify_n5": 650.0,
}
MIN_OPS = 100  # so that at least ten ops lie beyond the 90th percentile
SETUP_PROBES = 10
TIME_LIMIT_S = 170.0

UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
    "op_ms_p90": "ms", "peak_rss_mb": "MB", "error_rate": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an op failing its check)."""


def op_count(workload: str, seconds: int) -> int:
    return max(MIN_OPS, math.ceil(RATES[workload] * seconds))


def run_worker(workload, seed, ops, trace, tag, deadline, setup_only=False) -> dict:
    path = os.path.join(OUT, f"{workload}-{tag}.json")  # overwritten by the next run
    if os.path.exists(path):
        os.remove(path)
    env = {k: v for k, v in os.environ.items()
           if k not in ("CARENTROPY_OUTDIR", "CARENTROPY_SEED", "PYTHONPATH")}
    # One BLAS thread: on a 2-core machine whose other core is busy, a second
    # BLAS thread made ops 2-2.5 times slower, while on an idle machine one
    # thread is as fast as two.
    env["OPENBLAS_NUM_THREADS"] = "1"
    cmd = [sys.executable, WORKER, workload, str(seed), str(ops), str(int(trace)), path]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the time limit") from None
    if proc.returncode != 0 or not os.path.exists(path):
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{proc.stderr}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def probe(workload: str, seed: int, index: int, deadline: float) -> float:
    return run_worker(workload, seed, 0, False, f"probe{index}", deadline, True)["setup_s"]


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    lat_ms = sorted(x * 1000.0 for x in result["latencies"])
    passed = result["attempted"] - result["failed"]
    return {
        "setup_s": min(setups),
        "wall_s": result["wall_s"],
        "ops_per_s": passed / result["wall_s"],
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": result["failed"] / result["attempted"],
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    ops = op_count(workload, seconds)
    if not trace:
        # Probes before and after the workload, so set-up is sampled across the run.
        setups = [probe(workload, seed, i, deadline) for i in range(SETUP_PROBES // 2)]
        result = run_worker(workload, seed, ops, False, "trace0", deadline)
        setups.append(result["setup_s"])
        setups += [probe(workload, seed, i, deadline)
                   for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
        metrics = {k: (v, UNITS[k]) for k, v in end_to_end(result, setups).items()}
    else:
        plain = run_worker(workload, seed, ops, False, "untraced", deadline)
        result = run_worker(workload, seed, ops, True, "trace1", deadline)
        metrics = {k: tuple(v) for k, v in result["layers"].items()}
        metrics["trace.overhead_ratio"] = (result["wall_s"] / plain["wall_s"], "ratio")
        result["failed"] = max(result["failed"], plain["failed"])
        result["failures"] = result["failures"] or plain["failures"]
        result["oracle_checked"] = plain["oracle_checked"]
    return {
        "workload": workload,
        "ops": ops,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": result["failures"][:10],
        "metrics": metrics,
        "oracle_checked": result["oracle_checked"],
        "spans_path": os.path.relpath(result["spans_path"], ROOT) if trace else None,
        "env": result["env"],
        "setup_samples": setups if not trace else None,
    }


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git repository."""
    git_dir = os.path.join(ROOT, ".git")  # only this checkout, never a parent's
    if not os.path.exists(git_dir):
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_table(record: dict) -> None:
    print(f"{record['workload']}: {record['ops']} ops, {record['failed']} failed")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    for line in record["failures"]:
        print(f"  FAILED {line.strip()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*RATES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S * (len(RATES) if args.workload == "all" else 1)

    if not os.path.isfile(os.path.join(ROOT, "src", "carentropy", "__init__.py")):
        print(f"error: no carentropy package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = list(RATES) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            records.append(run_one(name, args.seed, args.seconds, bool(args.trace), deadline))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = dict(records[0]["env"], git_commit=git_commit(), seed=args.seed,
               seconds=args.seconds, trace=args.trace,
               ops={r["workload"]: r["ops"] for r in records})
    print("env: " + json.dumps(env, sort_keys=True))
    for record in records:
        print_table(record)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{tag}.record.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "records": records}, handle, indent=1)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": u}
                   for r in records for k, (v, u) in r["metrics"].items()}
    else:
        # error_rate is printed above; the result line carries it as failed/attempted.
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in records[0]["metrics"].items()
                   if k != "error_rate"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
