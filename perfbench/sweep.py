"""Run the benchmark over several seeds and summarize each metric.

Usage (from the repository root)::

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median), the
statistic the benchmark's bounds are checked against.  ``--out`` writes the
same summary, with the run environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import OUT, RATES, ROOT  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workloads", default=",".join(RATES))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    summary, env, ops = {}, None, {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}"
                      f"{proc.stdout[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            record_path = os.path.join(
                OUT, f"{workload}-seed{seed}-trace{args.trace}.record.json")
            with open(record_path, encoding="utf-8") as handle:
                env = json.load(handle)["env"]
            ops[workload] = env["ops"][workload]
        summary[workload] = {}
        print(f"{workload}: {ops[workload]} ops per run")
        for name, vals in values.items():
            stats = dict(summarize(vals), unit=units[name])
            summary[workload][name] = stats
            spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(f"  {name:<44} median {stats['median']:>12.6g} {units[name]:<6}"
                  f" q1 {stats['q1']:>10.5g}  q3 {stats['q3']:>10.5g}  spread {spread}")
        sys.stdout.flush()

    if args.out:
        env = {k: v for k, v in (env or {}).items() if k not in ("seed", "ops")}
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seed_list(args.seeds), "seconds": args.seconds,
                       "trace": args.trace, "env": env, "ops": ops, "workloads": summary},
                      handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
