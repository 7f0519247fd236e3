"""Command-line driver: verification campaigns, violation demo, truth table.

Subcommands
-----------
``verify``          random-state campaigns for one inequality suite
``counterexample``  the explicit joint-extension violation demo
``table1``          the summary truth table (SSA / triangle / MONO-SSA)

Reports are JSON (default) or CSV with a fixed schema; identical
``(config, seed)`` pairs produce byte-identical reports under a fixed BLAS
thread count (``OPENBLAS_NUM_THREADS``).  Only that thread count, at n >= 8,
still moves report bytes: LAPACK splits some factorizations by thread count,
which moves gaps in their last bits.  The ``counterexample`` recipe does not
depend on the eigensolver: its default odd vectors are written in closed form.
Exit codes:
0 = success / expected outcome, 1 = unexpected mathematical violation,
2 = usage error, an ``--output`` that cannot be written included.
Environment: ``CARENTROPY_OUTDIR`` is prepended to relative ``--output``
paths.

The argument parser is built once per process, on the first :func:`main`
call, and reused by every later call in the same process.  :func:`main`
checks the arguments and builds one :class:`RunConfig`, whose ``regions``
are :class:`Region` values, for the command it runs; each command renders
its report as one text and writes it once, through :func:`_emit`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .car_algebra import Region, build_context
from .counterexamples import violation_demo
from .errors import CarError
from .inequalities import InequalityReport, inequality_report
from .states import random_state, tracial_state
from .tolerances import HOLD_TOL

__all__ = ["main", "RunConfig", "cmd_verify", "cmd_counterexample", "cmd_table1"]

SUITES = ("ssa", "triangle", "mono-ssa", "all")
MAX_VIOLATION_MAGNITUDE = 2.0 * math.log(2.0)  # proved for every state: see carentropy.inequalities
# table1's rows: (name, verify suite, even states, gap kind) for the campaigns
# and (name, gap kind, expected verdict) for the counterexample state, whose
# verdicts also set the exit code of the counterexample command
TABLE1_CAMPAIGNS = (
    ("ssa_all_states", "ssa", False, "ssa"),
    ("triangle_even_states", "triangle", True, "triangle"),
    ("mono_ssa_even_states", "mono-ssa", True, "mono_ssa"),
)
TABLE1_COUNTEREXAMPLE = (
    ("triangle_noneven_counterexample", "triangle", "violated"),
    ("mono_ssa_noneven_counterexample", "mono_ssa", "violated"),
    ("ssa_on_counterexample_state", "ssa", "holds"),
)


@dataclass(frozen=True)
class RunConfig:
    command: str
    sites: int
    trials: int
    seed: int
    output_format: str
    output_path: str | None
    suite: str | None = None
    even: bool = False
    regions: dict[str, Region] | None = None
    rhoJ: str | None = None


def _parse_region(text: str) -> Region:
    try:
        sites = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CarError(f"bad region spec {text!r}: {exc}") from None
    return Region.of(*sites)


def _emit(text: str, path: str | None) -> None:
    """Write a command's report to stdout (no path or ``-``) or to ``path``,
    under ``CARENTROPY_OUTDIR`` when it is set and ``path`` is relative."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    path = os.path.join(os.environ.get("CARENTROPY_OUTDIR", ""), path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_payload(config: RunConfig) -> dict:
    # output_path is where the report goes, not part of what it says;
    # keeping it out makes reruns byte-identical regardless of destination.
    payload = {k: v for k, v in vars(config).items() if v is not None and k != "output_path"}
    if config.regions:
        payload["regions"] = {name: region.sites for name, region in config.regions.items()}
    return payload


CSV_HEADER = [
    "trial", "seed", "sites", "I", "J", "K", "parity",
    "ssa_gap", "triangle_gap", "mono_ssa_gap",
    "ssa_verdict", "triangle_verdict", "mono_ssa_verdict",
]


def _csv_text(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: row.get(key, "") for key in CSV_HEADER})
    return buf.getvalue()


def _random_subset(rng: np.random.Generator, pool: list[int], size: int) -> Region:
    picked = rng.choice(np.array(pool), size=size, replace=False)
    return Region.of(*picked)


def _trial_regions(rng: np.random.Generator, n: int, suite: str) -> dict[str, Region]:
    """Sample trial regions; disjoint I, J (+K) except the ssa suite, where overlap is fair game."""
    sites = list(range(1, n + 1))
    if suite == "ssa":
        size_i = int(rng.integers(1, n))
        size_j = int(rng.integers(1, n))
        return {"I": _random_subset(rng, sites, size_i), "J": _random_subset(rng, sites, size_j)}
    perm = [int(x) for x in rng.permutation(np.array(sites))]
    reserve = 1 if suite == "mono-ssa" else 0  # keep a site free for K
    max_i = n - 1 - reserve
    size_i = 1 if max_i <= 1 else int(rng.integers(1, max_i + 1))
    max_j = n - size_i - reserve
    size_j = 1 if max_j <= 1 else int(rng.integers(1, max_j + 1))
    out = {
        "I": Region.of(*perm[:size_i]),
        "J": Region.of(*perm[size_i:size_i + size_j]),
    }
    rest = perm[size_i + size_j:]
    if rest:
        size_k = int(rng.integers(1, len(rest) + 1))
        out["K"] = Region.of(*rest[:size_k])
    return out


def _report_row(config: RunConfig, index: int, report: InequalityReport) -> dict:
    """One trial row: the report's regions, parity, gaps and verdicts."""
    row = {"trial": index, "seed": config.seed, "sites": config.sites}
    for name in ("I", "J", "K"):
        row[name] = ",".join(map(str, report.regions.get(name, ())))
    row["parity"] = "even" if report.even_state else "noneven"
    for kind in ("ssa", "triangle", "mono_ssa"):
        row[f"{kind}_gap"] = getattr(report, f"{kind}_gap")
        row[f"{kind}_verdict"] = report.verdicts.get(kind, "")
    return row


def _unexpected_violations(config: RunConfig, rows: list[dict]) -> list[str]:
    """SSA must never fail; even-state suites must never fail; no state
    violates the triangle or MONO-SSA inequality by more than 2 ln 2."""
    problems = []
    for row in rows:
        if row["ssa_verdict"] == "violated":
            problems.append(f"trial {row['trial']}: ssa violated ({row['ssa_gap']:.3e})")
        for kind in ("triangle", "mono_ssa"):
            gap = row[f"{kind}_gap"]
            if config.even and row[f"{kind}_verdict"] == "violated":
                problems.append(
                    f"trial {row['trial']}: {kind} violated for an even state ({gap:.3e})"
                )
            if gap is not None and -gap > MAX_VIOLATION_MAGNITUDE + HOLD_TOL:
                problems.append(
                    f"trial {row['trial']}: {kind} violation exceeds 2 ln 2 ({gap:.3e})"
                )
    return problems


def _run_suite(config: RunConfig) -> tuple[list[dict], dict]:
    ctx = build_context(config.sites)
    rows = []
    for index, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.trials)):
        rng = np.random.default_rng(child)
        regions = config.regions or _trial_regions(rng, config.sites, config.suite)
        rank = int(rng.integers(1, ctx.dim + 1))
        state = random_state(
            ctx, ctx.lattice, even=config.even, rank=rank, seed=rng.integers(0, 2 ** 63)
        )
        report = inequality_report(state, regions["I"], regions["J"], regions.get("K"))
        rows.append(_report_row(config, index, report))

    summary: dict = {"trials": config.trials}
    for kind in ("ssa", "triangle", "mono_ssa"):
        gaps = [r[f"{kind}_gap"] for r in rows if r[f"{kind}_gap"] is not None]
        if not gaps:
            continue
        violations = sum(1 for r in rows if r[f"{kind}_verdict"] == "violated")
        summary[kind] = {
            "evaluated": len(gaps),
            "min_gap": min(gaps),
            "max_gap": max(gaps),
            "violations": violations,
        }
    return rows, summary


def cmd_verify(config: RunConfig) -> int:
    rows, summary = _run_suite(config)
    problems = _unexpected_violations(config, rows)
    if config.output_format == "csv":
        text = _csv_text(rows)
    else:
        text = _json_text({
            "config": _config_payload(config),
            "summary": summary,
            "unexpected": problems,
            "trials": rows,
        })
    _emit(text, config.output_path)
    return 1 if problems else 0


def _complex_matrix_payload(mat: np.ndarray) -> dict:
    return {
        "re": [[round(x, 12) for x in row] for row in mat.real.tolist()],
        "im": [[round(x, 12) for x in row] for row in mat.imag.tolist()],
    }


def cmd_counterexample(config: RunConfig) -> int:
    ctx = build_context(config.sites)
    K, I, J = config.regions["K"], config.regions["I"], config.regions["J"]
    if config.rhoJ == "random":
        rho_j = random_state(ctx, J, even=True, seed=config.seed)
    else:
        rho_j = tracial_state(ctx, J)
    report = violation_demo(ctx, K, I, J, rhoJ=rho_j)
    if config.output_format == "csv":
        text = _csv_text([_report_row(config, 0, report)])
    else:
        recipe = report.recipe
        text = _json_text({
            "config": _config_payload(config),
            "regions": {k: list(v) for k, v in report.regions.items()},
            "entropies": report.entropies,
            "gaps": {
                "mono_ssa": report.mono_ssa_gap,
                "triangle": report.triangle_gap,
                "ssa": report.ssa_gap,
            },
            "verdicts": report.verdicts,
            "residuals": report.residuals,
            "recipe": {
                "rho1_density": _complex_matrix_payload(recipe.rho1.intrinsic()),
                "rho2_tilde_density": _complex_matrix_payload(recipe.rho2_tilde.intrinsic()),
                "rho2_density": _complex_matrix_payload(recipe.rho2.intrinsic()),
                "rhoJ_density": _complex_matrix_payload(rho_j.intrinsic()),
                "u1_is_region_parity_unitary": True,
            },
        })
    _emit(text, config.output_path)
    expected = all(report.verdicts[kind] == verdict for _, kind, verdict in TABLE1_COUNTEREXAMPLE)
    return 0 if expected else 1


def cmd_table1(config: RunConfig) -> int:
    """Run the six suites behind the truth table and render its CAR column."""
    suites: dict[str, dict] = {}
    children = np.random.SeedSequence(config.seed).spawn(3)
    for (name, suite, even, kind), child in zip(TABLE1_CAMPAIGNS, children, strict=True):
        seed = int(child.generate_state(1)[0] % (2 ** 31))
        stats = _run_suite(replace(config, seed=seed, suite=suite, even=even))[1][kind]
        suites[name] = {"stats": stats, "conforms": stats["violations"] == 0}

    ctx = build_context(config.sites)
    demo = violation_demo(ctx, Region((2,)), Region((1,)), Region((3,)))
    for name, kind, verdict in TABLE1_COUNTEREXAMPLE:
        suites[name] = {
            "stats": {"gap": getattr(demo, f"{kind}_gap")},
            "conforms": demo.verdicts[kind] == verdict,
        }
    all_ok = all(entry["conforms"] for entry in suites.values())
    cells = {
        "SSA": "holds",
        "Triangle": "violated in general, holds for every even state",
        "MONO-SSA": "violated in general, holds for every even state",
    }

    if config.output_format == "json":
        text = _json_text({
            "config": _config_payload(config),
            "cells": cells,
            "suites": suites,
            "conforms": all_ok,
        })
    elif config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "conforms", "stats"])
        for name, entry in sorted(suites.items()):
            writer.writerow([name, entry["conforms"], json.dumps(entry["stats"], sort_keys=True)])
        text = buf.getvalue()
    else:
        lines = ["Property    CAR lattice verdict", "-" * 72]
        for prop, cell in cells.items():
            lines.append(f"{prop:<11} {cell}")
        lines.append("")
        for name, entry in suites.items():
            status = "ok" if entry["conforms"] else "FAILED"
            lines.append(f"  [{status}] {name}: {json.dumps(entry['stats'], sort_keys=True)}")
        text = "\n".join(lines) + "\n"
    _emit(text, config.output_path)
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``carentropy`` parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="carentropy",
        description="Entropy inequality campaigns on finite CAR lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sites", type=int, default=3, help="lattice size n")
    common.add_argument("--seed", type=int, default=7, help="master seed (default 7)")
    common.add_argument("--output", default=None, help="report path ('-' = stdout)")

    def command(name: str, help_text: str, formats: tuple[str, ...]) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, parents=[common], help=help_text)
        cmd.add_argument("--format", choices=formats, default="json", dest="output_format")
        return cmd

    # each command also sets the RunConfig fields it does not read
    verify = command("verify", "random-state campaigns", ("json", "csv"))
    verify.set_defaults(rhoJ=None)
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--even", action="store_true", help="restrict to even states")
    for name in ("I", "J", "K"):
        verify.add_argument(f"--{name}", default=None, help="fixed region, e.g. 1,2")

    counter = command("counterexample", "joint-extension violation demo", ("json", "csv"))
    counter.set_defaults(trials=1, suite=None, even=False)
    counter.add_argument("--K", default="2")
    counter.add_argument("--I", default="1")
    counter.add_argument("--J", default="3")
    counter.add_argument("--rhoJ", choices=["tracial", "random"], default="tracial")

    table = command("table1", "summary truth table", ("json", "csv", "text"))
    table.set_defaults(suite=None, even=False, rhoJ=None)
    table.add_argument("--trials", type=int, default=200)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.command == "table1" and args.sites < 3:
        parser.error("table1 runs the mono-ssa suite, which needs at least 3 sites")

    try:
        regions, sites = {}, args.sites
        if args.command == "verify":
            if args.sites < 2:
                parser.error("verify needs at least 2 sites")
            if args.suite == "mono-ssa" and args.sites < 3:
                parser.error("the mono-ssa suite needs three disjoint regions (>= 3 sites)")
            texts = {name: getattr(args, name) for name in ("I", "J", "K")}
            regions = {name: _parse_region(text) for name, text in texts.items() if text is not None}
            if regions and not {"I", "J"} <= set(regions):
                parser.error("fixed regions require at least --I and --J")
            # fixed regions must leave the chosen suite its own gap to evaluate
            if regions:
                I, J = regions["I"], regions["J"]
                if not regions.get("K", Region()).isdisjoint(I.union(J)):
                    parser.error("a fixed --K must be disjoint from --I and --J")
                if args.suite != "ssa" and not I.isdisjoint(J):
                    parser.error(f"--suite {args.suite} needs disjoint --I and --J")
                if args.suite == "mono-ssa" and "K" not in regions:
                    parser.error("the mono-ssa suite needs a --K")
        elif args.command == "counterexample":
            K = _parse_region(args.K)
            I = _parse_region(args.I)
            for name, region in (("K", K), ("I", I)):
                if not region.sites:
                    parser.error(f"--{name} must name at least one site")
            J = _parse_region(args.J)
            if not (K.isdisjoint(I) and K.isdisjoint(J) and I.isdisjoint(J)):
                parser.error("regions K, I, J must be mutually disjoint")
            regions = {"K": K, "I": I, "J": J}
            sites = max(args.sites, max(K.sites + I.sites + J.sites))
        config = RunConfig(
            command=args.command, sites=sites, trials=args.trials, seed=args.seed,
            output_format=args.output_format, output_path=args.output,
            suite=args.suite, even=args.even, regions=regions or None, rhoJ=args.rhoJ,
        )
        run = {"verify": cmd_verify, "counterexample": cmd_counterexample, "table1": cmd_table1}
        return run[args.command](config)
    except ValueError as exc:  # a CarError, or numpy's refusal of an argument passed through
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
