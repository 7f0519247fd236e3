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
call, and reused by every later call in the same process.
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
from dataclasses import asdict, dataclass

import numpy as np

from .car_algebra import Region, build_context
from .counterexamples import violation_demo
from .inequalities import InequalityReport, inequality_report
from .states import random_state, tracial_state
from .tolerances import HOLD_TOL

__all__ = ["main", "RunConfig", "cmd_verify", "cmd_counterexample", "cmd_table1"]

SUITES = ("ssa", "triangle", "mono-ssa", "all")
MAX_VIOLATION_MAGNITUDE = 2.0 * math.log(2.0)  # proved for every state: see carentropy.inequalities
# table1's rows: (name, verify suite, even states, gap kind) for the campaigns
# and (name, gap kind, expected verdict) for the counterexample state
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
    regions: dict[str, tuple[int, ...]] | None = None
    rhoJ: str | None = None


def _parse_region(text: str) -> Region:
    try:
        sites = tuple(sorted(int(tok) for tok in text.split(",") if tok.strip()))
    except ValueError as exc:
        raise ValueError(f"bad region spec {text!r}: {exc}") from None
    return Region(sites)


def _region_str(sites: tuple[int, ...]) -> str:
    return ",".join(str(s) for s in sites)


def _resolve_output(path: str | None) -> str | None:
    if path is None or path == "-":
        return None
    outdir = os.environ.get("CARENTROPY_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _emit(text: str, path: str | None) -> None:
    resolved = _resolve_output(path)
    if resolved is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(os.path.abspath(resolved)), exist_ok=True)
        with open(resolved, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _config_payload(config: RunConfig) -> dict:
    # output_path is where the report goes, not part of what it says;
    # keeping it out makes reruns byte-identical regardless of destination.
    return {
        k: v for k, v in asdict(config).items() if v is not None and k != "output_path"
    }


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
    return Region(tuple(sorted(int(x) for x in picked)))


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
        "I": Region(tuple(sorted(perm[:size_i]))),
        "J": Region(tuple(sorted(perm[size_i:size_i + size_j]))),
    }
    rest = perm[size_i + size_j:]
    if rest:
        size_k = int(rng.integers(1, len(rest) + 1))
        out["K"] = Region(tuple(sorted(rest[:size_k])))
    return out


def _report_row(config: RunConfig, index: int, report: InequalityReport) -> dict:
    """One trial row: the report's regions, parity, gaps and verdicts."""
    row = {"trial": index, "seed": config.seed, "sites": config.sites}
    for name in ("I", "J", "K"):
        row[name] = _region_str(report.regions.get(name, ()))
    row["parity"] = "even" if report.even_state else "noneven"
    for kind in ("ssa", "triangle", "mono_ssa"):
        row[f"{kind}_gap"] = getattr(report, f"{kind}_gap")
        row[f"{kind}_verdict"] = report.verdicts.get(kind, "")
    return row


def _verify_trial(ctx, config: RunConfig, fixed, index: int, child) -> dict:
    rng = np.random.default_rng(child)
    regions = fixed or _trial_regions(rng, config.sites, config.suite)
    rank = int(rng.integers(1, ctx.dim + 1))
    state = random_state(
        ctx, ctx.lattice, even=config.even, rank=rank, seed=rng.integers(0, 2 ** 63)
    )
    report = inequality_report(state, regions["I"], regions["J"], regions.get("K"))
    return _report_row(config, index, report)


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
    fixed = config.regions and {key: Region(val) for key, val in config.regions.items()}
    children = np.random.SeedSequence(config.seed).spawn(config.trials)
    rows = [_verify_trial(ctx, config, fixed, i, child) for i, child in enumerate(children)]

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
    payload = {
        "config": _config_payload(config),
        "summary": summary,
        "unexpected": problems,
        "trials": rows,
    }
    if config.output_format == "csv":
        _emit(_csv_text(rows), config.output_path)
    else:
        _emit(_json_text(payload), config.output_path)
    return 1 if problems else 0


def _complex_matrix_payload(mat: np.ndarray) -> dict:
    return {
        "re": [[round(x, 12) for x in row] for row in mat.real.tolist()],
        "im": [[round(x, 12) for x in row] for row in mat.imag.tolist()],
    }


def cmd_counterexample(config: RunConfig) -> int:
    ctx = build_context(config.sites)
    regions = {key: Region(val) for key, val in (config.regions or {}).items()}
    K, I, J = regions["K"], regions["I"], regions["J"]
    if config.rhoJ == "random":
        rho_j = random_state(ctx, J, even=True, seed=config.seed)
    else:
        rho_j = tracial_state(ctx, J)
    report = violation_demo(ctx, K, I, J, rhoJ=rho_j)
    if config.output_format == "csv":
        _emit(_csv_text([_report_row(config, 0, report)]), config.output_path)
    else:
        recipe = report.recipe
        payload = {
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
        }
        _emit(_json_text(payload), config.output_path)

    reproduced = (
        report.verdicts["mono_ssa"] == "violated"
        and report.verdicts["triangle"] == "violated"
        and report.verdicts["ssa"] == "holds"
    )
    return 0 if reproduced else 1


def cmd_table1(config: RunConfig) -> int:
    """Run the six suites behind the truth table and render its CAR column."""
    suites: dict[str, dict] = {}
    children = np.random.SeedSequence(config.seed).spawn(3)
    for (name, suite, even, kind), child in zip(TABLE1_CAMPAIGNS, children, strict=True):
        cfg = RunConfig(
            command="verify", sites=config.sites, trials=config.trials,
            seed=int(child.generate_state(1)[0] % (2 ** 31)),
            output_format="json", output_path=None, suite=suite, even=even,
        )
        stats = _run_suite(cfg)[1][kind]
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
        payload = {
            "config": _config_payload(config),
            "cells": cells,
            "suites": suites,
            "conforms": all_ok,
        }
        _emit(_json_text(payload), config.output_path)
    elif config.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "conforms", "stats"])
        for name, entry in sorted(suites.items()):
            writer.writerow([name, entry["conforms"], json.dumps(entry["stats"], sort_keys=True)])
        _emit(buf.getvalue(), config.output_path)
    else:
        lines = ["Property    CAR lattice verdict", "-" * 72]
        for prop, cell in cells.items():
            lines.append(f"{prop:<11} {cell}")
        lines.append("")
        for name, entry in suites.items():
            status = "ok" if entry["conforms"] else "FAILED"
            lines.append(f"  [{status}] {name}: {json.dumps(entry['stats'], sort_keys=True)}")
        _emit("\n".join(lines) + "\n", config.output_path)
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

    verify = command("verify", "random-state campaigns", ("json", "csv"))
    verify.add_argument("--suite", choices=SUITES, default="all")
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--even", action="store_true", help="restrict to even states")
    for name in ("I", "J", "K"):
        verify.add_argument(f"--{name}", default=None, help="fixed region, e.g. 1,2")

    counter = command("counterexample", "joint-extension violation demo", ("json", "csv"))
    counter.add_argument("--K", default="2")
    counter.add_argument("--I", default="1")
    counter.add_argument("--J", default="3")
    counter.add_argument("--rhoJ", choices=["tracial", "random"], default="tracial")

    table = command("table1", "summary truth table", ("json", "csv", "text"))
    table.add_argument("--trials", type=int, default=200)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("verify", "table1") and args.trials < 1:
        parser.error("--trials must be at least 1")
    if args.command == "table1" and args.sites < 3:
        parser.error("table1 runs the mono-ssa suite, which needs at least 3 sites")

    try:
        if args.command == "verify":
            if args.sites < 2:
                parser.error("verify needs at least 2 sites")
            if args.suite == "mono-ssa" and args.sites < 3:
                parser.error("the mono-ssa suite needs three disjoint regions (>= 3 sites)")
            regions = {}
            for name in ("I", "J", "K"):
                raw = getattr(args, name)
                if raw is not None:
                    regions[name] = _parse_region(raw).sites
            if regions and not {"I", "J"} <= set(regions):
                parser.error("fixed regions require at least --I and --J")
            # fixed regions must leave the chosen suite its own gap to evaluate
            if regions:
                I, J = set(regions["I"]), set(regions["J"])
                if set(regions.get("K", ())) & (I | J):
                    parser.error("a fixed --K must be disjoint from --I and --J")
                if args.suite != "ssa" and I & J:
                    parser.error(f"--suite {args.suite} needs disjoint --I and --J")
                if args.suite == "mono-ssa" and "K" not in regions:
                    parser.error("the mono-ssa suite needs a --K")
            config = RunConfig(
                command="verify", sites=args.sites, trials=args.trials, seed=args.seed,
                output_format=args.output_format, output_path=args.output,
                suite=args.suite, even=args.even, regions=regions or None,
            )
            return cmd_verify(config)

        if args.command == "counterexample":
            K = _parse_region(args.K)
            I = _parse_region(args.I)
            for name, region in (("K", K), ("I", I)):
                if not region.sites:
                    parser.error(f"--{name} must name at least one site")
            J = _parse_region(args.J)
            if not (K.isdisjoint(I) and K.isdisjoint(J) and I.isdisjoint(J)):
                parser.error("regions K, I, J must be mutually disjoint")
            sites = max(args.sites, max(K.sites + I.sites + J.sites))
            config = RunConfig(
                command="counterexample", sites=sites, trials=1, seed=args.seed,
                output_format=args.output_format, output_path=args.output,
                regions={"K": K.sites, "I": I.sites, "J": J.sites}, rhoJ=args.rhoJ,
            )
            return cmd_counterexample(config)

        config = RunConfig(
            command="table1", sites=args.sites, trials=args.trials, seed=args.seed,
            output_format=args.output_format, output_path=args.output,
        )
        return cmd_table1(config)
    except ValueError as exc:  # every CarError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
