"""The four benchmark workloads: inputs drawn from a seed, the op, its checks.

Every op draws its inputs from its own child of ``SeedSequence(seed)``, so
op ``i`` sees the same inputs whatever the run length.  The few input
properties that switch an op between cost modes (suite, parity, region
sizes) are stratified by the op index instead of drawn, so that every run has
the same mix and the percentiles do not jump between modes from seed to
seed; everything else (sites, ranks, state seeds) is drawn.  The package is
driven only through its public entry points.  ``run`` is the timed op;
``check`` returns a list of problems (empty when the op's output is right)
and is not part of the op latency.
"""

from __future__ import annotations

import gc
import json
import math
import os

import numpy as np

import carentropy as ce
import carentropy.cli

from oracle import prefix_entropies

LN2 = math.log(2.0)
GAP_TOL = 1e-9
RESIDUAL_TOL = 1e-10
SPECTRUM_TOL = 1e-9
# Observed agreement is ~1e-15; the slack covers an eigenvalue that lands
# next to the 1e-12 clamp and is dropped on one side only.
ORACLE_TOL = 1e-10
ORACLE_STATES = 3  # campaign states also checked against the oracle, untimed


def _region(sites) -> ce.Region:
    return ce.Region(tuple(sorted(int(s) for s in sites)))


def _subset(rng, n: int, size: int) -> ce.Region:
    return _region(rng.choice(np.arange(1, n + 1), size=size, replace=False))


class Campaign:
    """One random state on the whole lattice plus one ``inequality_report``.

    Regions follow ``verify --suite ssa`` (two possibly overlapping regions)
    on even-numbered ops and ``--suite all`` (disjoint I, J and, when sites
    are left, K) on odd-numbered ops.  Unless ``even_only``, ops alternate in
    pairs between even and noneven states.  Region sizes are stratified by
    ``index // 4``, independently of suite and parity, so every suite, parity
    and size combination occurs; the sites are drawn.
    """

    def __init__(self, sites: int, even_only: bool):
        self.sites = sites
        self.even_only = even_only

    def draw(self, rng, index: int) -> dict:
        n = self.sites
        step = index // 4
        size_i = 1 + step % (n - 1)
        if index % 2 == 0:
            size_j = 1 + step // (n - 1) % (n - 1)
            regions = {"I": _subset(rng, n, size_i), "J": _subset(rng, n, size_j)}
        else:
            perm = rng.permutation(np.arange(1, n + 1))
            size_j = 1 + step // (n - 1) % (n - size_i)
            regions = {"I": _region(perm[:size_i]),
                       "J": _region(perm[size_i:size_i + size_j])}
            rest = perm[size_i + size_j:]
            if len(rest):
                regions["K"] = _region(rest[:1 + step % len(rest)])
        return {
            "regions": regions,
            "even": self.even_only or (index // 2) % 2 == 0,
            "rank": int(rng.integers(1, 2 ** n + 1)),
            "seed": int(rng.integers(0, 2 ** 63)),
        }

    def run(self, ctx, inp):
        state = ce.random_state(ctx, ctx.lattice, even=inp["even"], rank=inp["rank"],
                                seed=inp["seed"])
        r = inp["regions"]
        return state, ce.inequality_report(state, r["I"], r["J"], r.get("K"))

    def check(self, inp, out) -> list[str]:
        _, report = out
        problems = []
        if report.verdicts["ssa"] == "violated":
            problems.append(f"ssa violated ({report.ssa_gap:.3e})")
        if inp["even"]:
            for kind in ("triangle", "mono_ssa"):
                if report.verdicts.get(kind) == "violated":
                    problems.append(f"{kind} violated for an even state")
        if report.even_state != inp["even"]:
            problems.append(f"even_state={report.even_state}, drawn even={inp['even']}")
        return problems

    def cross_check(self, out) -> list[str]:
        """Prefix entropies through the package against the plain partial trace."""
        state, _ = out
        n = self.sites
        expected = prefix_entropies(state.intrinsic(), n)
        problems = []
        for k, want in enumerate(expected, start=1):
            got = ce.entropy(ce.restrict(state, ce.Region(tuple(range(1, k + 1)))))
            if abs(got - want) > ORACLE_TOL:
                problems.append(f"prefix 1..{k}: entropy {got!r}, oracle {want!r}")
        return problems


class Counterexample:
    """One in-process ``carentropy counterexample`` command with a random rhoJ.

    |I| alternates between 1 and 2; |K| is 2 on four ops in ten, which cost
    about three times as much as |K| = 1.
    """

    sites = 5

    def __init__(self, scratch_dir: str):
        self.output = os.path.join(scratch_dir, "counterexample.json")

    def draw(self, rng, index: int) -> dict:
        perm = rng.permutation(np.arange(1, self.sites + 1))
        size_k = 2 if index % 10 in (2, 4, 7, 9) else 1
        size_i = 1 + index % 2
        size_j = int(rng.integers(1, self.sites - size_k - size_i + 1))
        cut = (size_k, size_k + size_i, size_k + size_i + size_j)
        return {
            "K": _region(perm[:cut[0]]),
            "I": _region(perm[cut[0]:cut[1]]),
            "J": _region(perm[cut[1]:cut[2]]),
            "seed": int(rng.integers(0, 2 ** 31)),
        }

    def run(self, ctx, inp):
        def spec(region):
            return ",".join(str(s) for s in region.sites)

        return ce.cli.main([
            "counterexample", "--sites", str(self.sites),
            "--K", spec(inp["K"]), "--I", spec(inp["I"]), "--J", spec(inp["J"]),
            "--rhoJ", "random", "--seed", str(inp["seed"]), "--output", self.output,
        ])

    def check(self, inp, code) -> list[str]:
        # Each command builds its own context, whose bases form reference
        # cycles; collect them as a command's own process exit would.
        gc.collect()
        if code != 0:
            return [f"exit code {code}"]
        with open(self.output, encoding="utf-8") as handle:
            report = json.load(handle)
        problems = []
        for kind in ("mono_ssa", "triangle"):
            if abs(report["gaps"][kind] + LN2) > GAP_TOL:
                problems.append(f"{kind} gap {report['gaps'][kind]!r} is not -ln 2")
        if report["verdicts"]["ssa"] != "holds":
            problems.append(f"ssa verdict {report['verdicts']['ssa']}")
        for name in ("restriction_K", "restriction_I", "restriction_J"):
            if report["residuals"][name] > RESIDUAL_TOL:
                problems.append(f"{name} residual {report['residuals'][name]:.3e}")
        return problems


def _parity_mismatch(density: np.ndarray) -> float:
    """Largest entry of a local density between opposite-parity basis states."""
    idx = np.arange(density.shape[0])
    parity = np.array([bin(int(i)).count("1") & 1 for i in idx])
    return float(np.abs(density[parity[:, None] != parity[None, :]]).max(initial=0.0))


class Purify:
    """An even state on I, its symmetric purification into J, both marginals.

    |I| = |J| is 1 on every third op and 2 otherwise (twice the cost).
    """

    sites = 5

    def draw(self, rng, index: int) -> dict:
        size = 1 if index % 3 == 0 else 2
        perm = rng.permutation(np.arange(1, self.sites + 1))
        return {
            "I": _region(perm[:size]),
            "J": _region(perm[size:2 * size]),
            "rank": int(rng.integers(1, 2 ** size + 1)),
            "seed": int(rng.integers(0, 2 ** 63)),
        }

    def run(self, ctx, inp):
        rho = ce.random_state(ctx, inp["I"], even=True, rank=inp["rank"], seed=inp["seed"])
        psi = ce.symmetric_purification(rho, inp["J"])
        marginal_i = ce.restrict(psi, inp["I"])
        marginal_j = ce.restrict(psi, inp["J"])
        return (rho, psi, marginal_i, ce.spectral_data(marginal_i),
                ce.spectral_data(marginal_j))

    def check(self, inp, out) -> list[str]:
        rho, psi, marginal_i, spec_i, spec_j = out
        density = psi.intrinsic()
        problems = []
        if _parity_mismatch(density) > RESIDUAL_TOL:
            problems.append("purified state is not even")
        if abs(np.trace(density @ density).real - 1.0) > SPECTRUM_TOL:
            problems.append("purified state is not pure")
        if np.linalg.norm(marginal_i.intrinsic() - rho.intrinsic(), 2) > SPECTRUM_TOL:
            problems.append("I-marginal differs from the input state")
        if np.abs(np.sort(spec_i.eigenvalues) - np.sort(spec_j.eigenvalues)).max() > SPECTRUM_TOL:
            problems.append("marginal spectra differ")
        return problems


WORKLOADS = {
    "campaign_n5": lambda scratch: Campaign(5, even_only=False),
    "campaign_n4_even": lambda scratch: Campaign(4, even_only=True),
    "counterexample_n5": Counterexample,
    "purify_n5": lambda scratch: Purify(),
}
