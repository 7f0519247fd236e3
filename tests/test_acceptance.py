"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
per-criterion timings.  Tolerances are pinned here and nowhere looser.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from carentropy import (
    Region,
    build_context,
    build_recipe,
    density_distance,
    entropy,
    is_even,
    joint_extension,
    mixing_bounds_check,
    mono_ssa_gap,
    monotonicity_curve,
    odd_eigenvector_state,
    p_theta,
    random_state,
    relative_commutant_check,
    restrict,
    ssa_gap,
    symmetric_purification,
    transition_probability,
    triangle_gap,
    violation_demo,
)
from carentropy.cli import main as cli_main

from oracles import partial_trace

LN2 = math.log(2.0)


@contextmanager
def criterion(num, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS ({time.perf_counter() - start:.1f}s)")


def spawn_rngs(master, count):
    return [np.random.default_rng(s) for s in np.random.SeedSequence(master).spawn(count)]


def random_subset(rng, n, size):
    sites = rng.choice(np.arange(1, n + 1), size=size, replace=False)
    return Region(tuple(sorted(int(s) for s in sites)))


def test_criterion_01_car_and_commutant():
    with criterion(1, "CAR relations (n <= 6) and relative commutant sweep"):
        start = time.perf_counter()
        for n in range(1, 7):
            ctx = build_context(n)
            gens = [ctx.annihilator(i) for i in range(1, n + 1)]
            gens += [ctx.creator(i) for i in range(1, n + 1)]
            eye = np.eye(2 ** n)
            for gi, gj in itertools.product(range(2 * n), repeat=2):
                ac = gens[gi] @ gens[gj] + gens[gj] @ gens[gi]
                want = eye if (gi % n == gj % n and (gi < n) != (gj < n)) else 0.0
                assert np.abs(ac - want).max() <= 1e-12

        sites = range(1, 6)
        pairs = 0
        for p in range(1, 6):
            for I_sites in itertools.combinations(sites, p):
                rest = [s for s in sites if s not in I_sites]
                for q in range(0, 6 - p):
                    for J_sites in itertools.combinations(rest, q):
                        check = relative_commutant_check(Region(I_sites), Region(J_sites))
                        assert check.ok, (I_sites, J_sites, check)
                        pairs += 1
        assert pairs == 211
        assert time.perf_counter() - start < 10.0


def test_criterion_02_ssa_universality():
    with criterion(2, "SSA for 1000 random states of any parity"):
        start = time.perf_counter()
        contexts = {3: build_context(3), 4: build_context(4)}
        rngs = spawn_rngs(202, 1000)
        worst = -np.inf
        for t, rng in enumerate(rngs):
            n = 3 if t % 2 == 0 else 4
            ctx = contexts[n]
            state = random_state(
                ctx,
                ctx.lattice,
                even=bool(rng.integers(0, 2)),
                rank=int(rng.integers(1, ctx.dim + 1)),
                seed=rng.integers(0, 2 ** 63),
            )
            I = random_subset(rng, n, int(rng.integers(1, n)))
            J = random_subset(rng, n, int(rng.integers(1, n)))
            gap = ssa_gap(state, I, J)
            worst = max(worst, gap)
            assert gap <= 1e-9, (t, I.sites, J.sites, gap)
        assert time.perf_counter() - start < 60.0
        print(f"  max ssa gap over 1000 trials: {worst:.3e}", end="")


def test_criterion_03_even_state_theorems():
    with criterion(3, "triangle and MONO-SSA for 1000 random even states"):
        ctx = build_context(3)
        I, J, K = Region((1,)), Region((2,)), Region((3,))
        rngs = spawn_rngs(303, 1000)
        for t, rng in enumerate(rngs):
            state = random_state(
                ctx, ctx.lattice, even=True,
                rank=int(rng.integers(1, 9)), seed=rng.integers(0, 2 ** 63),
            )
            assert triangle_gap(state, I, J.union(K)) >= -1e-9, t
            assert mono_ssa_gap(state, I, J, K) >= -1e-9, t
        chain = [Region(()), Region((3,))]
        for seed in range(200):
            state = random_state(ctx, ctx.lattice, even=True, seed=30000 + seed)
            values = monotonicity_curve(state, I, J, chain)
            assert values[1] - values[0] >= -1e-9, seed


def test_criterion_04_symmetric_purification():
    with criterion(4, "symmetric purification of 200 random even states"):
        ctx2, ctx4 = build_context(2), build_context(4)
        cases = []
        for seed in range(100):
            cases.append((ctx2, Region((1,)), Region((2,)), seed))
        for seed in range(50):
            cases.append((ctx4, Region((1, 2)), Region((3, 4)), seed))
        for seed in range(50):
            cases.append((ctx4, Region((1, 3)), Region((2, 4)), seed))
        assert len(cases) == 200
        for ctx, I, J, seed in cases:
            rho1 = random_state(ctx, I, even=True, seed=seed)
            ext = symmetric_purification(rho1, J)
            assert entropy(ext) <= 1e-9
            assert is_even(ext)
            assert density_distance(restrict(ext, I), rho1) <= 1e-10
            lam_i = np.linalg.eigvalsh(restrict(ext, I).intrinsic())
            lam_j = np.linalg.eigvalsh(restrict(ext, J).intrinsic())
            nz_i = np.sort(lam_i[lam_i > 1e-9])[::-1]
            nz_j = np.sort(lam_j[lam_j > 1e-9])[::-1]
            assert nz_i.shape == nz_j.shape
            assert np.abs(nz_i - nz_j).max() <= 1e-9


def test_criterion_05_counterexample_values():
    with criterion(5, "joint-extension demo: forced entropies and -ln2 gaps"):
        ctx = build_context(3)
        report = violation_demo(ctx, Region((2,)), Region((1,)), Region((3,)))
        ent = report.entropies
        assert abs(ent["K"]) <= 1e-9
        assert abs(ent["I"] - LN2) <= 1e-9
        assert abs(ent["KI"]) <= 1e-9
        assert abs(ent["KJ"] - LN2) <= 1e-9
        assert abs(report.mono_ssa_gap + LN2) <= 1e-9
        assert abs(report.triangle_gap + LN2) <= 1e-9
        assert report.ssa_gap <= 1e-9


def test_criterion_06_joint_extension_identities():
    with criterion(6, "50 joint extensions: marginals and entropy equality"):
        ctx2, ctx3 = build_context(2), build_context(3)
        cases = []
        for seed in range(26):
            cases.append((ctx2, Region((2,)), Region((1,)), seed))
        for seed in range(12):
            cases.append((ctx3, Region((2,)), Region((1, 3)), 100 + seed))
        for seed in range(12):
            cases.append((ctx3, Region((1,)), Region((2, 3)), 200 + seed))
        assert len(cases) == 50
        for ctx, K, I, seed in cases:
            dim = 2 ** len(I)
            rho2_tilde = random_state(
                ctx, I, rank=(seed % dim) + 1, seed=seed
            )
            if density_distance(rho2_tilde, rho2_tilde.theta_image()) <= 1e-6:
                rho2_tilde = random_state(ctx, I, rank=dim, seed=seed + 10_000)
            recipe = build_recipe(ctx, K, I, rho2_tilde=rho2_tilde)
            psi = joint_extension(recipe)
            assert density_distance(restrict(psi, K), recipe.rho1) <= 1e-10
            assert density_distance(restrict(psi, I), recipe.rho2) <= 1e-10
            assert abs(entropy(psi) - entropy(rho2_tilde)) <= 1e-9
            assert np.linalg.eigvalsh(psi.intrinsic()).min() >= -1e-10


def test_criterion_07_oddness_quantifier():
    with criterion(7, "p_theta on even states, odd eigenvector states, symmetry"):
        ctx2, ctx3 = build_context(2), build_context(3)
        for seed in range(100):
            s = random_state(ctx2, ctx2.lattice, even=True, seed=seed)
            assert abs(p_theta(s) - 1.0) <= 1e-8
        for seed in range(100):
            s = random_state(ctx3, ctx3.lattice, even=True, seed=seed)
            assert abs(p_theta(s) - 1.0) <= 1e-8
        for ctx, K in [
            (ctx2, Region((1,))), (ctx2, Region((2,))),
            (ctx3, Region((3,))), (ctx3, Region((1, 2))),
        ]:
            assert p_theta(odd_eigenvector_state(ctx, K)) <= 1e-8
        for seed in range(50):
            a = random_state(ctx2, ctx2.lattice, seed=seed)
            b = random_state(ctx2, ctx2.lattice, seed=seed + 5000)
            f_ab = transition_probability(a, b)
            f_ba = transition_probability(b, a)
            assert abs(f_ab - f_ba) <= 1e-9
            assert 0.0 <= f_ab <= 1.0 and 0.0 <= f_ba <= 1.0


def test_criterion_08_bounds():
    with criterion(8, "2ln2 bound, mixing bounds, strict concavity"):
        contexts = {3: build_context(3), 4: build_context(4)}
        rngs = spawn_rngs(808, 2000)
        worst = 0.0
        for t, rng in enumerate(rngs):
            n = 3 if t % 2 == 0 else 4
            ctx = contexts[n]
            state = random_state(
                ctx, ctx.lattice,
                rank=int(rng.integers(1, ctx.dim + 1)), seed=rng.integers(0, 2 ** 63),
            )
            size_i = int(rng.integers(1, n))
            I = random_subset(rng, n, size_i)
            rest = [s for s in range(1, n + 1) if s not in I]
            size_k = int(rng.integers(1, len(rest) + 1))
            K = Region(tuple(sorted(rng.choice(rest, size=size_k, replace=False).tolist())))
            magnitude = -triangle_gap(state, I, K)
            worst = max(worst, magnitude)
            assert magnitude <= 2 * LN2 + 1e-9, (t, magnitude)

        ctx2 = contexts[3]
        for seed in range(500):
            rng = np.random.default_rng(900_000 + seed)
            a = random_state(ctx2, ctx2.lattice, seed=rng.integers(0, 2 ** 63))
            b = random_state(ctx2, ctx2.lattice, seed=rng.integers(0, 2 ** 63))
            assert mixing_bounds_check(a, b, float(rng.uniform())).ok

        for seed in range(100):
            a = random_state(ctx2, ctx2.lattice, seed=2 * seed)
            b = random_state(ctx2, ctx2.lattice, seed=2 * seed + 1)
            if density_distance(a, b) > 1e-3:
                report = mixing_bounds_check(a, b, 0.5)
                assert report.concavity_slack > 1e-6, seed
        print(f"  max triangle violation seen: {worst:.4f} (bound {2 * LN2:.4f})", end="")


def test_criterion_09_partial_trace_oracle():
    with criterion(9, "restriction equals partial trace on prefix regions"):
        ctx = build_context(3)
        for seed in range(100):
            state = random_state(ctx, ctx.lattice, seed=seed)
            full = state.intrinsic()
            for k in (1, 2):
                mine = restrict(state, Region(tuple(range(1, k + 1)))).intrinsic()
                oracle = partial_trace(full, [2, 2, 2], keep=list(range(k)))
                assert np.abs(mine - oracle).max() <= 1e-10, (seed, k)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI reports for fixed seed and config"):
        for args, names in [
            (
                ["verify", "--suite", "all", "--sites", "3", "--trials", "40",
                 "--seed", "17"],
                ("v1.json", "v2.json"),
            ),
            (
                ["table1", "--trials", "25", "--seed", "17"],
                ("t1.json", "t2.json"),
            ),
        ]:
            paths = [tmp_path / name for name in names]
            for path in paths:
                code = cli_main(args + ["--output", str(path)])
                assert code == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()
