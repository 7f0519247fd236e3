import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carentropy import (
    ExtensionError,
    Region,
    State,
    build_context,
    build_recipe,
    density_distance,
    entropy,
    is_even,
    joint_extension,
    mono_ssa_gap,
    odd_eigenvector_state,
    p_theta,
    parity_unitary,
    product_extension,
    random_state,
    restrict,
    ssa_gap,
    symmetrize,
    tracial_state,
    triangle_gap,
    vector_state,
    violation_demo,
)
from carentropy.states import _kron_state
from carentropy.tolerances import HOLD_TOL

from oracles import (
    joint_extension_functional,
    jw_annihilators,
    local_image,
    monomials_on,
    parity,
    solve_density_from_functional,
    value,
    vn_entropy,
)

LN2 = math.log(2.0)


class TestOddEigenvectorState:
    def test_default_single_site(self, ctx1):
        omega = odd_eigenvector_state(ctx1, Region((1,)))
        # eigenvector of a + a* with eigenvalue +1 is (|0> + |1>)/sqrt(2)
        expected = np.full((2, 2), 0.5, dtype=complex)
        assert np.abs(omega.intrinsic() - expected).max() <= 1e-12
        assert p_theta(omega) <= 1e-8
        assert entropy(omega) <= 1e-12
        assert not is_even(omega)

    def test_theta_image_is_partner_vector_state(self, ctx1):
        omega = odd_eigenvector_state(ctx1, Region((1,)))
        v = parity(1, (1,))
        eta = np.array([1.0, 1.0]) / math.sqrt(2)
        partner = vector_state(ctx1, Region((1,)), v @ eta)
        assert density_distance(omega.theta_image(), partner) <= 1e-12

    def test_two_site_region(self, ctx3):
        omega = odd_eigenvector_state(ctx3, Region((2, 3)))
        assert p_theta(omega) <= 1e-8
        assert entropy(omega) <= 1e-10

    @pytest.mark.parametrize("k", range(1, 13))
    def test_default_vector_cached_read_only(self, k):
        from carentropy.counterexamples import _default_odd_vector

        cached = _default_odd_vector(k)
        assert cached is _default_odd_vector(k)
        assert not cached.flags.writeable
        # the vacuum plus the first site filled, both entries the bits of 1/sqrt(2)
        assert cached.shape == (2 ** k, 1)
        assert np.flatnonzero(cached).tolist() == [0, 2 ** (k - 1)]
        assert cached[0, 0] == cached[2 ** (k - 1), 0] == 1 / math.sqrt(2)
        if k <= 6:
            a = jw_annihilators(k)[0]
            eta = cached[:, 0]
            assert np.array_equal((a + a.conj().T) @ eta, eta)
            assert abs(np.vdot(eta, parity(k, tuple(range(1, k + 1))) @ eta)) <= 1e-15

    # another maximally odd vector goes through vector_state and the recipe's checks
    def test_custom_operator(self, ctx2):
        a = jw_annihilators(2)[1]
        K = Region((2,))
        op = local_image(1j * (a - a.conj().T), 2, K.sites)  # odd, self-adjoint
        omega = vector_state(ctx2, K, np.linalg.eigh(op)[1][:, -1])
        recipe = replace(build_recipe(ctx2, K, Region((1,))), rho1=omega)
        assert recipe.rho1 is omega
        assert p_theta(omega) <= 1e-8

    def test_even_operator_rejected(self, ctx2):
        a = jw_annihilators(2)[0]
        K = Region((1,))
        num = local_image(a.conj().T @ a, 2, K.sites)  # even: its eigenvectors are even
        recipe = build_recipe(ctx2, K, Region((2,)))
        with pytest.raises(ValueError, match="maximally odd"):
            replace(recipe, rho1=vector_state(ctx2, K, np.linalg.eigh(num)[1][:, -1]))


class TestSymmetrize:
    def test_already_even_fixed(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), even=True, seed=1)
        assert density_distance(symmetrize(s), s) <= 1e-12

    def test_odd_vector_state_becomes_tracial(self, ctx1):
        omega = odd_eigenvector_state(ctx1, Region((1,)))
        assert density_distance(symmetrize(omega), tracial_state(ctx1, Region((1,)))) <= 1e-12

    def test_entropy_strictly_increases_for_noneven(self, ctx2):
        for seed in range(10):
            s = random_state(ctx2, Region((1, 2)), seed=seed)
            sym = symmetrize(s)
            assert is_even(sym)
            gain = entropy(sym) - entropy(s)
            assert gain >= -1e-10
            if density_distance(s, s.theta_image()) > 1e-3:
                assert gain > 1e-6


class TestU1:
    # the recipe's u1 is the region parity unitary v_K
    def test_expectation_vanishes_on_default_state(self, ctx2):
        K = Region((1,))
        rho1 = odd_eigenvector_state(ctx2, K)
        u1 = parity_unitary(K).matrix
        assert abs(np.trace(rho1.intrinsic() @ u1)) <= 1e-12


class TestRecipeValidation:
    def test_default_recipe_valid(self, ctx2):
        recipe = build_recipe(ctx2, Region((2,)), Region((1,)))
        assert p_theta(recipe.rho1) <= 1e-8
        assert is_even(recipe.rho2)
        assert density_distance(recipe.rho2_tilde, recipe.rho2_tilde.theta_image()) > 1e-6

    def test_even_rho2_tilde_rejected(self, ctx2):
        even = random_state(ctx2, Region((1,)), even=True, seed=2)
        with pytest.raises(ValueError):
            build_recipe(ctx2, Region((2,)), Region((1,)), rho2_tilde=even)

    def test_wrong_region_ingredients_rejected(self, ctx3):
        misplaced = random_state(ctx3, Region((3,)), seed=4)
        with pytest.raises(ValueError, match="rho2_tilde lives on"):
            build_recipe(ctx3, Region((2,)), Region((1,)), rho2_tilde=misplaced)
        rho_j = tracial_state(ctx3, Region((1,)))
        with pytest.raises(ValueError, match="rhoJ lives on"):
            violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)), rhoJ=rho_j)

    def test_replace_checks_regions(self, ctx3):
        # K and I are the states' regions: a state swapped in moves its region
        recipe = build_recipe(ctx3, Region((2,)), Region((1,)))
        assert [f.name for f in fields(recipe)] == ["rho1", "rho2_tilde"]
        elsewhere = odd_eigenvector_state(ctx3, Region((3,)))
        moved = replace(recipe, rho1=elsewhere)
        assert (moved.K, moved.I) == (Region((3,)), Region((1,)))
        assert joint_extension(moved).region == Region((1, 3))
        with pytest.raises(ValueError, match="K and I must be disjoint"):
            replace(recipe, rho2_tilde=odd_eigenvector_state(ctx3, Region((2,))))

    def test_oddness_of_rho1_enforced(self, ctx2):
        recipe = build_recipe(ctx2, Region((2,)), Region((1,)))
        # forge a recipe whose rho1 is even pure: p_theta = 1, must refuse
        even_pure = random_state(ctx2, Region((2,)), even=True, rank=1, seed=3)
        with pytest.raises(ValueError):
            joint_extension(replace(recipe, rho1=even_pure))

    def test_purity_of_rho1_enforced(self, ctx3):
        # the tracial state of the +1 eigenspace of the local a_1 + a_1* on
        # K = (1, 2) is maximally odd (p_theta = 0) but has entropy ln 2
        K = Region((1, 2))
        recipe = build_recipe(ctx3, K, Region((3,)))
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        mixed = State(K, np.kron(plus[:, None], np.eye(2)) / math.sqrt(2))
        assert p_theta(mixed) <= 1e-8
        with pytest.raises(ValueError, match="rho1 must be pure"):
            joint_extension(replace(recipe, rho1=mixed))

    def test_rho2_follows_rho2_tilde(self, ctx2):
        recipe = build_recipe(ctx2, Region((2,)), Region((1,)))
        assert recipe.rho2 is recipe.rho2  # built once, then cached
        other = random_state(ctx2, Region((1,)), seed=5)
        # the replaced recipe is a new object and carries no stale rho2
        assert np.array_equal(
            replace(recipe, rho2_tilde=other).rho2.factor, symmetrize(other).factor
        )


class TestJointExtension:
    def test_marginals(self, ctx2):
        recipe = build_recipe(ctx2, Region((2,)), Region((1,)))
        psi = joint_extension(recipe)
        assert density_distance(restrict(psi, Region((2,))), recipe.rho1) <= 1e-10
        assert density_distance(restrict(psi, Region((1,))), recipe.rho2) <= 1e-10

    def test_default_is_pure(self, ctx2):
        recipe = build_recipe(ctx2, Region((2,)), Region((1,)))
        psi = joint_extension(recipe)
        lam = np.sort(np.linalg.eigvalsh(psi.intrinsic()))
        assert np.abs(lam - np.array([0.0, 0.0, 0.0, 1.0])).max() <= 1e-10

    def test_entropy_matches_rho2_tilde_mixed(self, ctx3):
        for seed in range(8):
            rho2_tilde = random_state(ctx3, Region((1, 3)), seed=seed)
            recipe = build_recipe(ctx3, Region((2,)), Region((1, 3)), rho2_tilde=rho2_tilde)
            psi = joint_extension(recipe)
            assert abs(entropy(psi) - entropy(rho2_tilde)) <= 1e-9
            assert density_distance(restrict(psi, Region((1, 3))), recipe.rho2) <= 1e-10

    def test_factor_is_kron_of_small_factors(self, ctx3):
        rho2_tilde = random_state(ctx3, Region((1, 3)), seed=4)
        recipe = build_recipe(ctx3, Region((2,)), Region((1, 3)), rho2_tilde=rho2_tilde)
        psi = joint_extension(recipe)
        assert psi.factor.shape == (8, 4)  # 2 x 1 pure rho1 times the 4 x 4 second factor

    def test_psd_and_normalized(self, ctx2):
        psi = joint_extension(build_recipe(ctx2, Region((2,)), Region((1,))))
        lam = np.linalg.eigvalsh(psi.intrinsic())
        assert lam.min() >= -1e-10
        assert abs(lam.sum() - 1.0) <= 1e-10

    def test_swapping_tilde_changes_state_not_marginals(self, ctx2):
        K, I = Region((2,)), Region((1,))
        base = build_recipe(ctx2, K, I)
        flipped = build_recipe(ctx2, K, I, rho2_tilde=base.rho2_tilde.theta_image())
        psi1, psi2 = joint_extension(base), joint_extension(flipped)
        assert density_distance(psi1, psi2) > 1e-6
        assert density_distance(restrict(psi2, K), base.rho1) <= 1e-10
        assert density_distance(restrict(psi2, I), base.rho2) <= 1e-10

    def test_two_site_k_interleaved(self, ctx4):
        # the default odd element on a multi-site K has a degenerate top
        # eigenvalue; the deterministic eigenvector choice still gives a
        # maximally odd pure state and the extension identities survive
        K, I = Region((1, 3)), Region((2, 4))
        recipe = build_recipe(ctx4, K, I)
        assert p_theta(recipe.rho1) <= 1e-8
        psi = joint_extension(recipe)
        assert density_distance(restrict(psi, K), recipe.rho1) <= 1e-10
        assert density_distance(restrict(psi, I), recipe.rho2) <= 1e-10
        assert abs(entropy(psi) - entropy(recipe.rho2_tilde)) <= 1e-9

        mixed = random_state(ctx4, I, rank=3, seed=11)
        recipe2 = build_recipe(ctx4, K, I, rho2_tilde=mixed)
        psi2 = joint_extension(recipe2)
        assert abs(entropy(psi2) - entropy(mixed)) <= 1e-9
        assert density_distance(restrict(psi2, I), recipe2.rho2) <= 1e-10

    def test_against_representation_oracle(self, ctx2, ctx3):
        # Independent route: evaluate the functional through the explicit
        # twisted tensor representation and solve for the density from the
        # plain matrix-trace linear system.  The defining vectors of the two
        # pure ingredients are read off their densities.
        def defining_vector(state):
            return np.linalg.eigh(state.intrinsic())[1][:, -1]

        for ctx, K, I in [
            (ctx2, Region((2,)), Region((1,))),
            (ctx3, Region((2,)), Region((1, 3))),
            (ctx3, Region((1, 3)), Region((2,))),
        ]:
            recipe = build_recipe(ctx, K, I)
            psi = joint_extension(recipe)
            p, q = len(K), len(I)
            values = joint_extension_functional(
                p, q, defining_vector(recipe.rho1), defining_vector(recipe.rho2_tilde)
            )
            ann = jw_annihilators(ctx.n)
            bK = monomials_on(ann, [s - 1 for s in K.sites])
            bI = monomials_on(ann, [s - 1 for s in I.sites])
            for al in range(4 ** p):
                for be in range(4 ** q):
                    mine = value(psi, bK[al] @ bI[be])
                    assert abs(mine - values[al, be]) <= 1e-10, (K.sites, I.sites, al, be)

            oracle_density = solve_density_from_functional(values, p, q)
            lam_mine = np.sort(np.linalg.eigvalsh(psi.intrinsic()))
            lam_oracle = np.sort(np.linalg.eigvalsh(oracle_density))
            assert np.abs(lam_mine - lam_oracle).max() <= 1e-10
            assert abs(entropy(psi) - vn_entropy(oracle_density)) <= 1e-10


def twisted_product(rho1, rho2_tilde):
    """The Kronecker product of ``joint_extension``, for any ``rho1`` on K."""
    second = rho2_tilde if len(rho1.region) % 2 == 0 else rho2_tilde.theta_image()
    return _kron_state(rho1, second)


@st.composite
def twisted_cases(draw, n=6, most=3, ranks=64):
    """K, I and J drawn from a shuffle of ``n`` sites, so K falls before, after or
    between I's sites; K and I have at most ``most`` sites each.  The states are
    random, of any parity; their ranks are drawn below ``ranks``."""
    sites = draw(st.permutations(range(1, n + 1)))
    k, i = draw(st.integers(1, most)), draw(st.integers(1, most))
    j = draw(st.integers(0, n - k - i))
    K, I, J = (tuple(sorted(sites[a:b])) for a, b in ((0, k), (k, k + i), (k + i, k + i + j)))
    r1, r2 = draw(st.integers(0, ranks - 1)), draw(st.integers(0, ranks - 1))
    return K, I, J, r1, r2, draw(st.integers(0, 2 ** 32 - 1))


class TestTwistedProduct:
    """``joint_extension``'s product for a ``rho1`` that is not maximally odd.

    The I-marginal is ``((1+c)/2) rho2~ + ((1-c)/2) rho2~ o Theta`` with
    ``c = +Tr(D1 v_K)``; with an even ``rhoJ`` the MONO-SSA gap on (I, J; K)
    is ``2 S(rho1) + S(rho2~) - S(mixture)``, at least ``-ln 2``.
    """

    @staticmethod
    def states(case, n=6):
        K, I, J, rank1, rank2, seed = case
        ctx = build_context(n)
        rho1 = random_state(ctx, Region(K), rank=1 + rank1 % 2 ** len(K), seed=seed)
        tilde = random_state(ctx, Region(I), rank=1 + rank2 % 2 ** len(I), seed=seed + 1)
        c = float(np.trace(rho1.intrinsic() @ parity_unitary(rho1.region).matrix).real)
        mixture = (1 + c) / 2 * tilde.intrinsic() + (1 - c) / 2 * tilde.theta_image().intrinsic()
        return ctx, rho1, tilde, mixture

    @settings(max_examples=60, deadline=None)
    @given(twisted_cases())
    @example(((1,), (2, 3), (4,), 0, 3, 0))  # K before I
    @example(((5, 6), (1, 3), (2,), 1, 2, 1))  # K after I
    @example(((2, 4), (1, 3, 5), (6,), 3, 7, 2))  # K between I's sites
    def test_i_marginal_is_the_parity_mixture(self, case):
        ctx, rho1, tilde, mixture = self.states(case)
        marginal = restrict(twisted_product(rho1, tilde), tilde.region)
        assert np.abs(marginal.intrinsic() - mixture).max() <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(twisted_cases())
    @example(((1,), (2, 3), (4,), 0, 3, 0))
    @example(((5, 6), (1, 3), (2,), 1, 2, 1))
    @example(((2, 4), (1, 3, 5), (6,), 3, 7, 2))
    def test_mono_ssa_gap_closed_form(self, case):
        self.check_closed_form(case)

    @settings(max_examples=30, deadline=None)
    @given(twisted_cases(n=12, most=6, ranks=2))
    @example(((2, 4, 6, 8, 10, 12), (1, 3, 5, 7, 9, 11), (), 1, 1, 0))  # K between I's sites
    @example(((3, 4, 9), (1, 2, 5, 10, 11, 12), (6, 7, 8), 0, 1, 1))
    @example(((7, 8, 9, 10, 11, 12), (1, 2, 3, 4, 5, 6), (), 1, 0, 2))  # K after I
    def test_mono_ssa_gap_closed_form_on_twelve_sites(self, case):
        # every term lives on at most 6 sites; the joint state has no 2^12 oracle.
        # A low-rank rhoJ keeps the 12-site factor narrow.
        self.check_closed_form(case, n=12, rank_J=min(2, 2 ** len(case[2])))

    def check_closed_form(self, case, n=6, rank_J=None):
        ctx, rho1, tilde, mixture = self.states(case, n)
        rhoJ = random_state(ctx, Region(case[2]), even=True, rank=rank_J, seed=case[5] + 2)
        full = product_extension(twisted_product(rho1, tilde), rhoJ)
        gap = mono_ssa_gap(full, tilde.region, rhoJ.region, rho1.region)
        closed = 2 * entropy(rho1) + entropy(tilde) - vn_entropy(mixture)
        assert abs(gap - closed) <= 1e-12
        assert gap >= -LN2 - HOLD_TOL


class TestViolationDemo:
    def test_default_values(self, ctx3):
        report = violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)))
        assert abs(report.mono_ssa_gap + LN2) <= 1e-9
        assert abs(report.triangle_gap + LN2) <= 1e-9
        assert report.ssa_gap <= 1e-9
        ent = report.entropies
        assert abs(ent["K"]) <= 1e-9
        assert abs(ent["I"] - LN2) <= 1e-9
        assert abs(ent["KI"]) <= 1e-9
        assert abs(ent["KJ"] - LN2) <= 1e-9
        assert report.verdicts == {
            "mono_ssa": "violated", "triangle": "violated", "ssa": "holds",
        }
        assert max(report.residuals.values()) <= 1e-9

    def test_inputs_near_trace_edge_accepted(self, ctx3):
        # rho2_tilde is the factor state_from_intrinsic keeps of a trace-one
        # density with eigenvalues 1 + 5e-9 and -5e-9 (trace 1 + 5e-9), rhoJ
        # a factor of trace 1 + 6e-9; each passes the trace check of State,
        # and the demo state, whose trace is their product, is scaled back to 1
        from carentropy import state_from_intrinsic

        u = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
        tilde = state_from_intrinsic(ctx3, Region((1,)), (u * [1.0 + 5e-9, -5e-9]) @ u.T)
        rhoJ = tracial_state(ctx3, Region((3,)))
        rhoJ = State(rhoJ.region, math.sqrt(1.0 + 6e-9) * rhoJ.factor)
        report = violation_demo(
            ctx3, Region((2,)), Region((1,)), Region((3,)), rhoJ=rhoJ, rho2_tilde=tilde
        )
        assert report.verdicts == {
            "mono_ssa": "violated", "triangle": "violated", "ssa": "holds",
        }
        assert abs(report.triangle_gap + LN2) <= 1e-7
        assert abs(report.mono_ssa_gap + LN2) <= 1e-7

    def test_recipe_validated_once(self, ctx3, monkeypatch):
        import carentropy.counterexamples as module

        calls = []
        original = module.ExtensionRecipe.__post_init__

        def counting(recipe):
            calls.append(recipe)
            return original(recipe)

        monkeypatch.setattr(module.ExtensionRecipe, "__post_init__", counting)
        violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)))
        assert len(calls) == 1

    def test_each_region_restricted_once(self, ctx5, monkeypatch):
        import carentropy.inequalities as inequalities

        calls = []

        def counting(state, region):
            calls.append(region.sites)
            return restrict(state, region)

        monkeypatch.setattr(inequalities, "restrict", counting)
        K, I, J = Region((2, 4)), Region((1,)), Region((3, 5))
        rhoJ = random_state(ctx5, J, even=True, seed=4)
        report = violation_demo(ctx5, K, I, J, rhoJ=rhoJ)
        # the six report regions, once each: the residuals reuse the K, I, J marginals
        assert sorted(calls) == sorted(report.regions.values())
        assert len(calls) == 6
        monkeypatch.undo()
        full = product_extension(joint_extension(report.recipe), rhoJ)
        assert report.mono_ssa_gap.hex() == mono_ssa_gap(full, I, J, K).hex()
        assert report.triangle_gap.hex() == triangle_gap(full, I, K).hex()
        assert report.ssa_gap.hex() == ssa_gap(full, K.union(I), K.union(J)).hex()

    def test_empty_J_entropy_is_positive_zero(self, ctx3):
        report = violation_demo(ctx3, Region((2,)), Region((1,)), Region(()))
        # reports print the sign of a zero: an empty J must read 0.0, not -0.0
        assert math.copysign(1.0, report.entropies["J"]) == 1.0
        assert report.entropies["KJ"] == report.entropies["K"]

    def test_empty_I_named(self, ctx3):
        with pytest.raises(ValueError, match="I must be nonempty"):
            violation_demo(ctx3, Region((2,)), Region(()), Region((3,)))

    def test_two_site_partner_region(self, ctx4):
        report = violation_demo(ctx4, Region((2,)), Region((1,)), Region((3, 4)))
        assert abs(report.entropies["KJ"] - 2 * LN2) <= 1e-9
        assert abs(report.mono_ssa_gap + LN2) <= 1e-9

    def test_multi_site_regions_on_five_sites(self):
        from carentropy import build_context

        ctx5 = build_context(5)
        report = violation_demo(ctx5, Region((2, 4)), Region((1, 5)), Region((3,)))
        assert abs(report.mono_ssa_gap + LN2) <= 1e-9
        assert abs(report.triangle_gap + LN2) <= 1e-9
        assert report.ssa_gap <= 1e-9
        assert max(report.residuals.values()) <= 1e-9

    def test_random_even_rhoJ(self, ctx3):
        rho_j = random_state(ctx3, Region((3,)), even=True, seed=4)
        report = violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)), rhoJ=rho_j)
        assert report.verdicts["mono_ssa"] == "violated"
        assert abs(report.residuals["product_entropy"]) <= 1e-9

    def test_noneven_rhoJ_rejected(self, ctx3):
        bad = odd_eigenvector_state(ctx3, Region((3,)))
        with pytest.raises(ExtensionError, match="at least one even factor"):
            violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)), rhoJ=bad)

    def test_overlapping_J_rejected(self, ctx3):
        with pytest.raises(ValueError, match="disjoint regions"):
            violation_demo(ctx3, Region((2,)), Region((1,)), Region((1, 3)))

    def test_demo_state_satisfies_ssa_directly(self, ctx3):
        K, I, J = Region((2,)), Region((1,)), Region((3,))
        recipe = build_recipe(ctx3, K, I)
        full = product_extension(joint_extension(recipe), tracial_state(ctx3, J))
        assert ssa_gap(full, K.union(I), K.union(J)) <= 1e-9
        assert ssa_gap(full, I.union(K), I.union(J)) <= 1e-9

    def test_gap_equals_symmetrization_entropy_gain(self, ctx3):
        # For this construction the violation has a closed form: with
        # rhoJ even pure-product bookkeeping, S(KI) = S(rho2_tilde) and
        # S(I) = S(rho2), so the monotonicity-form gap is exactly minus
        # the entropy gained by symmetrizing rho2_tilde.
        K, I, J = Region((2,)), Region((1,)), Region((3,))
        rho_j = tracial_state(ctx3, J)
        for seed in (0, 1, 2, 5, 8):
            rho2_tilde = random_state(ctx3, I, rank=(seed % 2) + 1, seed=seed)
            recipe = build_recipe(ctx3, K, I, rho2_tilde=rho2_tilde)
            full = product_extension(joint_extension(recipe), rho_j)
            gap = mono_ssa_gap(full, I, J, K)
            gain = entropy(recipe.rho2) - entropy(rho2_tilde)
            assert gain >= -1e-12
            assert abs(gap + gain) <= 1e-9

    def test_violation_magnitude_within_family_bound(self, ctx3):
        # This construction family violates the triangle inequality by at
        # most ln 2 (the bound proved for arbitrary states is 2 ln 2).
        report = violation_demo(ctx3, Region((2,)), Region((1,)), Region((3,)))
        assert -report.triangle_gap <= LN2 + 1e-9
        for seed in range(5):
            rho2_tilde = random_state(ctx3, Region((1,)), seed=seed)
            rep = violation_demo(
                ctx3, Region((2,)), Region((1,)), Region((3,)), rho2_tilde=rho2_tilde
            )
            assert -rep.triangle_gap <= LN2 + 1e-9
