import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carentropy import (
    CarError,
    OperatorElement,
    Region,
    build_context,
    classify_gap,
    commuting_square_check,
    conditional_expectation,
    inequality_report,
    mixing_bounds_check,
    mono_ssa_gap,
    monomial_basis,
    monotonicity_curve,
    odd_eigenvector_state,
    random_state,
    ssa_gap,
    state_from_tau_form,
    tracial_state,
    triangle_gap,
    vector_state,
)

import carentropy.inequalities as inequalities

from oracles import jw_annihilators, lift, monomials_on, rep

LN2 = math.log(2.0)


class TestSsaGap:
    def test_tracial_overlapping_regions_zero(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2, 3)))
        gap = ssa_gap(s, Region((1, 2)), Region((2, 3)))
        # 3 ln2 - 2 ln2 - 2 ln2 + ln2 = 0
        assert abs(gap) <= 1e-12

    def test_random_states_satisfy_ssa(self, ctx3):
        for seed in range(50):
            s = random_state(ctx3, Region((1, 2, 3)), seed=seed)
            assert ssa_gap(s, Region((1, 2)), Region((2, 3))) <= 1e-9

    def test_product_of_pure_states_zero(self, ctx2):
        a = random_state(ctx2, Region((1,)), rank=1, seed=1)
        ext = state_from_tau_form(
            ctx2, Region((1, 2)),
            (rep(a, 2) @ rep(random_state(ctx2, Region((2,)), even=True, rank=1, seed=2), 2)),
        )
        assert abs(ssa_gap(ext, Region((1,)), Region((2,)))) <= 1e-9

    def test_region_not_contained(self, ctx2):
        s = tracial_state(ctx2, Region((1,)))
        with pytest.raises(ValueError):
            ssa_gap(s, Region((1,)), Region((2,)))


class TestTriangleGap:
    def test_even_states_nonnegative(self, ctx3):
        for seed in range(50):
            s = random_state(ctx3, Region((1, 2, 3)), even=True, seed=seed)
            assert triangle_gap(s, Region((1,)), Region((2, 3))) >= -1e-9

    def test_overlap_rejected(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2, 3)))
        with pytest.raises(ValueError):
            triangle_gap(s, Region((1, 2)), Region((2,)))

    def test_product_of_pure_states_zero(self, ctx2):
        up = vector_state(ctx2, Region((1,)), np.array([1.0, 0.0]))
        even_pure = random_state(ctx2, Region((2,)), even=True, rank=1, seed=3)
        ext = state_from_tau_form(ctx2, Region((1, 2)), rep(up, 2) @ rep(even_pure, 2))
        assert abs(triangle_gap(ext, Region((1,)), Region((2,)))) <= 1e-9


class TestMonoSsaGap:
    def test_even_states_nonnegative(self, ctx3):
        I, J, K = Region((1,)), Region((2,)), Region((3,))
        for seed in range(50):
            s = random_state(ctx3, Region((1, 2, 3)), even=True, seed=seed)
            assert mono_ssa_gap(s, I, J, K) >= -1e-9

    def test_empty_k_zero(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), seed=4)
        assert mono_ssa_gap(s, Region((1,)), Region((2,)), Region(())) == 0.0

    def test_disjointness_enforced(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2, 3)))
        with pytest.raises(ValueError):
            mono_ssa_gap(s, Region((1,)), Region((2,)), Region((1,)))


class TestMonotonicityCurve:
    def test_even_state_nondecreasing(self, ctx4):
        I, J = Region((1,)), Region((2,))
        chain = [Region(()), Region((3,)), Region((3, 4))]
        for seed in range(20):
            s = random_state(ctx4, Region((1, 2, 3, 4)), even=True, seed=seed)
            values = monotonicity_curve(s, I, J, chain)
            assert all(b - a >= -1e-9 for a, b in zip(values, values[1:]))

    def test_tracial_increments(self, ctx4):
        s = tracial_state(ctx4, Region((1, 2, 3, 4)))
        values = monotonicity_curve(
            s, Region((1,)), Region((2,)), [Region(()), Region((3,)), Region((3, 4))]
        )
        diffs = np.diff(values)
        assert np.abs(diffs - 2 * LN2).max() <= 1e-10

    def test_single_element_chain(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2, 3)))
        values = monotonicity_curve(s, Region((1,)), Region((2,)), [Region(())])
        assert len(values) == 1
        assert abs(values[0] - 2 * LN2) <= 1e-12

    def test_non_nested_chain_rejected(self, ctx4):
        s = tracial_state(ctx4, Region((1, 2, 3, 4)))
        with pytest.raises(ValueError):
            monotonicity_curve(
                s, Region((1,)), Region((2,)), [Region((3,)), Region((4,))]
            )

    def test_chain_overlap_rejected(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2, 3)))
        with pytest.raises(ValueError):
            monotonicity_curve(s, Region((1,)), Region((2,)), [Region((1,))])

    def test_J_outside_the_state_named(self, ctx2):
        # once refused inside restrict, with the sites of K u J and no name
        s = tracial_state(ctx2, Region((1, 2)))
        with pytest.raises(ValueError, match=r"region J=\(3, 4\) not contained in \(1, 2\)"):
            monotonicity_curve(s, Region((1,)), Region((3, 4)), [Region(())])


class TestMixingBounds:
    def test_lambda_zero_slacks_vanish(self, ctx2):
        a = random_state(ctx2, Region((1, 2)), seed=5)
        b = random_state(ctx2, Region((1, 2)), seed=6)
        report = mixing_bounds_check(a, b, 0.0)
        assert abs(report.concavity_slack) <= 1e-10
        assert abs(report.convexity_slack) <= 1e-10

    def test_identical_states_concavity_tight(self, ctx2):
        a = random_state(ctx2, Region((1, 2)), seed=7)
        report = mixing_bounds_check(a, a, 0.5)
        assert abs(report.concavity_slack) <= 1e-10
        assert report.ok

    def test_orthogonal_pure_convexity_tight(self, ctx1):
        # Equal mixture of a maximally odd pure state and its parity image
        # is tracial: entropy ln 2 saturates the upper mixing bound.
        omega = odd_eigenvector_state(ctx1, Region((1,)))
        report = mixing_bounds_check(omega, omega.theta_image(), 0.5)
        assert abs(report.mixture_entropy - LN2) <= 1e-10
        assert abs(report.convexity_slack) <= 1e-10

    def test_random_sweep_holds(self, ctx2):
        rng = np.random.default_rng(8)
        for seed in range(25):
            a = random_state(ctx2, Region((1, 2)), seed=seed)
            b = random_state(ctx2, Region((1, 2)), seed=seed + 1000)
            report = mixing_bounds_check(a, b, float(rng.uniform()))
            assert report.ok

    def test_strict_concavity_for_distinct(self, ctx2):
        a = random_state(ctx2, Region((1, 2)), seed=9)
        b = random_state(ctx2, Region((1, 2)), seed=10)
        report = mixing_bounds_check(a, b, 0.5)
        assert report.concavity_slack > 1e-6

    def test_bad_lambda(self, ctx1):
        a = tracial_state(ctx1, Region((1,)))
        with pytest.raises(ValueError):
            mixing_bounds_check(a, a, 1.5)


class TestCommutingSquare:
    def test_overlapping_regions(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), seed=11)
        report = commuting_square_check(s, Region((1, 2)), Region((2, 3)), seed=0)
        assert report.ok

    def test_disjoint_regions_kill_odd_elements(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), seed=12)
        report = commuting_square_check(s, Region((1,)), Region((3,)), seed=1)
        assert report.ok
        # an odd element of the union is traceless, so the expectation onto
        # the trivial intersection sends it to zero
        x = OperatorElement(Region((1,)), np.array([[0.0, 1.0], [0.0, 0.0]]))
        e = conditional_expectation(x, Region(()))
        assert e.matrix.shape == (1, 1)
        assert np.abs(e.matrix).max() <= 1e-12

    def test_elements_of_intersection_fixed(self):
        # E onto a larger region leaves an element of the intersection as it
        # is: its image there, lifted by oracles.lift, is the global oracle matrix
        inter = Region((2,))
        for elem, glob in zip(monomial_basis(inter), monomials_on(jw_annihilators(3), [1])):
            for outer in (Region((1, 2)), Region((2, 3))):
                out = conditional_expectation(elem, outer)
                lifted = lift(out.matrix, 3, outer.sites)
                assert np.abs(lifted - glob).max() <= 1e-12
                back = conditional_expectation(out, inter)
                assert np.abs(back.matrix - elem.matrix).max() <= 1e-12


class TestVerdicts:
    def test_classification_bands(self):
        assert classify_gap("triangle", 0.5) == "holds"
        assert classify_gap("triangle", -5e-10) == "holds"
        assert classify_gap("triangle", -5e-8) == "indeterminate"
        assert classify_gap("triangle", -0.1) == "violated"
        assert classify_gap("ssa", -0.5) == "holds"
        assert classify_gap("ssa", 0.1) == "violated"
        # the exact band edges: a gap of -1e-9 holds and -1e-6 is indeterminate,
        # one step further each verdict changes; ssa mirrors the sign
        for kind, sign in (("triangle", -1.0), ("ssa", 1.0)):
            hold, violation = sign * 1e-9, sign * 1e-6
            assert classify_gap(kind, hold) == "holds"
            assert classify_gap(kind, np.nextafter(hold, sign * np.inf)) == "indeterminate"
            assert classify_gap(kind, violation) == "indeterminate"
            assert classify_gap(kind, np.nextafter(violation, sign * np.inf)) == "violated"

    def test_non_finite_gap_raises(self):
        for gap in (math.nan, math.inf, -math.inf):
            with pytest.raises(CarError, match="not a finite number"):
                classify_gap("ssa", gap)

    def test_report_consistency(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), even=True, seed=13)
        report = inequality_report(s, Region((1,)), Region((2,)), Region((3,)))
        assert report.even_state
        assert set(report.verdicts) == {"ssa", "triangle", "mono_ssa"}
        assert report.verdicts["ssa"] == "holds"
        assert report.verdicts["triangle"] == "holds"
        assert report.verdicts["mono_ssa"] == "holds"

    def test_report_skips_overlapping_triangle(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), seed=14)
        report = inequality_report(s, Region((1, 2)), Region((2, 3)))
        assert report.triangle_gap is None
        assert "triangle" not in report.verdicts

    def test_report_checks_k_without_mono_ssa(self, ctx3):
        # K overlaps I, so no mono-ssa gap is taken, yet K must lie in the state's region
        s = random_state(ctx3, Region((1, 2, 3)), seed=14)
        with pytest.raises(ValueError, match=r"region K=\(1, 9\) not contained"):
            inequality_report(s, Region((1, 2)), Region((2, 3)), Region((1, 9)))


class TestSharedEntropies:
    """inequality_report restricts once per region and matches the standalone gaps."""

    @pytest.mark.parametrize("I, J, K, regions", [
        ((1, 4), (2,), (3, 5), [(1, 4), (2,), (1, 2, 4), (1, 3, 4, 5), (2, 3, 5)]),
        ((1, 2), (2, 3), None, [(1, 2), (2, 3), (1, 2, 3), (2,)]),
        ((1,), (2, 3), None, [(1,), (2, 3), (1, 2, 3)]),
    ])
    def test_one_restriction_per_region(self, ctx5, monkeypatch, I, J, K, regions):
        calls = []
        real = inequalities.restrict

        def counting(state, region):
            calls.append(region.sites)
            return real(state, region)

        monkeypatch.setattr(inequalities, "restrict", counting)
        s = random_state(ctx5, ctx5.lattice, seed=3)
        inequality_report(s, Region(I), Region(J), K and Region(K))
        assert sorted(calls) == sorted(regions)

    def test_gaps_equal_standalone_bit_for_bit(self, ctx5):
        rng = np.random.default_rng(17)
        for trial in range(40):
            s = random_state(ctx5, ctx5.lattice, even=trial % 2 == 0,
                             rank=int(rng.integers(1, 33)), seed=trial)
            perm = [int(x) for x in rng.permutation(np.arange(1, 6))]
            cut_i, cut_j = int(rng.integers(1, 3)), int(rng.integers(3, 5))
            I, J, K = (Region(tuple(sorted(perm[a:b])))
                       for a, b in ((0, cut_i), (cut_i, cut_j), (cut_j, 5)))
            report = inequality_report(s, I, J, K)
            assert report.ssa_gap.hex() == ssa_gap(s, I, J).hex()
            assert report.triangle_gap.hex() == triangle_gap(s, I, J).hex()
            assert report.mono_ssa_gap.hex() == mono_ssa_gap(s, I, J, K).hex()
            overlap = Region(tuple(sorted(perm[:cut_j])))
            report = inequality_report(s, overlap, J)
            assert report.ssa_gap.hex() == ssa_gap(s, overlap, J).hex()


class TestBoundOnTriangleViolation:
    def test_two_ln_two_bound_sampled(self, ctx3):
        regions = [
            (Region((1,)), Region((2,))),
            (Region((1,)), Region((2, 3))),
            (Region((1, 2)), Region((3,))),
        ]
        for seed in range(100):
            s = random_state(ctx3, Region((1, 2, 3)), seed=seed)
            for I, K in regions:
                gap = triangle_gap(s, I, K)
                assert -gap <= 2 * LN2 + 1e-9


@st.composite
def gap_cases(draw, even):
    """A random-rank state on a random (often non-contiguous) region of n <= 4
    sites, overlapping I, J for SSA and a disjoint labelling for the rest."""
    n = draw(st.integers(1, 4))
    parent = sorted(draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    rank = draw(st.integers(1, 2 ** len(parent)))
    parity = even if even is not None else draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 32 - 1))
    state = random_state(
        build_context(n), Region(tuple(parent)), even=parity, rank=rank, seed=seed
    )
    subset = st.lists(st.sampled_from(parent), unique=True).map(lambda s: Region.of(*s))
    overlapping = (draw(subset), draw(subset))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(parent), max_size=len(parent)))
    disjoint = tuple(
        Region(tuple(s for s, lab in zip(parent, labels) if lab == k)) for k in range(3)
    )
    return state, overlapping, disjoint


@settings(max_examples=60, deadline=None)
@given(gap_cases(even=None))
def test_ssa_holds_on_every_state(case):
    state, (I, J), _ = case
    assert ssa_gap(state, I, J) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(gap_cases(even=True))
def test_triangle_and_mono_ssa_hold_on_even_states(case):
    state, _, (I, J, K) = case
    assert triangle_gap(state, I, J) >= -1e-9
    assert mono_ssa_gap(state, I, J, K) >= -1e-9
