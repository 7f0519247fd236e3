import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carentropy import (
    CapacityError,
    OperatorElement,
    Region,
    build_context,
    conditional_expectation,
    grade_split,
    monomial_basis,
    parity_unitary,
    relative_commutant_check,
    theta,
)

from carentropy.car_algebra import MAX_SITES, _local_parity_diag, _reorder_plan, _reorder_rows
from carentropy.operators import _local_context, _reorder, _trace_out

import oracles
from oracles import conditional_expectation_oracle, jw_annihilators, lift, local_image, monomials_on

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # image of a_i in A((i,))


def anticommutator(x, y):
    return x @ y + y @ x


class TestRegion:
    def test_of_sorts(self):
        assert Region.of(3, 1).sites == (1, 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            Region.of(1, 1)
        with pytest.raises(ValueError):
            Region((2, 2))

    def test_not_increasing_rejected(self):
        with pytest.raises(ValueError):
            Region((3, 1))

    @pytest.mark.parametrize("sites", [(1.5,), (2.7, 2), ("1",)])
    def test_non_integer_sites_rejected(self, sites):
        # (1.5,) once became (1,) silently, and (2.7, 2) failed as "not increasing"
        with pytest.raises(ValueError, match="integers"):
            Region(sites)

    @pytest.mark.parametrize("sites", [(1, "2"), ("2", 1)])
    def test_of_converts_before_sorting(self, sites):
        # sorting first ended in "TypeError: '<' not supported" on a string
        with pytest.raises(ValueError, match="sites must be integers"):
            Region.of(*sites)

    @pytest.mark.parametrize("site", [0, MAX_SITES + 1])
    def test_sites_outside_max_sites_rejected(self, site):
        # so every union of regions fits the largest lattice
        with pytest.raises(ValueError, match=rf"\[1, {MAX_SITES}\]"):
            Region((site,))
        assert Region((1, MAX_SITES)).sites == (1, MAX_SITES)

    def test_numpy_integer_sites_accepted(self):
        region = Region((np.int64(1), np.int32(3)))
        assert region.sites == (1, 3)
        assert all(type(s) is int for s in region.sites)

    def test_set_operations(self):
        a, b = Region((1, 2)), Region((2, 3))
        assert a.union(b).sites == (1, 2, 3)
        assert a.intersection(b).sites == (2,)
        assert not a.isdisjoint(b)
        assert Region((1,)).issubset(a)
        assert len(a) == 2 and 2 in a

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(1, MAX_SITES)), st.sets(st.integers(1, MAX_SITES)))
    @example({MAX_SITES}, {1, MAX_SITES})
    @example(set(range(1, MAX_SITES + 1)), set())
    def test_set_algebra_matches_frozenset(self, a, b):
        a, b = frozenset(a), frozenset(b)
        ra, rb = Region.of(*a), Region.of(*b)
        assert ra.mask == sum(2 ** (s - 1) for s in a)
        for derived, expected in (
            (ra.union(rb), a | b), (ra.intersection(rb), a & b), (ra.difference(rb), a - b)
        ):
            plain = Region(tuple(sorted(expected)))
            assert derived.sites == plain.sites
            assert all(type(s) is int for s in derived.sites)
            assert derived == plain and hash(derived) == hash(plain)
        assert ra.isdisjoint(rb) == a.isdisjoint(b)
        assert ra.issubset(rb) == (a <= b)
        assert rb.issubset(ra) == (b <= a)
        assert ra.union(rb) is rb.union(ra)  # one region per mask

    @given(st.lists(st.integers(1, MAX_SITES), min_size=1, unique=True), st.data())
    def test_of_sorts_and_rejects_repeats(self, sites, data):
        assert Region.of(*sites).sites == tuple(sorted(sites))
        repeated = data.draw(st.sampled_from(sites))
        with pytest.raises(ValueError, match="strictly increasing"):
            Region.of(*sites, repeated)


class TestCachedPlans:
    def test_reorder_sign_is_read_only(self):
        sign, axes = _reorder_plan((1, 2, 3), (3, 1, 2))
        with pytest.raises(ValueError):
            sign[0] = 5
        assert _reorder_plan((1, 2, 3), (3, 1, 2))[0] is sign
        x = np.arange(64, dtype=complex).reshape(8, 8)
        first = _reorder(x, (1, 2, 3), (3, 1, 2))
        assert np.array_equal(_reorder(x, (1, 2, 3), (3, 1, 2)), first)
        assert np.array_equal(x, np.arange(64).reshape(8, 8))

    def test_local_parity_is_read_only(self):
        par = _local_parity_diag(3)
        with pytest.raises(ValueError):
            par[0] = 0.0
        assert _local_parity_diag(3) is par


def sign_then_transpose(factor, src, dst):
    """The row reorder as a sign per source basis state, then a transpose of
    the row's mode axes: reference."""
    k = len(src)
    perm = [src.index(s) for s in dst]
    idx = np.arange(2 ** k)
    occupied = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
    crossed = np.zeros(2 ** k, dtype=int)
    for a in range(k):
        for b in range(a + 1, k):
            if perm[a] > perm[b]:
                crossed += occupied[perm[a]] & occupied[perm[b]]
    signed = (1 - 2 * (crossed & 1)).astype(np.int8)[:, None] * factor
    return signed.reshape((2,) * k + (-1,)).transpose(perm + [k]).reshape(2 ** k, -1)


class TestReorderRows:
    """One gather of rows and a sign in place, bit for bit as sign-then-transpose."""

    @staticmethod
    def assert_same_bits(src, dst, seed):
        rng = np.random.default_rng(seed)
        d = 2 ** len(src)
        for cols in (1, d + 3):
            factor = rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols))
            factor[rng.random(size=factor.shape) < 0.2] = 0.0  # signed zeros stay signed alike
            factor.imag[rng.random(size=factor.shape) < 0.2] = -0.0
            mine = _reorder_rows(factor, src, dst)
            assert mine.tobytes() == sign_then_transpose(factor, src, dst).tobytes(), (src, dst)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_every_permutation(self, k):
        sites = (2, 5, 6, 9)[:k]
        for seed, (src, dst) in enumerate(itertools.product(itertools.permutations(sites),
                                                            repeat=2)):
            self.assert_same_bits(src, dst, seed)

    @pytest.mark.parametrize("k", [6, 7, 8])
    def test_sampled_permutations(self, k):
        rng = np.random.default_rng(k)
        sites = tuple(range(1, k + 1))
        for seed in range(12):
            src, dst = (tuple(rng.permutation(sites).tolist()) for _ in range(2))
            self.assert_same_bits(src, dst, seed)


class TestBuildContext:
    @pytest.mark.parametrize("n", [0, 13, -1])
    def test_size_errors(self, n):
        with pytest.raises(ValueError):
            build_context(n)

    def test_single_site_relation_exact(self, ctx1):
        a = ctx1.annihilator(1)
        assert np.array_equal(anticommutator(a.conj().T, a), np.eye(2))

    def test_two_site_cross_relations(self, ctx2):
        a1, a2 = ctx2.annihilator(1), ctx2.annihilator(2)
        assert np.abs(anticommutator(a1, a2)).max() == 0.0
        assert np.abs(anticommutator(a1, a2.conj().T)).max() == 0.0

    def test_three_site_all_36_identities(self, ctx3):
        gens = [ctx3.annihilator(i) for i in (1, 2, 3)]
        gens += [ctx3.creator(i) for i in (1, 2, 3)]
        eye = np.eye(8)
        count = 0
        for gi, gj in itertools.product(range(6), repeat=2):
            ac = anticommutator(gens[gi], gens[gj])
            # {a_i, a_j*} = delta_ij; every other pairing vanishes
            want = eye if (gi % 3 == gj % 3 and (gi < 3) != (gj < 3)) else 0.0
            assert np.abs(ac - want).max() <= 1e-12
            count += 1
        assert count == 36
        assert gens[0].shape == (8, 8)

    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_plain_jordan_wigner(self, n):
        ctx = build_context(n)
        oracle = jw_annihilators(n)
        for i in range(1, n + 1):
            assert np.abs(ctx.annihilator(i) - oracle[i - 1]).max() == 0.0

    def test_creator_is_adjoint(self, ctx3):
        for i in (1, 2, 3):
            assert np.array_equal(ctx3.creator(i), ctx3.annihilator(i).conj().T)

    def test_creator_cached_read_only(self):
        ctx = build_context(2)
        ad = ctx.creator(2)
        assert ctx.creator(2) is ad
        with pytest.raises(ValueError):
            ad[0, 0] = 1.0


class TestParityUnitary:
    # images are compared, through oracles.lift, with the global Jordan-Wigner oracle
    def test_single_site_formula(self, ctx1):
        a = ctx1.annihilator(1)
        v = parity_unitary(ctx1, Region((1,)))
        assert np.abs(v.matrix - (a.conj().T @ a - a @ a.conj().T)).max() == 0.0
        assert np.array_equal(np.abs(np.diag(v.matrix)), np.ones(2))

    @pytest.mark.parametrize("sites", [(1,), (2,), (1, 2), (1, 3), (1, 2, 3)])
    def test_selfadjoint_unitary(self, ctx3, sites):
        v = parity_unitary(ctx3, Region(sites)).matrix
        d = 2 ** len(sites)
        assert v.shape == (d, d)
        assert np.abs(v - v.conj().T).max() <= 1e-12
        assert np.abs(v @ v - np.eye(d)).max() <= 1e-12
        glob = lift(v, 3, sites)
        assert np.abs(glob - oracles.parity(3, sites)).max() <= 1e-12

    def test_conjugation_flips_inside_fixes_outside(self, ctx2):
        v = lift(parity_unitary(ctx2, Region((1,))).matrix, 2, (1,))
        a1, a2 = jw_annihilators(2)
        assert np.abs(v @ a1 @ v + a1).max() <= 1e-12
        assert np.abs(v @ a2 @ v - a2).max() <= 1e-12

    def test_implements_grading_on_own_region(self, ctx3):
        region = Region((1, 3))
        v = parity_unitary(ctx3, region).matrix
        glob = monomials_on(jw_annihilators(3), [0, 2])
        for elem, oracle in zip(monomial_basis(ctx3, region), glob):
            graded = theta(elem).matrix
            assert np.abs(v @ elem.matrix @ v - graded).max() <= 1e-12
            lifted = lift(graded, 3, region.sites)
            assert np.abs(lifted - oracles.theta(oracle, 3)).max() <= 1e-12

    def test_empty_region_flagged(self, ctx2):
        # the parity unitary of the empty region is the identity of A(()) = C
        v = parity_unitary(ctx2, Region(()))
        assert v.region == Region(())
        assert np.array_equal(v.matrix, np.eye(1))

    def test_lies_in_even_part(self, ctx3):
        v = parity_unitary(ctx3, Region((1, 2)))
        even, odd = grade_split(v)
        assert np.abs(odd.matrix).max() <= 1e-12
        assert np.abs(even.matrix - v.matrix).max() <= 1e-12


def whole(ctx, m):
    """An element of A(lattice): its image is the global matrix itself."""
    return OperatorElement(ctx.lattice, m)


class TestTheta:
    def test_negates_generators(self, ctx3):
        oracle = jw_annihilators(3)
        for i in (1, 2, 3):
            for g in (LOWER, LOWER.conj().T):
                out = theta(OperatorElement(Region((i,)), g))
                assert np.abs(out.matrix + g).max() <= 1e-12
                glob = oracle[i - 1] if g is LOWER else oracle[i - 1].conj().T
                lifted = lift(out.matrix, 3, (i,))
                assert np.abs(lifted + glob).max() <= 1e-12
                assert np.abs(lifted - oracles.theta(glob, 3)).max() <= 1e-12

    def test_fixes_even_monomial(self, ctx2):
        x = ctx2.creator(1) @ ctx2.annihilator(2)
        assert np.abs(theta(whole(ctx2, x)).matrix - x).max() <= 1e-12

    def test_involution_on_random(self, ctx3):
        rng = np.random.default_rng(11)
        x = whole(ctx3, rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        assert np.abs(theta(theta(x)).matrix - x.matrix).max() <= 1e-12

    def test_is_automorphism(self, ctx3):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        lhs = theta(whole(ctx3, x @ y)).matrix
        rhs = theta(whole(ctx3, x)).matrix @ theta(whole(ctx3, y)).matrix
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_preserves_region_of_element(self, ctx3):
        elem = OperatorElement(Region((2,)), LOWER)
        assert theta(elem).region == Region((2,))

    def test_image_shape_checked(self):
        with pytest.raises(ValueError):
            OperatorElement(Region((2,)), np.eye(4))


class TestGradeSplit:
    def test_even_input(self, ctx2):
        x = ctx2.creator(1) @ ctx2.annihilator(1)
        even, odd = grade_split(whole(ctx2, x))
        assert np.abs(even.matrix - x).max() <= 1e-12
        assert np.abs(odd.matrix).max() <= 1e-12

    def test_odd_input(self, ctx2):
        a = ctx2.annihilator(1)
        even, odd = grade_split(whole(ctx2, a))
        assert np.abs(even.matrix).max() <= 1e-12
        assert np.abs(odd.matrix - a).max() <= 1e-12

    def test_linearity_mixed_input(self, ctx2):
        a = ctx2.annihilator(1)
        num = ctx2.creator(1) @ a
        even, odd = grade_split(whole(ctx2, a + num))
        assert np.abs(even.matrix - num).max() <= 1e-12
        assert np.abs(odd.matrix - a).max() <= 1e-12

    def test_parts_have_definite_parity(self, ctx3):
        # on a non-contiguous region, against the global grading
        rng = np.random.default_rng(5)
        region = Region((1, 3))
        x = OperatorElement(region, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        even, odd = grade_split(x)
        assert np.abs(theta(even).matrix - even.matrix).max() <= 1e-12
        assert np.abs(theta(odd).matrix + odd.matrix).max() <= 1e-12
        assert np.abs(even.matrix + odd.matrix - x.matrix).max() <= 1e-12
        glob = lift(x.matrix, 3, region.sites)
        glob_even = (glob + oracles.theta(glob, 3)) / 2.0
        lifted = lift(even.matrix, 3, region.sites)
        assert np.abs(lifted - glob_even).max() <= 1e-12


class TestMonomialBasis:
    def test_single_site_count(self, ctx2):
        elems = monomial_basis(ctx2, Region((1,)))
        assert len(elems) == 4
        assert all(e.matrix.shape == (2, 2) for e in elems)

    @pytest.mark.parametrize("sites", [(1, 2), (1, 3), (2, 3)])
    def test_two_site_gram_diagonal(self, ctx3, sites):
        elems = monomial_basis(ctx3, Region(sites))
        assert len(elems) == 16
        flat = np.stack([e.matrix.ravel() for e in elems])
        gram = flat.conj() @ flat.T / 4
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12
        assert np.diag(gram).real.min() > 0
        glob = monomials_on(jw_annihilators(3), [s - 1 for s in sites])
        for e, oracle in zip(elems, glob):
            assert np.abs(lift(e.matrix, 3, sites) - oracle).max() <= 1e-12

    @pytest.mark.parametrize("order", [(1.5,), (3, 1.0)])
    def test_basis_sites_converted_through_region(self, order):
        # (1.5,) once built and cached the basis of (1,)
        with pytest.raises(ValueError, match="integers"):
            build_context(3).basis(order)

    @pytest.mark.parametrize("sites", [(1,), (1, 2), (1, 2, 3), (1, 3)])
    def test_parity_split_half_and_half(self, ctx3, sites):
        b = ctx3.basis(sites)
        assert (b.parity == 1).sum() == (b.parity == -1).sum() == b.size // 2

    def test_membership_projection(self, ctx3):
        region = Region((1, 2))
        elems = monomial_basis(ctx3, region)
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=len(elems)) + 1j * rng.normal(size=len(elems))
        inside = OperatorElement(region, sum(c * e.matrix for c, e in zip(coeffs, elems)))
        fixed = conditional_expectation(ctx3, inside, region)
        assert np.linalg.norm(inside.matrix - fixed.matrix) <= 1e-10
        glob = lift(inside.matrix, 3, region.sites)
        assert np.abs(local_image(glob, 3, region.sites) - inside.matrix).max() <= 1e-10
        outside = OperatorElement(Region((3,)), LOWER)
        moved = lift(conditional_expectation(ctx3, outside, region).matrix, 3, region.sites)
        assert np.linalg.norm(lift(LOWER, 3, (3,)) - moved) > 1e-3
        with pytest.raises(ValueError):
            local_image(jw_annihilators(3)[2], 3, region.sites)

    def test_local_iso_roundtrip_and_products(self, ctx3):
        order = (3, 1)  # deliberately non-sorted order
        b = ctx3.basis(order)
        # the images of the ordered monomials of A(3, 1) are the matching
        # monomials of a fresh 2-site lattice: site 3 maps to local site 1
        local = build_context(2).basis((1, 2))
        for glob, loc in zip(b.mats, local.mats):
            assert np.abs(_trace_out(glob, ctx3.lattice.sites, order) / 2 - loc).max() <= 1e-12
            assert np.abs(local_image(glob, 3, order) - loc).max() <= 1e-12
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        c2 = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        x = np.tensordot(c1, b.mats, axes=1)
        y = np.tensordot(c2, b.mats, axes=1)
        lx, ly = local_image(x, 3, order), local_image(y, 3, order)
        assert np.abs(lift(lx, 3, order) - x).max() <= 1e-10
        assert np.abs(_trace_out(x @ y, ctx3.lattice.sites, order) / 2 - lx @ ly).max() <= 1e-10

    def test_oversized_basis_rejected_before_allocating(self):
        ctx = build_context(12)
        with pytest.raises(CapacityError):
            monomial_basis(ctx, ctx.lattice)
        assert not _local_context(12)._bases

    def test_far_apart_sites_on_the_largest_lattice(self):
        # 16 images of size 4 x 4, where the 2^12 global picture asked for 4 GiB
        ctx = build_context(12)
        elems = monomial_basis(ctx, Region((1, 12)))
        assert len(elems) == 16
        assert all(e.matrix.shape == (4, 4) for e in elems)
        assert all(e.region == Region((1, 12)) for e in elems)


class TestConditionalExpectation:
    def test_fixes_members(self, ctx3):
        region = Region((2, 3))
        for elem in monomial_basis(ctx3, region):
            out = conditional_expectation(ctx3, elem, region)
            assert np.abs(out.matrix - elem.matrix).max() <= 1e-12

    def test_kills_orthogonal_odd_outsider(self, ctx3):
        out = conditional_expectation(ctx3, OperatorElement(Region((1,)), LOWER), Region((2,)))
        assert out.region == Region((2,))
        assert np.abs(out.matrix).max() <= 1e-12


@st.composite
def expectation_cases(draw):
    n = draw(st.integers(1, 5))
    source = sorted(draw(st.lists(st.integers(1, n), unique=True)))
    sites = sorted(draw(st.lists(st.integers(1, n), unique=True)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, source, sites, seed


@settings(max_examples=60, deadline=None)
@given(expectation_cases())
@example((3, [1, 3], [2, 3], 0))
@example((4, [2], [1, 4], 1))
def test_conditional_expectation_matches_projection_oracle(case):
    # x in A(S) maps to A(R), R not necessarily inside S; the local result,
    # lifted by oracles.lift, must be the projection of the global oracle matrix
    n, source, sites, seed = case
    ctx = build_context(n)
    rng = np.random.default_rng(seed)
    d = 2 ** len(source)
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = OperatorElement(Region(tuple(source)), x)
    got = conditional_expectation(ctx, x, Region(tuple(sites)))
    assert got.region == Region(tuple(sites))
    want = conditional_expectation_oracle(lift(x.matrix, n, source), n, sites)
    assert np.abs(lift(got.matrix, n, sites) - want).max() <= 1e-12


class TestRelativeCommutant:
    def test_empty_j_gives_scalars(self, ctx3):
        check = relative_commutant_check(ctx3, Region((1, 2)), Region(()))
        assert check.candidate_dim == check.expected_dim == 1
        assert check.ok

    def test_single_sites_explicit(self, ctx2):
        check = relative_commutant_check(ctx2, Region((1,)), Region((2,)))
        assert check.expected_dim == 4
        assert check.candidate_dim == 4
        assert check.generator_residual <= 1e-12
        assert check.nullspace_dim == 4
        assert check.ok

    def test_even_elements_commute_across_regions(self, ctx3):
        rng = np.random.default_rng(4)
        bI = ctx3.basis((1,))
        bJ = ctx3.basis((2, 3))
        even = [m for m, p in zip(bJ.mats, bJ.parity) if p > 0]
        cj = rng.normal(size=len(even))
        x = sum(c * m for c, m in zip(cj, even))
        ci = rng.normal(size=bI.size)
        y = sum(c * m for c, m in zip(ci, bI.mats))
        assert np.abs(x @ y - y @ x).max() <= 1e-10

    def test_overlap_rejected(self, ctx3):
        with pytest.raises(ValueError):
            relative_commutant_check(ctx3, Region((1, 2)), Region((2,)))
        with pytest.raises(ValueError):
            relative_commutant_check(ctx3, Region(()), Region((2,)))

    def test_far_apart_sites_on_the_largest_lattice(self):
        # built on the 2-site lattice of A(1, 12); the 2^12 picture asked for 1 GiB
        check = relative_commutant_check(build_context(12), Region((1,)), Region((12,)))
        assert check.candidate_dim == check.expected_dim == 4
        assert check.nullspace_dim == 4
        assert check.ok

    @pytest.mark.parametrize(
        "I,J",
        [((1,), (2,)), ((2,), (1, 3)), ((1, 3), (2,)), ((2, 3), (1,)), ((1,), (2, 3))],
    )
    def test_small_cases_with_nullspace_oracle(self, ctx3, I, J):
        check = relative_commutant_check(ctx3, Region(I), Region(J))
        assert check.nullspace_dim == 4 ** len(J)
        assert check.ok
