import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

from carentropy.car_algebra import (
    _embed,
    _local_image,
    _local_parity_diag,
    _reorder,
    _reorder_plan,
)

from oracles import conditional_expectation_oracle, jw_annihilators


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

    def test_set_operations(self):
        a, b = Region((1, 2)), Region((2, 3))
        assert a.union(b).sites == (1, 2, 3)
        assert a.intersection(b).sites == (2,)
        assert not a.isdisjoint(b)
        assert Region((1,)).issubset(a)
        assert len(a) == 2 and 2 in a


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

    def test_generators_property(self, ctx2):
        gens = ctx2.generators
        assert len(gens) == 2
        assert np.array_equal(gens[0][1], gens[0][0].conj().T)


class TestParityUnitary:
    def test_single_site_formula(self, ctx1):
        a = ctx1.annihilator(1)
        v = parity_unitary(ctx1, Region((1,)))
        assert np.abs(v.matrix - (a.conj().T @ a - a @ a.conj().T)).max() == 0.0
        assert np.array_equal(np.abs(np.diag(v.matrix)), np.ones(2))

    @pytest.mark.parametrize("sites", [(1,), (2,), (1, 2), (1, 3), (1, 2, 3)])
    def test_selfadjoint_unitary(self, ctx3, sites):
        v = parity_unitary(ctx3, Region(sites)).matrix
        assert np.abs(v - v.conj().T).max() <= 1e-12
        assert np.abs(v @ v - np.eye(8)).max() <= 1e-12

    def test_conjugation_flips_inside_fixes_outside(self, ctx2):
        v = parity_unitary(ctx2, Region((1,))).matrix
        a1, a2 = ctx2.annihilator(1), ctx2.annihilator(2)
        assert np.abs(v @ a1 @ v + a1).max() <= 1e-12
        assert np.abs(v @ a2 @ v - a2).max() <= 1e-12

    def test_implements_grading_on_own_region(self, ctx3):
        region = Region((1, 3))
        v = parity_unitary(ctx3, region).matrix
        for elem in monomial_basis(ctx3, region):
            conj = v @ elem.matrix @ v
            assert np.abs(conj - theta(ctx3, elem).matrix).max() <= 1e-12

    def test_empty_region_flagged(self, ctx2):
        v = parity_unitary(ctx2, Region(()))
        assert np.array_equal(v.matrix, np.eye(4))
        assert v.note is not None

    def test_lies_in_even_part(self, ctx3):
        v = parity_unitary(ctx3, Region((1, 2))).matrix
        even, odd = grade_split(ctx3, v)
        assert np.abs(odd).max() <= 1e-12


class TestTheta:
    def test_negates_generators(self, ctx3):
        for i in (1, 2, 3):
            a = ctx3.annihilator(i)
            assert np.abs(theta(ctx3, a) + a).max() <= 1e-12
            assert np.abs(theta(ctx3, a.conj().T) + a.conj().T).max() <= 1e-12

    def test_fixes_even_monomial(self, ctx2):
        x = ctx2.creator(1) @ ctx2.annihilator(2)
        assert np.abs(theta(ctx2, x) - x).max() <= 1e-12

    def test_involution_on_random(self, ctx3):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.abs(theta(ctx3, theta(ctx3, x)) - x).max() <= 1e-12

    def test_is_automorphism(self, ctx3):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        y = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        assert np.abs(theta(ctx3, x @ y) - theta(ctx3, x) @ theta(ctx3, y)).max() <= 1e-10

    def test_preserves_region_of_element(self, ctx3):
        elem = OperatorElement(ctx3.annihilator(2), Region((2,)))
        assert theta(ctx3, elem).region == Region((2,))


class TestGradeSplit:
    def test_even_input(self, ctx2):
        x = ctx2.creator(1) @ ctx2.annihilator(1)
        even, odd = grade_split(ctx2, x)
        assert np.abs(even - x).max() <= 1e-12
        assert np.abs(odd).max() <= 1e-12

    def test_odd_input(self, ctx2):
        a = ctx2.annihilator(1)
        even, odd = grade_split(ctx2, a)
        assert np.abs(even).max() <= 1e-12
        assert np.abs(odd - a).max() <= 1e-12

    def test_linearity_mixed_input(self, ctx2):
        a = ctx2.annihilator(1)
        num = ctx2.creator(1) @ a
        even, odd = grade_split(ctx2, a + num)
        assert np.abs(even - num).max() <= 1e-12
        assert np.abs(odd - a).max() <= 1e-12

    def test_parts_have_definite_parity(self, ctx3):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        even, odd = grade_split(ctx3, x)
        assert np.abs(theta(ctx3, even) - even).max() <= 1e-12
        assert np.abs(theta(ctx3, odd) + odd).max() <= 1e-12
        assert np.abs(even + odd - x).max() <= 1e-12


class TestMonomialBasis:
    def test_single_site_count(self, ctx2):
        assert len(monomial_basis(ctx2, Region((1,)))) == 4

    @pytest.mark.parametrize("sites", [(1, 2), (1, 3), (2, 3)])
    def test_two_site_gram_diagonal(self, ctx3, sites):
        elems = monomial_basis(ctx3, Region(sites))
        assert len(elems) == 16
        flat = np.stack([e.matrix.ravel() for e in elems])
        gram = flat.conj() @ flat.T / 8
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-12
        assert np.diag(gram).real.min() > 0

    @pytest.mark.parametrize("sites", [(1,), (1, 2), (1, 2, 3), (1, 3)])
    def test_parity_split_half_and_half(self, ctx3, sites):
        b = ctx3.basis(sites)
        assert (b.parity == 1).sum() == (b.parity == -1).sum() == b.size // 2

    def test_membership_projection(self, ctx3):
        b = ctx3.basis((1, 2))
        rng = np.random.default_rng(2)
        coeffs = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        inside = np.tensordot(coeffs, b.mats, axes=1)
        region = Region((1, 2))
        assert np.linalg.norm(inside - conditional_expectation(ctx3, inside, region)) <= 1e-10
        _local_image(ctx3, inside, region.sites)
        outside = ctx3.annihilator(3)
        assert np.linalg.norm(outside - conditional_expectation(ctx3, outside, region)) > 1e-3
        with pytest.raises(ValueError):
            _local_image(ctx3, outside, region.sites)

    def test_local_iso_roundtrip_and_products(self, ctx3):
        order = (3, 1)  # deliberately non-sorted order
        b = ctx3.basis(order)
        # the images of the ordered monomials of A(3, 1) are the matching
        # monomials of a fresh 2-site lattice: site 3 maps to local site 1
        local = build_context(2).basis((1, 2))
        for glob, loc in zip(b.mats, local.mats):
            assert np.abs(_local_image(ctx3, glob, order) - loc).max() <= 1e-12
        rng = np.random.default_rng(3)
        c1 = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        c2 = rng.normal(size=b.size) + 1j * rng.normal(size=b.size)
        x = np.tensordot(c1, b.mats, axes=1)
        y = np.tensordot(c2, b.mats, axes=1)
        lx, ly = _local_image(ctx3, x, order), _local_image(ctx3, y, order)
        assert np.abs(_embed(lx, order, ctx3.lattice.sites) - x).max() <= 1e-10
        assert np.abs(_local_image(ctx3, x @ y, order) - lx @ ly).max() <= 1e-10

    def test_oversized_basis_rejected_before_allocating(self):
        ctx = build_context(12)
        with pytest.raises(CapacityError):
            monomial_basis(ctx, ctx.lattice)
        assert not ctx._bases


class TestConditionalExpectation:
    def test_fixes_members(self, ctx3):
        region = Region((2, 3))
        for elem in monomial_basis(ctx3, region):
            out = conditional_expectation(ctx3, elem, region)
            assert np.abs(out.matrix - elem.matrix).max() <= 1e-12

    def test_kills_orthogonal_odd_outsider(self, ctx3):
        out = conditional_expectation(ctx3, ctx3.annihilator(1), Region((2,)))
        assert np.abs(out).max() <= 1e-12


@st.composite
def expectation_cases(draw):
    n = draw(st.integers(1, 5))
    sites = sorted(draw(st.lists(st.integers(1, n), unique=True)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, sites, seed


@settings(max_examples=60, deadline=None)
@given(expectation_cases())
def test_conditional_expectation_matches_projection_oracle(case):
    n, sites, seed = case
    ctx = build_context(n)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(ctx.dim, ctx.dim)) + 1j * rng.normal(size=(ctx.dim, ctx.dim))
    got = conditional_expectation(ctx, x, Region(tuple(sites)))
    assert np.abs(got - conditional_expectation_oracle(x, n, sites)).max() <= 1e-12


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

    @pytest.mark.parametrize(
        "I,J",
        [((1,), (2,)), ((2,), (1, 3)), ((1, 3), (2,)), ((2, 3), (1,)), ((1,), (2, 3))],
    )
    def test_small_cases_with_nullspace_oracle(self, ctx3, I, J):
        check = relative_commutant_check(ctx3, Region(I), Region(J))
        assert check.nullspace_dim == 4 ** len(J)
        assert check.ok
