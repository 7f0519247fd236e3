import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carentropy import (
    CapacityError,
    CarError,
    Region,
    build_context,
    density_distance,
    entropy,
    is_even,
    odd_eigenvector_state,
    parity_unitary,
    pure_extension,
    random_state,
    restrict,
    schmidt,
    state_from_intrinsic,
    symmetric_purification,
    symmetrize,
    tracial_state,
    vector_state,
)
from carentropy.car_algebra import _local_parity_diag, _reorder_rows
from carentropy.tolerances import EIG_FLOOR


def sorted_nonzero_spectrum(state, tol=1e-11):
    lam = np.linalg.eigvalsh(state.intrinsic())
    return np.sort(lam[lam > tol])[::-1]


class TestSchmidt:
    def test_product_vector_single_coefficient(self):
        left = np.array([1.0, 1.0j]) / math.sqrt(2)
        right = np.array([0.0, 1.0])
        dec = schmidt(np.kron(left, right), (2, 2))
        assert dec.lambdas.shape == (1,)
        assert abs(dec.lambdas[0] - 1.0) <= 1e-12

    def test_bell_coefficients(self):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / math.sqrt(2)
        dec = schmidt(vec, (2, 2))
        assert np.abs(dec.lambdas - 1.0 / math.sqrt(2)).max() <= 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(1)
        vec = rng.normal(size=16) + 1j * rng.normal(size=16)
        vec /= np.linalg.norm(vec)
        dec = schmidt(vec, (4, 4))
        assert abs((dec.lambdas ** 2).sum() - 1.0) <= 1e-10
        rebuilt = ((dec.left_vectors * dec.lambdas) @ dec.right_vectors.T).ravel()
        assert np.abs(rebuilt - vec).max() <= 1e-10
        for fam in (dec.left_vectors, dec.right_vectors):
            gram = fam.conj().T @ fam
            assert np.abs(gram - np.eye(fam.shape[1])).max() <= 1e-10

    def test_descending_order(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        dec = schmidt(vec, (2, 4))
        assert np.all(np.diff(dec.lambdas) <= 0)

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            schmidt(np.array([1.0, 1.0, 0.0, 0.0]), (2, 2))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            schmidt(np.array([1.0, 0.0]), (2, 2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # a NaN norm fails every comparison; the check must reject it before the SVD
        with pytest.raises(ValueError, match="vector norm"):
            schmidt(np.array([bad, 0.0, 0.0, 0.0]), (2, 2))

    @pytest.mark.parametrize("dims", [(2,), (2, 1, 1), (2.0, 2), 4, (0, 2), (-1, -2)])
    def test_malformed_dims_rejected(self, dims):
        # (2,) and (2, 1, 1) once failed to unpack, (2.0, 2) in reshape's TypeError
        with pytest.raises(CarError, match="dims must be two positive integers"):
            schmidt(np.array([1.0, 0.0]), dims)


class TestPureExtension:
    def test_restriction_recovers_input(self, ctx3):
        rho = random_state(ctx3, Region((2,)), seed=3)
        ext = pure_extension(rho, Region((1, 3)))
        assert entropy(ext) <= 1e-9
        assert density_distance(restrict(ext, Region((2,))), rho) <= 1e-10

    def test_pure_input_gives_product_vector(self, ctx2):
        rho = random_state(ctx2, Region((1,)), rank=1, seed=4)
        ext = pure_extension(rho, Region((2,)))
        # Schmidt rank 1: the marginal on the partner region is pure too.
        assert entropy(restrict(ext, Region((2,)))) <= 1e-9

    def test_tracial_single_site_maximally_entangled(self, ctx2):
        ext = pure_extension(tracial_state(ctx2, Region((1,))), Region((2,)))
        lam = sorted_nonzero_spectrum(restrict(ext, Region((1,))))
        assert np.abs(lam - 0.5).max() <= 1e-10
        assert entropy(ext) <= 1e-9

    def test_small_partner_allowed_for_low_rank(self, ctx3):
        rho = random_state(ctx3, Region((1, 2)), rank=2, seed=5)
        ext = pure_extension(rho, Region((3,)))  # |J| < |I| but rank fits
        assert density_distance(restrict(ext, Region((1, 2))), rho) <= 1e-10

    def test_capacity_error(self, ctx3):
        rho = random_state(ctx3, Region((1, 2)), rank=4, seed=6)
        with pytest.raises(CapacityError):
            pure_extension(rho, Region((3,)))

    def test_overlap_rejected(self, ctx2):
        rho = random_state(ctx2, Region((1,)), seed=7)
        with pytest.raises(ValueError):
            pure_extension(rho, Region((1, 2)))

    def test_rank_from_eigenvalues_not_factor_columns(self, ctx3):
        # state_from_intrinsic keeps round-off eigenpairs, so the factor of
        # a rank-1 density can have more columns than J = (3,) has partners.
        I = Region((1, 2))
        rng = np.random.default_rng(0)
        widest = 0
        for _ in range(10):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = state_from_intrinsic(ctx3, I, np.outer(v, v.conj()))
            widest = max(widest, rho.factor.shape[1])
            ext = pure_extension(rho, Region((3,)))
            assert density_distance(restrict(ext, I), rho) <= 1e-10
        assert widest > 2


class TestSymmetricPurification:
    def test_output_even_and_pure(self, ctx2):
        rho = random_state(ctx2, Region((1,)), even=True, seed=8)
        ext = symmetric_purification(rho, Region((2,)))
        assert entropy(ext) <= 1e-9
        assert is_even(ext)

    def test_restriction_identity(self, ctx2):
        rho = random_state(ctx2, Region((1,)), even=True, seed=9)
        ext = symmetric_purification(rho, Region((2,)))
        assert density_distance(restrict(ext, Region((1,))), rho) <= 1e-10

    def test_marginal_spectra_equal_multisets(self, ctx4):
        rho = random_state(ctx4, Region((1, 3)), even=True, seed=10)
        ext = symmetric_purification(rho, Region((2, 4)))
        lam_i = sorted_nonzero_spectrum(restrict(ext, Region((1, 3))))
        lam_j = sorted_nonzero_spectrum(restrict(ext, Region((2, 4))))
        assert lam_i.shape == lam_j.shape
        assert np.abs(lam_i - lam_j).max() <= 1e-9

    def test_tracial_partner_forced_tracial(self, ctx2):
        ext = symmetric_purification(tracial_state(ctx2, Region((1,))), Region((2,)))
        partner = restrict(ext, Region((2,)))
        assert density_distance(partner, tracial_state(ctx2, Region((2,)))) <= 1e-10

    def test_purified_vector_in_union_parity_eigenspace(self, ctx2):
        # Even pure states are vector states of parity eigenvectors, so the
        # purification commutes with the union parity unitary.
        rho = random_state(ctx2, Region((1,)), even=True, seed=11)
        ext = symmetric_purification(rho, Region((2,)))
        v = parity_unitary(Region((1, 2))).matrix
        d = ext.intrinsic()
        assert np.abs(v @ d @ v - d).max() <= 1e-10

    def test_noneven_input_rejected(self, ctx2):
        rho = random_state(ctx2, Region((1,)), rank=1, seed=12)
        assert not is_even(rho)
        with pytest.raises(ValueError):
            symmetric_purification(rho, Region((2,)))

    def test_even_pure_extension_property_sweep(self, ctx3):
        # Restrictions of any even pure state have the same nonzero
        # spectrum; combine the purifier with random even inputs.
        for seed in range(15):
            rho = random_state(ctx3, Region((2,)), even=True, seed=seed)
            ext = symmetric_purification(rho, Region((1, 3)))
            lam_i = sorted_nonzero_spectrum(restrict(ext, Region((2,))))
            lam_j = sorted_nonzero_spectrum(restrict(ext, Region((1, 3))))
            assert np.abs(lam_i - lam_j).max() <= 1e-9

    def test_interleaved_regions(self, ctx4):
        rho = random_state(ctx4, Region((2, 4)), even=True, seed=13)
        ext = symmetric_purification(rho, Region((1, 3)))
        assert is_even(ext)
        assert entropy(ext) <= 1e-9
        assert density_distance(restrict(ext, Region((2, 4))), rho) <= 1e-10

    def test_factor_columns_mixing_parities(self, ctx4):
        # symmetrize stacks a noneven factor with its parity image: each
        # column has entries of both parities, though the state is even.
        I = Region((1, 3))
        rho = symmetrize(odd_eigenvector_state(ctx4, I))
        par = parity_unitary(I).matrix.diagonal().real
        assert (rho.factor[par > 0].any(axis=0) & rho.factor[par < 0].any(axis=0)).all()
        ext = symmetric_purification(rho, Region((2, 4)))
        assert is_even(ext)
        assert entropy(ext) <= 1e-9
        assert density_distance(restrict(ext, I), rho) <= 1e-10

    def test_larger_partner_region(self, ctx5):
        I, J = Region((2, 4)), Region((1, 3, 5))
        rho = random_state(ctx5, I, even=True, seed=3)
        ext = symmetric_purification(rho, J)
        assert entropy(ext) <= 1e-9
        assert is_even(ext)
        assert density_distance(restrict(ext, I), rho) <= 1e-10
        lam_i = sorted_nonzero_spectrum(restrict(ext, I))
        lam_j = sorted_nonzero_spectrum(restrict(ext, J))
        assert lam_i.shape == lam_j.shape
        assert np.abs(lam_i - lam_j).max() <= 1e-9


def per_block_purify(rho1, J, blocks):
    """The purified factor from one Gram ``eigh`` per ``(rows, partners)``
    block, eigenpairs read from the end of each ascending ``eigh``: reference."""
    I = rho1.region
    xi = np.zeros((2 ** len(I), 2 ** len(J)), dtype=complex)
    for rows, partners in blocks:
        if not rows.size:
            continue
        x = rho1.factor[rows]
        lam, u = np.linalg.eigh(x @ x.conj().T)
        order = np.arange(lam.size)[::-1][: np.count_nonzero(lam > EIG_FLOOR)]
        if order.size > partners.size:
            raise CapacityError(
                f"rank {order.size} exceeds the {partners.size} partner vectors "
                f"of its block in region {J.sites}"
            )
        u = u[:, order]
        top = u[np.argmax(np.abs(u), axis=0), np.arange(order.size)]
        phases = (top / np.abs(top)).conj()
        xi[rows[:, None], partners[: order.size]] = u * phases * np.sqrt(lam[order])
    vector = xi.reshape(-1, 1) / np.linalg.norm(xi)
    top = vector[np.argmax(np.abs(vector)), 0]
    vector = vector * (top / np.abs(top)).conj()
    return _reorder_rows(vector, I.sites + J.sites, I.union(J).sites)


def parity_blocks(I, J):
    par1, par2 = _local_parity_diag(len(I)), _local_parity_diag(len(J))
    return [(np.flatnonzero(par1 == sign), np.flatnonzero(par2 == sign)) for sign in (1, -1)]


def all_blocks(I, J):
    return [(np.arange(2 ** len(I)), np.arange(2 ** len(J)))]


def assert_matches_reference(extend, rho, J, blocks):
    """Same factor within 1e-15, or the same CapacityError text."""
    try:
        want = per_block_purify(rho, J, blocks)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as got:
            extend(rho, J)
        assert str(got.value) == str(exc)
        return "capacity"
    ext = extend(rho, J)
    assert ext.region == rho.region.union(J)
    assert np.abs(ext.factor - want).max() <= 1e-15
    return "built"


class TestStackedBlocks:
    """Both extensions from one stacked ``eigh``, as one ``eigh`` per block."""

    @staticmethod
    def inputs(ctx, I, rng):
        """Random even states of every rank, the tracial state, and an even
        diagonal density with repeated eigenvalues inside each parity block."""
        d = 2 ** len(I)
        states = [random_state(ctx, I, even=True, rank=r, seed=int(rng.integers(2 ** 31)))
                  for r in range(1, d + 1)]
        states.append(tracial_state(ctx, I))
        weights = rng.integers(1, 3, size=d).astype(float)
        states.append(state_from_intrinsic(ctx, I, np.diag(weights / weights.sum())))
        return states

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random_regions(self, n):
        ctx = build_context(n)
        rng = np.random.default_rng(n)
        seen = set()
        for _ in range(8):
            labels = rng.integers(0, 3, size=n)
            I = Region(tuple(int(s) + 1 for s in np.flatnonzero(labels == 0)))
            J = Region(tuple(int(s) + 1 for s in np.flatnonzero(labels == 1)))
            for rho in self.inputs(ctx, I, rng):
                seen.add(assert_matches_reference(
                    symmetric_purification, rho, J, parity_blocks(I, J)))
                seen.add(assert_matches_reference(pure_extension, rho, J, all_blocks(I, J)))
        assert seen == {"built", "capacity"}

    @pytest.mark.parametrize("I, J", [((), (1, 3)), ((), ()), ((2,), ()), ((1, 3), ())])
    def test_empty_regions(self, ctx3, I, J):
        I, J = Region(I), Region(J)
        rng = np.random.default_rng(len(I) + 3 * len(J))
        states = self.inputs(ctx3, I, rng)
        for k in range(2 ** len(I)):  # even and odd pure states
            states.append(vector_state(ctx3, I, np.eye(2 ** len(I))[k]))
        for rho in states:
            assert_matches_reference(symmetric_purification, rho, J, parity_blocks(I, J))
            assert_matches_reference(pure_extension, rho, J, all_blocks(I, J))

    def test_tied_eigenvalues(self, ctx4):
        # the tracial state: every eigenvalue of each block is the same
        for I, J in (((1,), (2,)), ((1, 3), (2, 4)), ((2, 3, 4), (1,))):
            rho = tracial_state(ctx4, Region(I))
            for extend, blocks in ((symmetric_purification, parity_blocks),
                                   (pure_extension, all_blocks)):
                assert_matches_reference(extend, rho, Region(J), blocks(Region(I), Region(J)))


@st.composite
def purification_cases(draw):
    """An even state of random rank on I and a disjoint partner J with
    |J| >= |I|, both random (often non-contiguous) regions of n <= 4 sites."""
    n = draw(st.integers(2, 4))
    labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    I = Region(tuple(s for s, lab in enumerate(labels, 1) if lab == 0))
    J = Region(tuple(s for s, lab in enumerate(labels, 1) if lab == 1))
    if len(I) > len(J):
        I, J = J, I
    rank = draw(st.integers(1, 2 ** len(I)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return random_state(build_context(n), I, even=True, rank=rank, seed=seed), J


@settings(max_examples=60, deadline=None)
@given(purification_cases())
def test_symmetric_purification_marginal_spectra_match(case):
    rho, J = case
    ext = symmetric_purification(rho, J)
    lam_i = sorted_nonzero_spectrum(restrict(ext, rho.region))
    lam_j = sorted_nonzero_spectrum(restrict(ext, J))
    assert lam_i.shape == lam_j.shape
    assert np.abs(lam_i - lam_j).max() <= 1e-9
    assert density_distance(restrict(ext, rho.region), rho) <= 1e-10


class TestVectorStateHelpers:
    def test_vector_state_requires_unit_norm(self, ctx1):
        with pytest.raises(ValueError):
            vector_state(ctx1, Region((1,)), np.array([1.0, 1.0]))
