import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from carentropy import (
    CarError,
    NotAStateError,
    ExtensionError,
    OperatorElement,
    Region,
    State,
    build_context,
    commuting_square_check,
    conditional_expectation,
    density_distance,
    entropy,
    build_recipe,
    inequality_report,
    is_even,
    mixing_bounds_check,
    monomial_basis,
    mono_ssa_gap,
    monotonicity_curve,
    p_theta,
    parity_unitary,
    product_extension,
    pure_extension,
    random_state,
    relative_commutant_check,
    relative_entropy,
    restrict,
    spectral_data,
    ssa_gap,
    state_from_intrinsic,
    state_from_tau_form,
    symmetric_purification,
    tracial_state,
    transition_probability,
    triangle_gap,
    vector_state,
)
from carentropy.car_algebra import _local_parity_diag
from carentropy.counterexamples import odd_eigenvector_state
from carentropy import states
from carentropy.states import _gaussian_columns, _haar_columns, _spectrum
from carentropy.tolerances import EVEN_TOL

import oracles
from oracles import (
    jw_annihilators,
    monomials_on,
    partial_trace,
    rep,
    restriction_oracle,
    value,
    vn_entropy,
)

LN2 = math.log(2.0)


class TestEntropy:
    def test_pure_state_zero(self, ctx2):
        s = vector_state(ctx2, Region((1,)), np.array([1.0, 0.0]))
        assert abs(entropy(s)) <= 1e-12

    @pytest.mark.parametrize("sites", [(1,), (1, 2), (1, 3)])
    def test_tracial(self, ctx3, sites):
        s = tracial_state(ctx3, Region(sites))
        assert abs(entropy(s) - len(sites) * LN2) <= 1e-12

    def test_single_site_three_quarters(self, ctx1):
        s = state_from_intrinsic(ctx1, Region((1,)), np.diag([0.75, 0.25]))
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert abs(entropy(s) - expected) <= 1e-12
        assert abs(expected - 0.5623351446188083) <= 1e-12

    def test_negative_eigenvalue_raises(self, ctx1):
        bad = np.diag([1.1, -0.1])
        with pytest.raises(NotAStateError):
            entropy(state_from_intrinsic(ctx1, Region((1,)), bad))

    def test_unitary_invariance(self, ctx2):
        rng = np.random.default_rng(0)
        s = random_state(ctx2, Region((1, 2)), seed=1)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        rotated = state_from_intrinsic(ctx2, Region((1, 2)), q @ s.intrinsic() @ q.conj().T)
        assert abs(entropy(rotated) - entropy(s)) <= 1e-9
        assert abs(entropy(s.theta_image()) - entropy(s)) <= 1e-10


class TestMalformedInput:
    # a NaN compares False with every threshold, so each check rejects unless it passes
    def test_nan_vector_rejected(self, ctx2):
        with pytest.raises(CarError, match="norm"):
            vector_state(ctx2, Region((1, 2)), [np.nan, 0, 0, 0])

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)])
    def test_nan_density_entry_rejected(self, ctx1, entry):
        # refused before eigh, whose answer to a NaN depends on the LAPACK build
        density = np.diag([0.5, 0.5]).astype(complex)
        density[entry] = np.nan
        with pytest.raises(NotAStateError, match="non-finite"):
            state_from_intrinsic(ctx1, Region((1,)), density)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_density_entry_rejected(self, ctx1, bad):
        density = np.diag([0.5, 0.5]).astype(complex)
        density[0, 1] = bad
        with pytest.raises(NotAStateError, match="non-finite"):
            state_from_intrinsic(ctx1, Region((1,)), density)

    def test_factor_row_count_checked(self, ctx1):
        with pytest.raises(CarError, match="2 rows"):
            State(Region((1,)), np.ones((3, 1)) / math.sqrt(3))

    def test_non_array_factor_rejected(self, ctx1):
        # a nested list once ended in AttributeError: 'list' object has no attribute 'ndim'
        with pytest.raises(CarError, match="2 rows"):
            State(Region((1,)), [[1.0], [0.0]])

    def test_unnormalized_factor_rejected(self, ctx2):
        # trace 4: its inequality_report once called SSA "violated" with gap 5.55
        with pytest.raises(NotAStateError, match="Tr"):
            State(Region((1, 2)), np.eye(4))

    @pytest.mark.parametrize("scale", [0.5, 1.0 - 2e-8, 1.0 + 2e-8, 2.0])
    def test_scaled_factor_rejected(self, ctx2, scale):
        s = random_state(ctx2, Region((1, 2)), seed=3)
        with pytest.raises(NotAStateError):
            State(s.region, math.sqrt(scale) * s.factor)

    @pytest.mark.parametrize("scale", [1.0 - 5e-9, 1.0 + 5e-9])
    def test_trace_within_tolerance_accepted(self, ctx2, scale):
        s = random_state(ctx2, Region((1, 2)), seed=3)
        State(s.region, math.sqrt(scale) * s.factor)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_factor_rejected(self, ctx1, bad):
        # a NaN one-site factor once had entropy -0.0
        with pytest.raises(NotAStateError):
            State(Region((1,)), np.array([[bad], [0.0]]))

    @pytest.mark.parametrize("negative, accepted", [(4e-9, True), (9e-9, False)])
    def test_positive_part_trace_decides(self, ctx2, negative, accepted):
        # each eigenvalue passes the -1e-8 floor and the density has trace 1,
        # but the kept positive part has trace 1 + 2 * negative: the factor's
        # trace check of State is the one that decides
        u = np.linalg.qr(np.random.default_rng(4).normal(size=(4, 4)))[0]
        lam = np.array([0.7 + 2 * negative, 0.3, -negative, -negative])
        density = (u * lam) @ u.T
        if accepted:
            s = state_from_intrinsic(ctx2, ctx2.lattice, density)
            assert abs(np.vdot(s.factor, s.factor).real - 1.0 - 2 * negative) <= 1e-14
        else:
            with pytest.raises(NotAStateError, match="Tr"):
                state_from_intrinsic(ctx2, ctx2.lattice, density)


    def test_non_hermitian_density_refused(self, ctx1):
        # averaged with its adjoint, this was once taken for a pure state
        with pytest.raises(NotAStateError, match=r"Hermitian: max \|D - D\*\| = 1.000e\+00"):
            state_from_intrinsic(ctx1, Region((1,)), [[0.5, 1.0], [0.0, 0.5]])

    def test_round_off_asymmetry_accepted(self, ctx1):
        density = np.array([[0.5, 0.25 + 1e-12], [0.25, 0.5]])
        s = state_from_intrinsic(ctx1, Region((1,)), density)
        assert np.abs(s.intrinsic() - (density + density.T) / 2).max() <= 1e-14

    # Drawn inputs for every public constructor: a density or factor that is
    # not a state raises NotAStateError, any other bad input CarError.

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 2), bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
    def test_drawn_non_finite_entry_refused(self, ctx2, k, bad, data):
        region, d = Region(tuple(range(1, k + 1))), 2 ** k
        i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
        matrix = np.eye(d, dtype=complex) / math.sqrt(d)
        matrix[i, j] = bad
        with pytest.raises(NotAStateError):
            State(region, matrix)
        for build in (state_from_intrinsic, state_from_tau_form):
            with pytest.raises(NotAStateError, match="non-finite"):
                build(ctx2, region, matrix)
        with pytest.raises(CarError, match="norm"):
            vector_state(ctx2, region, matrix[:, j])

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(0, 2), shape=st.lists(st.integers(0, 5), min_size=1, max_size=3))
    def test_drawn_wrong_shape_refused(self, ctx2, k, shape):
        region, d = Region(tuple(range(1, k + 1))), 2 ** k
        x = np.ones(shape, dtype=complex)
        if len(shape) != 2 or shape[0] != d:
            with pytest.raises(CarError, match="rows"):
                State(region, x)
        if tuple(shape) != (d, d):
            for build in (state_from_intrinsic, state_from_tau_form):
                with pytest.raises(CarError, match=f"{d}x{d}"):
                    build(ctx2, region, x)
        if x.size != d:
            with pytest.raises(CarError, match="length"):
                vector_state(ctx2, region, x)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(0, 2),
        scale=st.floats(1e-3, 1e3).filter(lambda t: abs(t - 1.0) > 1e-7),
        seed=st.integers(0, 2 ** 16),
    )
    def test_drawn_unnormalized_input_refused(self, ctx2, k, scale, seed):
        region = Region(tuple(range(1, k + 1)))
        s = random_state(ctx2, region, seed=seed)
        with pytest.raises(NotAStateError, match="Tr"):
            State(region, math.sqrt(scale) * s.factor)
        with pytest.raises(NotAStateError, match="Tr"):
            state_from_intrinsic(ctx2, region, scale * s.intrinsic())
        with pytest.raises(NotAStateError, match="Tr"):
            state_from_tau_form(ctx2, region, scale * 2 ** k * s.intrinsic())
        pure = random_state(ctx2, region, rank=1, seed=seed)
        with pytest.raises(CarError, match="norm"):
            vector_state(ctx2, region, math.sqrt(scale) * pure.factor)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 2),
        asymmetry=st.floats(2e-8, 1.0),
        phase=st.sampled_from([1.0, -1.0, 1j, -1j]),
        data=st.data(),
    )
    def test_drawn_non_hermitian_density_refused(self, ctx2, k, asymmetry, phase, data):
        region, d = Region(tuple(range(1, k + 1))), 2 ** k
        i = data.draw(st.integers(0, d - 1))
        j = data.draw(st.integers(0, d - 1).filter(lambda j: j != i))
        density = np.eye(d, dtype=complex) / d
        density[i, j] += phase * asymmetry
        for build, scale in ((state_from_intrinsic, 1), (state_from_tau_form, d)):
            with pytest.raises(NotAStateError, match="Hermitian"):
                build(ctx2, region, scale * density)

    @settings(max_examples=40, deadline=None)
    @given(rank=st.one_of(st.integers(-3, 0), st.integers(5, 9), st.floats(), st.just("2")))
    @example(rank=1.5)
    def test_drawn_bad_rank_refused(self, ctx2, rank):
        # rank=1.5 once ended in numpy's TypeError
        with pytest.raises(CarError, match="rank"):
            random_state(ctx2, ctx2.lattice, rank=rank, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), extra=st.integers(1, 8))
    @example(n=1, extra=1)
    def test_drawn_region_off_the_lattice_refused(self, n, extra):
        # the lattice is checked where a region enters: by each constructor
        ctx, region = build_context(n), Region((n + extra,))
        builds = (
            tracial_state,
            random_state,
            odd_eigenvector_state,
            lambda c, r: vector_state(c, r, [1.0, 0.0]),
            lambda c, r: state_from_intrinsic(c, r, np.eye(2) / 2),
            lambda c, r: state_from_tau_form(c, r, np.eye(2)),
        )
        for build in builds:
            with pytest.raises(CarError, match="exceeds"):
                build(ctx, region)

    @pytest.mark.parametrize(
        "build",
        [
            lambda c, r: State(r, np.eye(4) / 2),
            lambda c, r: OperatorElement(r, np.eye(4)),
            tracial_state,
            random_state,
            odd_eigenvector_state,
            lambda c, r: vector_state(c, r, [1.0, 0.0, 0.0, 0.0]),
            lambda c, r: state_from_intrinsic(c, r, np.eye(4) / 4),
            lambda c, r: state_from_tau_form(c, r, np.eye(4)),
        ],
        ids=[
            "State", "OperatorElement", "tracial_state", "random_state",
            "odd_eigenvector_state", "vector_state", "state_from_intrinsic",
            "state_from_tau_form",
        ],
    )
    def test_plain_tuple_region_refused(self, ctx2, build):
        # each once ended in AttributeError: 'tuple' object has no attribute 'sites',
        # or, for State and OperatorElement, was accepted and failed later
        with pytest.raises(CarError, match="must be a Region, got tuple"):
            build(ctx2, (1, 2))

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s, r, A, B, C: restrict(s, (1,)), id="restrict"),
            pytest.param(lambda s, r, A, B, C: ssa_gap(s, (1,), B), id="ssa_gap-I"),
            pytest.param(lambda s, r, A, B, C: ssa_gap(s, A, (2,)), id="ssa_gap-J"),
            pytest.param(lambda s, r, A, B, C: triangle_gap(s, (1,), B), id="triangle_gap-I"),
            pytest.param(lambda s, r, A, B, C: triangle_gap(s, A, (2,)), id="triangle_gap-J"),
            pytest.param(lambda s, r, A, B, C: mono_ssa_gap(s, (1,), B, C), id="mono_ssa_gap-I"),
            pytest.param(lambda s, r, A, B, C: mono_ssa_gap(s, A, (2,), C), id="mono_ssa_gap-J"),
            pytest.param(lambda s, r, A, B, C: mono_ssa_gap(s, A, B, (3,)), id="mono_ssa_gap-K"),
            pytest.param(lambda s, r, A, B, C: inequality_report(s, (1,), B, C), id="report-I"),
            pytest.param(lambda s, r, A, B, C: inequality_report(s, A, (2,), C), id="report-J"),
            pytest.param(lambda s, r, A, B, C: inequality_report(s, A, B, (3,)), id="report-K"),
            pytest.param(lambda s, r, A, B, C: monotonicity_curve(s, (1,), B, [C]), id="curve-I"),
            pytest.param(lambda s, r, A, B, C: monotonicity_curve(s, A, (2,), [C]), id="curve-J"),
            pytest.param(
                lambda s, r, A, B, C: monotonicity_curve(s, A, B, [(3,)]), id="curve-chain"
            ),
            pytest.param(lambda s, r, A, B, C: pure_extension(r, (2,)), id="pure_extension"),
            pytest.param(
                lambda s, r, A, B, C: symmetric_purification(r, (2,)), id="symmetric_purification"
            ),
            pytest.param(
                lambda s, r, A, B, C: commuting_square_check(s, (1,), B), id="commuting_square-I"
            ),
            pytest.param(
                lambda s, r, A, B, C: commuting_square_check(s, A, (2,)), id="commuting_square-J"
            ),
            pytest.param(
                lambda s, r, A, B, C: conditional_expectation(OperatorElement(A, np.eye(2)), (2,)),
                id="conditional_expectation",
            ),
            pytest.param(
                lambda s, r, A, B, C: relative_commutant_check((1,), B), id="relative_commutant-I"
            ),
            pytest.param(
                lambda s, r, A, B, C: relative_commutant_check(A, (2,)), id="relative_commutant-J"
            ),
            pytest.param(lambda s, r, A, B, C: monomial_basis((1,)), id="monomial_basis"),
            pytest.param(lambda s, r, A, B, C: parity_unitary((1,)), id="parity_unitary"),
        ],
    )
    def test_plain_tuple_region_refused_past_the_constructors(self, ctx4, call):
        # each once ended in AttributeError on the tuple's missing .issubset or .sites
        phi = random_state(ctx4, ctx4.lattice, seed=1)
        rho1 = random_state(ctx4, Region((1,)), even=True, seed=1)
        with pytest.raises(CarError, match="must be a Region, got tuple"):
            call(phi, rho1, Region((1,)), Region((2,)), Region((3,)))

    @pytest.mark.parametrize(
        "image", [[["a", "b"], ["c", "d"]], [[None, 0], [0, 1]]], ids=["strings", "objects"]
    )
    def test_non_numeric_operator_image_refused(self, image):
        # the strings were once accepted, and theta of them failed in numpy's UFuncTypeError
        with pytest.raises(CarError, match=r"image of A\(1,\) holds numbers, got dtype "):
            OperatorElement(Region((1,)), image)

    @pytest.mark.parametrize(
        "lam, message",
        [("x", "a real number"), (None, "a real number"), (0.5j, "a real number"),
         (math.nan, r"in \[0, 1\], got nan")],
        ids=["str", "None", "complex", "nan"],
    )
    def test_non_real_mixing_weight_refused(self, ctx1, lam, message):
        # "x" once ended in TypeError: '<=' not supported
        a = tracial_state(ctx1, Region((1,)))
        with pytest.raises(CarError, match=f"lam must be {message}"):
            mixing_bounds_check(a, a, lam)

    @pytest.mark.parametrize("call", [parity_unitary, monomial_basis])
    def test_bare_site_refused_by_the_operator_picture(self, call):
        # without the entry check a site number ended in len()'s or .sites' error
        with pytest.raises(CarError, match="must be a Region, got int"):
            call(1)

    @pytest.mark.parametrize(
        "call",
        [
            transition_probability,
            relative_entropy,
            density_distance,
            lambda a, b: mixing_bounds_check(a, b, 0.5),
        ],
        ids=["transition_probability", "relative_entropy", "density_distance", "mixing_bounds"],
    )
    def test_state_off_the_expected_region_refused(self, ctx2, call):
        # same size, other sites: without the rule each returned a number
        a = random_state(ctx2, Region((1,)), seed=1)
        b = random_state(ctx2, Region((2,)), seed=2)
        with pytest.raises(CarError, match=r"lives on \(2,\), expected \(1,\)"):
            call(a, b)

    @pytest.mark.parametrize(
        "call, names",
        [
            pytest.param(
                lambda c, s, r: product_extension(r, tracial_state(c, Region((1, 2)))), "A and B",
                id="product_extension",
            ),
            pytest.param(
                lambda c, s, r: build_recipe(c, Region((1,)), Region((1, 2))), "K and I",
                id="recipe",
            ),
            pytest.param(
                lambda c, s, r: triangle_gap(s, Region((1,)), Region((1, 2))), "I and J",
                id="triangle_gap",
            ),
            pytest.param(
                lambda c, s, r: mono_ssa_gap(s, Region((1,)), Region((2,)), Region((1, 3))),
                "I, J and K", id="mono_ssa_gap",
            ),
            pytest.param(
                lambda c, s, r: monotonicity_curve(s, Region((1,)), Region((2,)), [Region((1,))]),
                "K and I", id="curve-I",
            ),
            pytest.param(
                lambda c, s, r: monotonicity_curve(s, Region((1,)), Region((2,)), [Region((2,))]),
                "K and J", id="curve-J",
            ),
            pytest.param(
                lambda c, s, r: pure_extension(r, Region((1, 2))), "I and J", id="pure_extension"
            ),
            pytest.param(
                lambda c, s, r: symmetric_purification(r, Region((1, 2))), "I and J",
                id="symmetric_purification",
            ),
            pytest.param(
                lambda c, s, r: relative_commutant_check(Region((1, 2)), Region((2,))), "I and J",
                id="relative_commutant",
            ),
        ],
    )
    def test_overlapping_regions_refused(self, ctx4, call, names):
        # without the rule some computed a number and some failed in numpy's or State's words
        phi = random_state(ctx4, ctx4.lattice, seed=1)
        rho1 = random_state(ctx4, Region((1,)), even=True, seed=1)
        with pytest.raises(CarError, match=f"^{names} must be disjoint regions, got "):
            call(ctx4, phi, rho1)

    @pytest.mark.parametrize(
        "call, name",
        [
            pytest.param(lambda c: odd_eigenvector_state(c, Region(())), "K", id="odd_vector"),
            pytest.param(lambda c: build_recipe(c, Region((2,)), Region(())), "I", id="recipe"),
            pytest.param(
                lambda c: relative_commutant_check(Region(()), Region((2,))), "I",
                id="relative_commutant",
            ),
        ],
    )
    def test_empty_region_refused(self, ctx2, call, name):
        with pytest.raises(CarError, match=f"^{name} must be nonempty$"):
            call(ctx2)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(np.inf, 1.0), np.nan])
    def test_non_finite_tau_form_refused_without_warning(self, ctx1, bad):
        # complex division of an infinite entry once warned before the refusal
        rep = np.eye(2, dtype=complex)
        rep[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAStateError, match="non-finite"):
                state_from_tau_form(ctx1, Region((1,)), rep)


class TestSpectrumClamp:
    """A rank-r factor with 2^k rows and more columns than rows goes through
    ``X X*``; its 2^k - r round-off eigenvalues are exactly zero."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_exactly_the_missing_rank_is_zero(self, k):
        d = 2 ** k
        rng = np.random.default_rng(k)
        for r in sorted({1, d // 2, d - 1}):
            a = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
            b = rng.normal(size=(r, 2 * d + 1)) + 1j * rng.normal(size=(r, 2 * d + 1))
            factor = a @ b
            lam = _spectrum(factor / np.linalg.norm(factor))
            assert lam.shape == (d,)
            assert np.count_nonzero(lam == 0.0) == d - r, (k, r)


class TestNormalizationConvention:
    def test_tau_form_and_intrinsic_roundtrip(self, ctx3):
        s = random_state(ctx3, Region((1, 3)), seed=5)
        back = state_from_tau_form(ctx3, Region((1, 3)), 4 * s.intrinsic())
        assert np.abs(back.intrinsic() - s.intrinsic()).max() <= 1e-12
        assert np.abs(rep(back, 3) - rep(s, 3)).max() <= 1e-10
        # W of the whole lattice is the global oracle representative itself
        full = random_state(ctx3, ctx3.lattice, seed=5)
        again = state_from_tau_form(ctx3, ctx3.lattice, rep(full, 3))
        assert density_distance(again, full) <= 1e-10

    def test_small_eigenvalues_kept(self, ctx2):
        # eigenvalues at and below the 1e-12 round-off floor are part of the
        # state: the factor reproduces the density, its trace and marginals
        u = np.linalg.qr(np.random.default_rng(8).normal(size=(4, 4)))[0]
        lam = np.array([1.0 - 3.5e-12, 2e-12, 1e-12, 5e-13])
        density = (u * lam) @ u.T
        s = state_from_intrinsic(ctx2, ctx2.lattice, density)
        assert s.factor.shape == (4, 4)
        assert np.abs(s.intrinsic() - density).max() <= 1e-15
        assert abs(np.trace(restrict(s, Region((2,))).intrinsic()).real - 1.0) <= 1e-15

    def test_identity_functional_is_one(self, ctx3):
        s = random_state(ctx3, Region((2,)), seed=6)
        assert abs(value(s, np.eye(8)) - 1.0) <= 1e-12

    def test_tau_form_validation(self, ctx2):
        with pytest.raises(NotAStateError):
            state_from_tau_form(ctx2, Region((1,)), 2.0 * np.eye(2))
        # W is the 2^|R| image: a 2^n matrix for a one-site region is refused
        with pytest.raises(CarError):
            state_from_tau_form(ctx2, Region((1,)), np.diag([2.0, 0.0, 0.0, 2.0]))


class TestRestrict:
    def test_requires_containment(self, ctx3):
        s = tracial_state(ctx3, Region((1, 2)))
        with pytest.raises(CarError):
            restrict(s, Region((3,)))

    def test_product_extension_marginals(self, ctx3):
        a = random_state(ctx3, Region((1,)), seed=7)
        b = random_state(ctx3, Region((2, 3)), even=True, seed=8)
        ext = product_extension(a, b)
        assert density_distance(restrict(ext, Region((1,))), a) <= 1e-10
        assert density_distance(restrict(ext, Region((2, 3))), b) <= 1e-10

    def test_even_pure_state_marginal_spectra_match(self, ctx2):
        for seed in range(20):
            s = random_state(ctx2, Region((1, 2)), even=True, rank=1, seed=seed)
            lam1 = np.sort(np.linalg.eigvalsh(restrict(s, Region((1,))).intrinsic()))
            lam2 = np.sort(np.linalg.eigvalsh(restrict(s, Region((2,))).intrinsic()))
            assert np.abs(lam1 - lam2).max() <= 1e-9

    def test_restriction_tower_property(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), seed=9)
        one_step = restrict(s, Region((1,)))
        two_step = restrict(restrict(s, Region((1, 2))), Region((1,)))
        assert np.abs(rep(one_step, 3) - rep(two_step, 3)).max() <= 1e-10

    def test_functional_agreement_on_subalgebra(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), seed=10)
        r = restrict(s, Region((2, 3)))
        for elem, glob in zip(
            monomial_basis(Region((2, 3))), monomials_on(jw_annihilators(3), [1, 2])
        ):
            assert abs(value(s, glob) - value(r, glob)) <= 1e-10
            # phi(x) = Tr(D x) on the local image
            assert abs(np.trace(r.intrinsic() @ elem.matrix) - value(r, glob)) <= 1e-10

    def test_restriction_of_even_state_is_even(self, ctx3):
        s = random_state(ctx3, Region((1, 2, 3)), even=True, seed=11)
        assert is_even(restrict(s, Region((1, 3))))

    def test_empty_region(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), seed=12)
        empty = restrict(s, Region(()))
        assert entropy(empty) == 0.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_prefix_restriction_equals_partial_trace(self, ctx3, k):
        for seed in range(5):
            s = random_state(ctx3, Region((1, 2, 3)), seed=100 + seed)
            mine = restrict(s, Region(tuple(range(1, k + 1)))).intrinsic()
            oracle = partial_trace(s.intrinsic(), [2] * 3, keep=list(range(k)))
            assert np.abs(mine - oracle).max() <= 1e-10


@st.composite
def restriction_cases(draw):
    """A lattice, a parent region S, a region R inside S, and a random state."""
    n = draw(st.integers(1, 5))
    parent = sorted(draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    region = sorted(draw(st.lists(st.sampled_from(parent), unique=True)))
    even = draw(st.booleans())
    rank = draw(st.integers(1, 2 ** n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return n, tuple(parent), tuple(region), even, rank, seed


@settings(max_examples=60, deadline=None)
@given(restriction_cases())
def test_restriction_matches_expectation_value_oracle(case):
    n, parent, region, even, rank, seed = case
    ctx = build_context(n)
    state = random_state(ctx, ctx.lattice, even=even, rank=rank, seed=seed)
    oracle = restriction_oracle(state.intrinsic(), n, region)
    for source in (state, restrict(state, Region(parent))):
        mine = restrict(source, Region(region)).intrinsic()
        assert np.abs(mine - oracle).max() <= 1e-12


class TestIsEven:
    def test_tracial_even(self, ctx2):
        assert is_even(tracial_state(ctx2, Region((1, 2))))

    def test_odd_eigenvector_state_not_even(self, ctx2):
        assert not is_even(odd_eigenvector_state(ctx2, Region((1,))))

    def test_symmetrized_even(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), seed=13)
        sym = state_from_tau_form(
            ctx2, ctx2.lattice, (rep(s, 2) + oracles.theta(rep(s, 2), 2)) / 2.0
        )
        assert is_even(sym)


class TestIsEvenParityColumns:
    """No column with entries in both parities: even at once, with no tolerance."""

    @staticmethod
    def parity_pure_factor(ctx):
        par = _local_parity_diag(3)
        rng = np.random.default_rng(7)
        factor = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
        factor[par < 0, :3] = 0.0
        factor[par > 0, 3:] = 0.0
        return factor / np.linalg.norm(factor)

    def test_parity_pure_columns_even(self, ctx3):
        assert is_even(State(ctx3.lattice, self.parity_pure_factor(ctx3)))

    def test_round_off_entry_in_other_parity_even(self, ctx3):
        factor = self.parity_pure_factor(ctx3)
        factor[np.flatnonzero(_local_parity_diag(3) < 0)[1], 0] = 1e-30
        assert is_even(State(ctx3.lattice, factor))

    def test_mixed_column_beside_parity_pure_ones_noneven(self, ctx3):
        factor = self.parity_pure_factor(ctx3)
        factor[:, 4] = 0.4  # both parities, next to four parity-pure columns
        state = State(ctx3.lattice, factor / np.linalg.norm(factor))
        assert 2 * np.linalg.norm(oracles.odd_block(state.intrinsic()), 2) > EVEN_TOL
        assert not is_even(state)


class TestIsEvenBracket:
    """Frobenius norm and largest entry decide, the spectral norm only in between."""

    @staticmethod
    def with_odd_block(ctx, block):
        par = _local_parity_diag(3)
        plus, minus = np.where(par > 0)[0], np.where(par < 0)[0]
        density = np.eye(8, dtype=complex) / 8
        density[np.ix_(plus, minus)] = block
        density[np.ix_(minus, plus)] = block.conj().T
        return state_from_intrinsic(ctx, Region((1, 2, 3)), density)

    @staticmethod
    def side(block):
        if 2 * np.linalg.norm(block) <= EVEN_TOL:
            return "frobenius"
        if 2 * np.abs(block).max() > EVEN_TOL:
            return "max_entry"
        return "middle"

    @pytest.mark.parametrize("block, side, even", [
        (np.full((4, 4), 0.05 * EVEN_TOL), "frobenius", True),
        (np.diag([0.6 * EVEN_TOL, 0, 0, 0]), "max_entry", False),
        # rank one: |B| = |B|_F = 0.8 EVEN_TOL, every entry 0.2 EVEN_TOL
        (np.full((4, 4), 0.4 * EVEN_TOL / 2), "middle", False),
        # |B| = max|B_ij| = 0.45 EVEN_TOL, |B|_F = 0.9 EVEN_TOL
        (np.diag([0.45 * EVEN_TOL] * 4) * np.exp(0.3j), "middle", True),
    ], ids=["frobenius_even", "max_entry_odd", "middle_odd", "middle_even"])
    def test_each_side_agrees_with_spectral_norm(self, ctx3, block, side, even):
        assert self.side(block) == side
        assert bool(2 * np.linalg.norm(block, 2) <= EVEN_TOL) is even
        assert is_even(self.with_odd_block(ctx3, block)) is even

    def test_random_blocks_agree_with_spectral_norm(self, ctx3):
        rng = np.random.default_rng(5)
        sides = set()
        for _ in range(300):
            rank = int(rng.integers(1, 5))
            block = rng.normal(size=(4, rank)) @ rng.normal(size=(rank, 4))
            block *= 10.0 ** rng.uniform(-1.5, 0.5) * EVEN_TOL / np.linalg.norm(block, 2)
            sides.add(self.side(block))
            want = 2 * np.linalg.norm(block, 2) <= EVEN_TOL
            assert is_even(self.with_odd_block(ctx3, block)) is bool(want)
        assert sides == {"frobenius", "max_entry", "middle"}

    def test_one_row_at_a_time(self, ctx3, ctx4, monkeypatch):
        # pieces of one row: the largest-entry exit, the summed Frobenius norm
        # and the drop of single-parity columns decide as the whole block does
        monkeypatch.setattr(states, "_CHUNK", 1)
        rng = np.random.default_rng(6)
        for _ in range(100):
            block = rng.normal(size=(4, 4)) * 10.0 ** rng.uniform(-1.5, 0.5) * EVEN_TOL
            want = 2 * np.linalg.norm(block, 2) <= EVEN_TOL
            assert is_even(self.with_odd_block(ctx3, block)) is bool(want)
        for seed in range(40):
            state = random_state(ctx4, ctx4.lattice, even=seed % 2 == 0, rank=1 + seed % 16,
                                 seed=seed)
            for source in (state, restrict(state, Region((1, 3, 4)))):
                want = 2 * np.linalg.norm(oracles.odd_block(source.intrinsic()), 2) <= EVEN_TOL
                assert is_even(source) is bool(want) is (seed % 2 == 0)

    def test_even_state_with_parity_mixed_columns(self, ctx4):
        # X = [v+, v-] U / sqrt(rank) with U unitary: every column mixes the
        # two parities, yet X X* is even.  The Gram identity
        # |B|_F^2 = tr(X+* X+ X-* X-) reads about 1e-17 here instead of 0,
        # |B|_F about 3e-9, and would call most of these states noneven.
        par = _local_parity_diag(4)
        rng = np.random.default_rng(3)
        for trial in range(20):
            rank = 2 + trial % 2
            v = np.zeros((16, rank), dtype=complex)
            for j in range(rank):
                rows = par > 0 if j % 2 == 0 else par < 0
                v[rows, j] = rng.normal(size=8) + 1j * rng.normal(size=8)
            v, _ = np.linalg.qr(v)  # columns keep their parity
            u, _ = np.linalg.qr(rng.normal(size=(rank, rank)) + 1j * rng.normal(size=(rank, rank)))
            state = State(ctx4.lattice, v @ u / np.sqrt(rank))
            assert np.abs(state.factor[par < 0]).max() > 0.05
            assert np.abs(state.factor[par > 0]).max() > 0.05
            assert is_even(state)


def full_qr_columns(d, rng, cols):
    """Leading columns of the phase-fixed QR of the whole Gaussian matrix."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return (q * phases.conj())[:, :cols]


class TestHaarColumns:
    """Bit-identical at d <= 128 with one BLAS thread (``conftest.py`` sets it)."""

    @staticmethod
    def assert_same_bits(d, cols, seed):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        mine, full = _haar_columns(rng_a, 1, d, cols)[0], full_qr_columns(d, rng_b, cols)
        assert mine.shape == full.shape == (d, cols)
        assert mine.tobytes() == full.tobytes(), (d, cols)
        assert rng_a.random() == rng_b.random()  # the stream moved by d x d normals

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32])
    def test_every_column_count(self, d):
        for cols in range(1, d + 1):
            self.assert_same_bits(d, cols, seed=100 * d + cols)

    @pytest.mark.parametrize("d", [64, 128])
    def test_sampled_column_counts(self, d):
        rng = np.random.default_rng(d)
        for cols in {1, 2, d // 2, d - 1, d, *rng.integers(1, d + 1, size=6).tolist()}:
            self.assert_same_bits(d, cols, seed=cols)


def per_block_haar(d, rng, cols):
    """The Haar columns of one block as drawn before the stacked draw: reference."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g[:, :cols])
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def per_block_factor(k, rank, seed, even):
    """``V sqrt(w)`` with one draw and one QR per parity block: reference."""
    d = 2 ** k
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=rank)
    weights = weights / weights.sum()
    if even and k:
        par = _local_parity_diag(k)
        plus, minus = np.where(par > 0)[0], np.where(par < 0)[0]
        r_plus = int(rng.integers(max(0, rank - len(minus)), min(rank, len(plus)) + 1))
        cols = []
        for idx, r in ((plus, r_plus), (minus, rank - r_plus)):
            if r:
                embedded = np.zeros((d, r), dtype=complex)
                embedded[idx, :] = per_block_haar(len(idx), rng, r)
                cols.append(embedded)
        v = np.hstack(cols)
    else:
        v = per_block_haar(d, rng, rank)
    return v * np.sqrt(weights)


class TestStackedHaarDraw:
    """Both parity blocks from one draw and one stacked QR, bit for bit as one per block."""

    @pytest.mark.parametrize("half", [1, 2, 4, 8, 16, 32])
    def test_every_split(self, half):
        for r_plus in range(half + 1):
            for r_minus in range(half + 1):
                ranks = [r for r in (r_plus, r_minus) if r]
                if not ranks:
                    continue
                seed = 10_000 * half + 100 * r_plus + r_minus
                rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
                stacked = _haar_columns(rng_a, len(ranks), half, max(ranks))
                for block, r in zip(stacked, ranks):
                    assert block[:, :r].tobytes() == per_block_haar(half, rng_b, r).tobytes()
                assert rng_a.random() == rng_b.random()

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_random_state_factor(self, k):
        for rank in range(1, 2 ** k + 1):
            for even in (False, True):
                seed = 1000 * k + rank
                mine = random_state(build_context(k), Region(tuple(range(1, k + 1))),
                                    even=even, rank=rank, seed=seed)
                want = per_block_factor(k, rank, seed, even)
                assert mine.factor.tobytes() == want.tobytes(), (k, rank, even)


class TestChunkedDraw:
    """Normals drawn a few rows at a time: the same bits and the same stream."""

    @pytest.mark.parametrize("chunk", [1, 1000, 2 ** 16])
    def test_same_as_one_draw(self, monkeypatch, chunk):
        monkeypatch.setattr(states, "_CHUNK", chunk)
        for blocks, size, cols in ((1, 512, 3), (1, 512, 512), (2, 8, 5), (2, 64, 64)):
            rng_a, rng_b = np.random.default_rng(size + cols), np.random.default_rng(size + cols)
            mine = _gaussian_columns(rng_a, blocks, size, cols)
            for block in mine:
                g = rng_b.normal(size=(size, size)) + 1j * rng_b.normal(size=(size, size))
                assert block.tobytes() == np.ascontiguousarray(g[:, :cols]).tobytes()
            assert rng_a.random() == rng_b.random()


@st.composite
def factored_cases(draw):
    """A state on a small lattice, a region of it (often non-contiguous), a parity
    and any rank, so marginal factors are narrower or wider than they are tall."""
    n = draw(st.integers(1, 5))
    region = sorted(draw(st.lists(st.integers(1, n), min_size=1, unique=True)))
    rank = draw(st.integers(1, 2 ** n))
    return n, tuple(region), draw(st.booleans()), rank, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(factored_cases())
def test_factored_marginal_matches_oracle(case):
    n, sites, even, rank, seed = case
    ctx = build_context(n)
    state = random_state(ctx, ctx.lattice, even=even, rank=rank, seed=seed)
    x = state.factor
    assert x.shape == (2 ** n, rank)
    oracle = restriction_oracle(x @ x.conj().T, n, sites)
    marginal = restrict(state, Region(sites))
    assert marginal.factor.shape == (2 ** len(sites), x.size // 2 ** len(sites))
    assert abs(entropy(marginal) - vn_entropy(oracle)) <= 1e-10
    want = np.sort(np.linalg.eigvalsh(oracle))[::-1]
    assert np.abs(spectral_data(marginal).eigenvalues - want).max() <= 1e-12
    par = _local_parity_diag(len(sites))
    odd_block = oracle[np.ix_(par > 0, par < 0)]
    assert is_even(marginal) is bool(2 * np.linalg.norm(odd_block, 2) <= EVEN_TOL)
    par = _local_parity_diag(n)
    odd_block = (x @ x.conj().T)[np.ix_(par > 0, par < 0)]
    assert is_even(state) is bool(2 * np.linalg.norm(odd_block, 2) <= EVEN_TOL)
    if even:
        assert is_even(state) and is_even(marginal)


class TestTransitionProbability:
    def test_identical_states(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), seed=14)
        assert abs(transition_probability(s, s) - 1.0) <= 1e-10

    def test_orthogonal_pure_states(self, ctx1):
        up = vector_state(ctx1, Region((1,)), np.array([1.0, 0.0]))
        down = vector_state(ctx1, Region((1,)), np.array([0.0, 1.0]))
        assert transition_probability(up, down) <= 1e-12

    def test_pure_vs_tracial_half(self, ctx1):
        pure = vector_state(ctx1, Region((1,)), np.array([1.0, 0.0]))
        assert abs(transition_probability(pure, tracial_state(ctx1, Region((1,)))) - 0.5) <= 1e-12

    def test_symmetric_and_bounded(self, ctx2):
        for seed in range(10):
            a = random_state(ctx2, Region((1, 2)), seed=seed)
            b = random_state(ctx2, Region((1, 2)), seed=seed + 100)
            f1, f2 = transition_probability(a, b), transition_probability(b, a)
            assert abs(f1 - f2) <= 1e-9
            assert 0.0 <= f1 <= 1.0

    def test_region_mismatch(self, ctx2):
        a = random_state(ctx2, Region((1,)), seed=1)
        b = random_state(ctx2, Region((2,)), seed=1)
        with pytest.raises(CarError):
            transition_probability(a, b)

    def test_against_square_root_formula(self, ctx3):
        # Full-rank densities and their marginals, whose factors have more
        # columns than rows; the square-root oracle loses accuracy on
        # rank-deficient densities, so pure states use the overlap instead.
        region = Region((1, 3))
        for seed in range(20):
            a = random_state(ctx3, ctx3.lattice, even=seed % 3 == 0, seed=seed)
            b = random_state(ctx3, ctx3.lattice, seed=seed + 50)
            for x, y in ((a, b), (a, a.theta_image()), (restrict(a, region), restrict(b, region))):
                want = oracles.fidelity(x.intrinsic(), y.intrinsic())
                assert abs(transition_probability(x, y) - want) <= 1e-10
            u = random_state(ctx3, ctx3.lattice, rank=1, seed=seed + 100)
            v = random_state(ctx3, ctx3.lattice, rank=1, seed=seed + 200)
            overlap = abs(np.vdot(u.factor[:, 0], v.factor[:, 0])) ** 2
            assert abs(transition_probability(u, v) - overlap) <= 1e-12


class TestPTheta:
    def test_even_state_is_one(self, ctx2):
        assert abs(p_theta(random_state(ctx2, Region((1, 2)), even=True, seed=2)) - 1.0) <= 1e-8

    def test_maximally_odd_is_zero(self, ctx1):
        assert p_theta(odd_eigenvector_state(ctx1, Region((1,)))) <= 1e-8

    def test_mixture_with_tracial_closed_form(self, ctx1):
        # Equal mixture of the odd eigenvector state and the tracial state:
        # in the eigenbasis of the mixture, D = diag(3/4, 1/4) and its parity
        # image is diag(1/4, 3/4), so p_theta = 2 sqrt(3)/4 = sqrt(3)/2.
        region = Region((1,))
        omega = odd_eigenvector_state(ctx1, region)
        mix = state_from_tau_form(
            ctx1, region, 0.5 * rep(omega, 1) + 0.5 * rep(tracial_state(ctx1, region), 1)
        )
        value = p_theta(mix)
        assert 0.0 < value < 1.0
        assert abs(value - math.sqrt(3.0) / 2.0) <= 1e-10

    def test_equals_one_iff_even(self, ctx2):
        region = Region((1, 2))
        for seed in range(25):
            even_flag = seed % 2 == 0
            s = random_state(ctx2, region, even=even_flag, seed=seed)
            if even_flag:
                assert abs(p_theta(s) - 1.0) <= 1e-8
            else:
                assert (p_theta(s) >= 1.0 - 1e-8) == is_even(s)


class TestRelativeEntropy:
    def test_self_is_zero(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), seed=3)
        assert abs(relative_entropy(s, s)) <= 1e-9

    def test_mutual_information_identity(self, ctx2):
        region = Region((1, 2))
        for seed in range(10):
            omega = random_state(ctx2, region, even=True, seed=seed)
            wI = restrict(omega, Region((1,)))
            wJ = restrict(omega, Region((2,)))
            product = product_extension(wI, wJ)
            lhs = relative_entropy(omega, product)
            rhs = entropy(wI) + entropy(wJ) - entropy(omega)
            assert abs(lhs - rhs) <= 1e-9
            assert lhs >= -1e-10

    def test_strict_positivity_for_distinct(self, ctx2):
        a = random_state(ctx2, Region((1, 2)), seed=20)
        b = random_state(ctx2, Region((1, 2)), seed=21)
        assert relative_entropy(a, b) > 1e-4

    def test_support_violation_flagged_infinite(self, ctx1):
        full = tracial_state(ctx1, Region((1,)))
        pure = vector_state(ctx1, Region((1,)), np.array([1.0, 0.0]))
        assert relative_entropy(full, pure) == math.inf
        assert relative_entropy(pure, full) < math.inf


class TestRandomState:
    def test_deterministic(self, ctx2):
        a = random_state(ctx2, Region((1, 2)), seed=42)
        b = random_state(ctx2, Region((1, 2)), seed=42)
        assert np.array_equal(a.factor, b.factor)

    def test_even_flag(self, ctx3):
        for seed in range(10):
            assert is_even(random_state(ctx3, Region((1, 2, 3)), even=True, seed=seed))

    def test_rank_one_pure_and_generically_odd(self, ctx2):
        worst = 1.0
        for seed in range(100):
            s = random_state(ctx2, Region((1, 2)), rank=1, seed=seed)
            assert entropy(s) <= 1e-10
            worst = min(worst, 1.0 - p_theta(s))
        assert worst > 1e-6  # no sampled pure state is anywhere near even

    def test_rank_validation(self, ctx2):
        with pytest.raises(CarError):
            random_state(ctx2, Region((1,)), rank=3, seed=0)
        with pytest.raises(CarError):
            random_state(ctx2, Region((1,)), rank=0, seed=0)

    def test_requested_rank_realized(self, ctx2):
        s = random_state(ctx2, Region((1, 2)), rank=2, seed=9)
        lam = np.linalg.eigvalsh(s.intrinsic())
        assert (lam > 1e-10).sum() == 2


class TestProductExtension:
    def test_entropy_additive_pure_times_even(self, ctx3):
        pure = random_state(ctx3, Region((1,)), rank=1, seed=30)
        even = random_state(ctx3, Region((2, 3)), even=True, seed=31)
        ext = product_extension(pure, even)
        assert abs(entropy(ext) - entropy(pure) - entropy(even)) <= 1e-9

    def test_tracial_times_tracial(self, ctx3):
        ext = product_extension(
            tracial_state(ctx3, Region((1,))), tracial_state(ctx3, Region((2, 3)))
        )
        assert density_distance(ext, tracial_state(ctx3, Region((1, 2, 3)))) <= 1e-12

    def test_functional_factorizes_on_monomials(self, ctx3):
        rng = np.random.default_rng(77)
        a = random_state(ctx3, Region((1, 2)), seed=32)
        b = random_state(ctx3, Region((3,)), even=True, seed=33)
        ext = product_extension(a, b)
        ann = jw_annihilators(3)
        basis_a = monomials_on(ann, [0, 1])
        basis_b = monomials_on(ann, [2])
        for _ in range(200):
            ea = basis_a[rng.integers(len(basis_a))]
            eb = basis_b[rng.integers(len(basis_b))]
            lhs = value(ext, ea @ eb)
            rhs = value(a, ea) * value(b, eb)
            assert abs(lhs - rhs) <= 1e-10

    def test_factor_order_irrelevant(self, ctx3):
        # noneven factor on an interleaved region, even factor either side
        a = random_state(ctx3, Region((1, 3)), seed=34)
        b = random_state(ctx3, Region((2,)), even=True, seed=35)
        assert density_distance(product_extension(a, b), product_extension(b, a)) <= 1e-12

    @pytest.mark.parametrize("scale", [1.0 - 6e-9, 1.0 + 6e-9])
    def test_factors_near_trace_edge_accepted(self, ctx3, scale):
        # each factor passes the trace check of State, but their product
        # misses trace 1 by 1.2e-8 before it is scaled back
        a = random_state(ctx3, Region((1, 3)), seed=34)
        b = random_state(ctx3, Region((2,)), even=True, seed=35)
        exact = product_extension(a, b)
        a, b = (State(s.region, math.sqrt(scale) * s.factor) for s in (a, b))
        ext = product_extension(a, b)
        assert abs(np.vdot(ext.factor, ext.factor).real - 1.0) <= 1e-14
        assert density_distance(ext, exact) <= 1e-14

    def test_product_near_trace_one_kept_exact(self, ctx3):
        # only a product the trace check would refuse is scaled, so the product
        # of two states built to round-off is their Kronecker product, bit for bit
        a = random_state(ctx3, Region((1,)), seed=34)
        b = random_state(ctx3, Region((2, 3)), even=True, seed=35)
        assert np.array_equal(product_extension(a, b).factor, np.kron(a.factor, b.factor))

    def test_neither_factor_even_rejected(self, ctx2):
        a = odd_eigenvector_state(ctx2, Region((1,)))
        b = odd_eigenvector_state(ctx2, Region((2,)))
        with pytest.raises(ExtensionError):
            product_extension(a, b)

    def test_overlap_rejected(self, ctx2):
        a = tracial_state(ctx2, Region((1,)))
        b = tracial_state(ctx2, Region((1, 2)))
        with pytest.raises(CarError):
            product_extension(a, b)


class TestLatticeFree:
    """A state is its region and its factor, whatever lattice it was drawn on."""

    @pytest.mark.parametrize("even", [False, True])
    @pytest.mark.parametrize("sites", [(2,), (1, 3)])
    def test_random_state_same_on_every_lattice(self, ctx3, ctx5, sites, even):
        a = random_state(ctx3, Region(sites), even=even, seed=4)
        b = random_state(ctx5, Region(sites), even=even, seed=4)
        assert np.array_equal(a.factor, b.factor)

    def test_extensions_accept_states_of_different_lattices(self, ctx3, ctx5):
        # each result is the factor of the computation on one lattice, bit for bit
        a3 = random_state(ctx3, Region((1, 3)), seed=36)
        b5 = random_state(ctx5, Region((4, 5)), even=True, seed=37)
        a5 = random_state(ctx5, Region((1, 3)), seed=36)
        assert np.array_equal(product_extension(a3, b5).factor, product_extension(a5, b5).factor)
        rho3 = random_state(ctx3, Region((1, 2)), even=True, seed=38)
        rho5 = random_state(ctx5, Region((1, 2)), even=True, seed=38)
        J = Region((4, 5))  # off the lattice rho3 was drawn on
        assert np.array_equal(
            symmetric_purification(rho3, J).factor, symmetric_purification(rho5, J).factor
        )


class TestSpectralData:
    def test_descending(self, ctx2):
        s = tracial_state(ctx2, Region((1, 2)))
        data = spectral_data(s)
        assert np.all(np.diff(data.eigenvalues) <= 1e-12)
        assert abs(data.eigenvalues.sum() - 1.0) <= 1e-10

    def test_rank_one_marginal_padded_with_exact_zeros(self, ctx3):
        # the 4x2 marginal factor's smaller Gram holds two eigenvalues; the
        # full 4x4 density once gave round-off in place of the other two
        pure = random_state(ctx3, ctx3.lattice, rank=1, seed=56)
        marginal = restrict(pure, Region((1, 3)))
        lam = spectral_data(marginal).eigenvalues
        assert lam.shape == (4,)
        assert np.all(np.diff(lam) <= 0.0)
        assert lam[0] > 0.0 and np.array_equal(lam[2:], [0.0, 0.0])
        assert np.array_equal(lam[:2], _spectrum(marginal.factor)[::-1])


class TestEntropyOracleAgreement:
    def test_against_plain_eigenvalue_formula(self, ctx3):
        for seed in range(10):
            s = random_state(ctx3, Region((1, 2, 3)), seed=seed)
            assert abs(entropy(s) - vn_entropy(s.intrinsic())) <= 1e-10
