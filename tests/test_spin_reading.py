"""The tensor-product (spin) reading of a state's density: a ground truth for noneven states.

Read as a state of a qubit lattice, with the plain partial trace, every
``2^n`` density obeys the triangle inequality (Araki and Lieb, Commun. Math.
Phys. 18, 160, 1970) and strong subadditivity with its monotonicity form
(Lieb and Ruskai, J. Math. Phys. 14, 1938, 1973).  The CAR and spin readings
differ only by the fermionic sign of the reorder, so a spin gap on the wrong
side is a bug in the spectrum, gap or verdict code, never physics.  Prefix
marginals carry no sign, and neither do contiguous marginals of even states,
so there the two readings give the same entropies.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from carentropy import (
    Region,
    State,
    build_context,
    build_recipe,
    entropy,
    is_even,
    joint_extension,
    mono_ssa_gap,
    product_extension,
    restrict,
    tracial_state,
    triangle_gap,
)
from carentropy.inequalities import _mono_ssa, _ssa, _triangle, classify_gap
from carentropy.tolerances import HOLD_TOL

from oracles import partial_trace, spin_restrict

LN2 = math.log(2.0)


def spin_entropies(state):
    """``S(R)`` of the state's density read as a qubit-lattice state."""

    def S(region):
        if not region.sites:
            return 0.0
        factor = spin_restrict(state.factor, state.region.sites, region.sites)
        return entropy(State(region, factor))

    return S


def factor_state(n, rank, seed, even):
    """A state of all ``n`` sites from Gaussian columns; with ``even`` each
    column lives in one parity sector, so the density is even."""
    rng = np.random.default_rng(seed)
    factor = rng.normal(size=(2 ** n, rank)) + 1j * rng.normal(size=(2 ** n, rank))
    if even:
        odd_rows = np.array([bin(i).count("1") % 2 for i in range(2 ** n)])
        factor[odd_rows[:, None] != rng.integers(0, 2, size=rank)] = 0.0
    ctx = build_context(n)
    return State(ctx.lattice, factor / np.linalg.norm(factor))


def contiguous(n):
    return [Region(tuple(range(a, b + 1))) for a in range(1, n + 1) for b in range(a, n + 1)]


@pytest.mark.parametrize("n", [1, 3, 4, 6])
def test_spin_restrict_matches_partial_trace(n):
    rng = np.random.default_rng(n)
    for trial in range(6):
        state = factor_state(n, int(rng.integers(1, 5)), seed=100 * n + trial, even=False)
        density = state.intrinsic()
        for _ in range(4):
            keep = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            sites = tuple(int(i) + 1 for i in keep)
            factor = spin_restrict(state.factor, state.region.sites, sites)
            want = partial_trace(density, [2] * n, [int(i) for i in keep])
            assert np.abs(factor @ factor.conj().T - want).max() <= 1e-13, sites


@st.composite
def spin_cases(draw):
    """A noneven state of n <= 12 sites and rank <= 8, an overlapping pair
    for SSA and three mutually disjoint regions (any of them empty)."""
    n = draw(st.integers(2, 12))
    state = factor_state(n, draw(st.integers(1, 8)), draw(st.integers(0, 2 ** 32 - 1)), False)
    sites = list(range(1, n + 1))
    subset = st.lists(st.sampled_from(sites), unique=True).map(lambda s: Region.of(*s))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    disjoint = tuple(
        Region(tuple(s for s, lab in zip(sites, labels) if lab == k)) for k in range(3)
    )
    return state, (draw(subset), draw(subset)), disjoint


@settings(max_examples=100, deadline=None)
@given(spin_cases())
def test_spin_gaps_hold_on_noneven_states(case):
    state, (A, B), (I, J, K) = case
    assert not is_even(state)
    S = spin_entropies(state)
    gaps = {"ssa": _ssa(S, A, B), "triangle": _triangle(S, I, J), "mono_ssa": _mono_ssa(S, I, J, K)}
    assert gaps["ssa"] <= HOLD_TOL
    assert gaps["triangle"] >= -HOLD_TOL
    assert gaps["mono_ssa"] >= -HOLD_TOL
    assert {kind: classify_gap(kind, gap) for kind, gap in gaps.items()} == dict.fromkeys(
        gaps, "holds"
    )


@pytest.mark.parametrize("n", [2, 5, 8, 12])
def test_even_states_agree_on_contiguous_regions(n):
    for seed, rank in ((n, 1), (n + 1, 8)):
        state = factor_state(n, rank, seed, even=True)
        assert is_even(state)
        S = spin_entropies(state)
        for region in contiguous(n):
            assert abs(entropy(restrict(state, region)) - S(region)) <= 1e-12, region


@pytest.mark.parametrize("n", [2, 5, 9, 12])
@pytest.mark.parametrize("even", [False, True])
def test_every_state_agrees_on_prefixes(n, even):
    state = factor_state(n, 4, seed=n, even=even)
    S = spin_entropies(state)
    for k in range(1, n + 1):
        prefix = Region(tuple(range(1, k + 1)))
        assert abs(entropy(restrict(state, prefix)) - S(prefix)) <= 1e-12, prefix


def test_counterexample_state_holds_as_spin_state():
    ctx = build_context(3)
    K, I, J = Region((2,)), Region((1,)), Region((3,))
    full = product_extension(joint_extension(build_recipe(ctx, K, I)), tracial_state(ctx, J))
    S = spin_entropies(full)
    assert _triangle(S, I, K) >= -HOLD_TOL
    assert _mono_ssa(S, I, J, K) >= -HOLD_TOL
    # the same density read as a CAR state breaks both by ln 2
    assert abs(triangle_gap(full, I, K) + LN2) <= 1e-9
    assert abs(mono_ssa_gap(full, I, J, K) + LN2) <= 1e-9
