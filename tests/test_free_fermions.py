"""Slater determinants against the free-fermion oracle, up to the 12-site lattice.

The restriction of a Slater determinant to any region, contiguous or not, is
quasi-free, and its entropy comes from the region's block of the correlation
matrix (``oracles.correlation_entropy``).  No reorder sign enters the oracle,
while every non-contiguous restriction in the package goes through one.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from carentropy import Region, build_context, entropy, restrict, vector_state
from oracles import correlation_entropy, jw_annihilators, slater_vector


@st.composite
def slater_cases(draw):
    n = draw(st.integers(1, 12))
    particles = draw(st.integers(0, n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    region = draw(st.sets(st.integers(1, n), min_size=1))
    return n, particles, seed, sorted(region)


def orbitals(n, particles, seed):
    """``particles`` orthonormal complex orbitals on ``n`` sites, as columns."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(z)[0][:, :particles]


def test_slater_vector_matches_jordan_wigner_matrices():
    phi = orbitals(3, 2, seed=5)
    creators = [a.conj().T for a in jw_annihilators(3)]
    vec = np.zeros(8, dtype=complex)
    vec[0] = 1.0
    for orbital in phi.T[::-1]:
        vec = sum(c * m for c, m in zip(orbital, creators)) @ vec
    np.testing.assert_allclose(slater_vector(phi), vec, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(slater_cases())
@example((12, 6, 1, [1, 3, 4, 8, 12]))
@example((12, 5, 2, [2, 5, 6, 7, 9, 10, 11]))
def test_entropy_of_a_restriction_matches_correlation_matrix(case):
    n, particles, seed, sites = case
    phi = orbitals(n, particles, seed)
    ctx = build_context(n)
    state = vector_state(ctx, ctx.lattice, slater_vector(phi))
    got = entropy(restrict(state, Region(tuple(sites))))
    assert abs(got - correlation_entropy(phi.conj() @ phi.T, sites)) <= 1e-12
