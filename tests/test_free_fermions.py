"""Slater determinants against the free-fermion oracle, up to the 12-site lattice.

The restriction of a Slater determinant to any region, contiguous or not, is
quasi-free, and its entropy comes from the region's block of the correlation
matrix (``oracles.correlation_entropy``).  No reorder sign enters the oracle,
while every non-contiguous restriction in the package goes through one.  A
Slater determinant is even, so each gap of its inequality report holds and is
a sum of such entropies: the paper's positive cells at n = 12.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from carentropy import Region, build_context, entropy, inequality_report, restrict, vector_state
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


@st.composite
def slater_triples(draw):
    """Disjoint nonempty ``I``, ``J``, ``K`` drawn from a shuffle of ``n`` sites."""
    n = draw(st.sampled_from([8, 12]))
    sites = draw(st.permutations(range(1, n + 1)))
    i, j = draw(st.integers(1, n - 2)), draw(st.integers(1, n - 2))
    j = min(j, n - 1 - i)
    k = draw(st.integers(1, n - i - j))
    I, J, K = (sorted(sites[a:b]) for a, b in ((0, i), (i, i + j), (i + j, i + j + k)))
    return n, draw(st.integers(0, n)), draw(st.integers(0, 2 ** 32 - 1)), I, J, K


@settings(max_examples=30, deadline=None)
@given(slater_triples())
@example((12, 6, 3, [1, 5, 9], [2, 6, 10, 12], [3, 4, 7, 8, 11]))
@example((8, 3, 4, [2, 7], [1, 8], [3, 4, 5, 6]))
def test_slater_gaps_hold_and_match_correlation_matrix(case):
    # a Slater determinant is even, so every gap of the paper holds for it
    n, particles, seed, I, J, K = case
    phi = orbitals(n, particles, seed)
    C = phi.conj() @ phi.T
    ctx = build_context(n)
    state = vector_state(ctx, ctx.lattice, slater_vector(phi))
    report = inequality_report(state, *(Region(tuple(r)) for r in (I, J, K)))
    assert report.even_state
    assert report.verdicts == {"ssa": "holds", "triangle": "holds", "mono_ssa": "holds"}

    def S(*regions):
        return correlation_entropy(C, sorted(sum(regions, []))) if regions else 0.0

    assert abs(report.ssa_gap - (S(I, J) - S(I) - S(J))) <= 1e-11
    assert abs(report.triangle_gap - (S(I, J) - abs(S(I) - S(J)))) <= 1e-11
    assert abs(report.mono_ssa_gap - (S(K, I) + S(K, J) - S(I) - S(J))) <= 1e-11
