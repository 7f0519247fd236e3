"""The counterexample certified in exact rational arithmetic (``tests/exact.py``),
and the package's floating-point values checked against the certificate."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from carentropy import (
    Region,
    build_context,
    build_recipe,
    joint_extension,
    product_extension,
    restrict,
    tracial_state,
    vector_state,
    violation_demo,
)

import exact
from test_counterexamples import twisted_product

# (K; I; J): one site each, then |K| = 2, |I| = 2 and |J| = 2, interleaved
CASES = [
    ((2,), (1,), (3,)),
    ((1, 3), (2,), (4,)),
    ((2,), (1, 3), (4,)),
    ((3,), (1,), (2, 4)),
]
IDS = ["2;1;3", "13;2;4", "2;13;4", "3;1;24"]


def ln2_multiple(n):
    """``n ln 2`` in the exact form of :func:`exact.entropy`."""
    return {2: Fraction(n)} if n else {}


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def case(request):
    K, I, J = request.param
    return K, I, J, exact.certificate(exact.DemoState(K, I, J))


def test_exact_entropies_and_gaps(case):
    K, I, J, (regions, densities, S, gaps) = case
    for name, density in densities.items():
        assert exact.scaled_projector_rank(density) is not None, name
    expected = {"K": 0, "KI": 0, "I": 1, "J": len(J), "KJ": len(J), "KIJ": len(J)}
    assert S == {name: ln2_multiple(n) for name, n in expected.items()}
    # both violated gaps are exactly -ln 2; the demo state saturates SSA
    assert gaps == {"triangle": ln2_multiple(-1), "mono_ssa": ln2_multiple(-1), "ssa": {}}


def test_package_matches_certificate(case):
    K, I, J, (regions, densities, S, gaps) = case
    ctx = build_context(max(K + I + J))
    K, I, J = Region(K), Region(I), Region(J)
    report = violation_demo(ctx, K, I, J)
    full = product_extension(joint_extension(build_recipe(ctx, K, I)), tracial_state(ctx, J))
    for name, sites in regions.items():
        assert abs(report.entropies[name] - exact.to_float(S[name])) <= 1e-15, name
        marginal = restrict(full, Region(tuple(sorted(sites)))).intrinsic()
        certified = np.zeros(marginal.shape)
        for (i, j), v in densities[name].items():
            certified[i, j] = v
        assert np.abs(marginal - certified).max() <= 1e-15, name


def test_rational_point():
    # a pure one-site rho2_tilde with vector (3/5, 4/5): p_theta = 7/25
    tilde = exact.vector_density([Fraction(3, 5), Fraction(4, 5)])
    regions, densities, S, gaps = exact.certificate(
        exact.DemoState((2,), (1,), (3,), rho2_tilde=tilde)
    )
    assert densities["I"] == {(0, 0): Fraction(9, 25), (1, 1): Fraction(16, 25)}
    h = exact.entropy(Counter({Fraction(9, 25): 1, Fraction(16, 25): 1}))
    minus_h = exact.combine((-1, h))
    assert gaps == {"triangle": minus_h, "mono_ssa": minus_h, "ssa": {}}


@pytest.mark.parametrize("K, I, J", [((2,), (1,), (3,)), ((1,), (2,), (3,))], ids=["2;1;3", "1;2;3"])
def test_rational_twisted_product(K, I, J):
    # rho1 and rho2~ are both the vector state (3/5, 4/5): rho1 is not maximally
    # odd, and the I-marginal is the parity mixture of rho2~ with
    # c = Tr(D1 v_K) = 16/25 - 9/25 (v = a* a - a a* is +1 on the occupied state)
    vec = [Fraction(3, 5), Fraction(4, 5)]
    rho1 = tilde = exact.vector_density(vec)
    marginal = exact.DemoState(K, I, J, rho2_tilde=tilde, rho1=rho1).density(I)
    v_K = exact.monomial([exact.PARITY])
    c = exact.expectation(rho1, v_K)
    assert c == Fraction(7, 25)
    # Theta negates the entries between basis states of opposite parity
    tilde_theta = {(i, j): v * (-1) ** bin(i ^ j).count("1") for (i, j), v in tilde.items()}
    mixture = Counter()
    for weight, density in (((1 + c) / 2, tilde), ((1 - c) / 2, tilde_theta)):
        for key, v in density.items():
            mixture[key] += weight * v
    assert marginal == {key: v for key, v in mixture.items() if v}
    assert marginal[(0, 1)] == marginal[(1, 0)] == Fraction(84, 625)
    # the package's Kronecker product agrees with the certificate
    ctx = build_context(3)
    floats = [float(x) for x in vec]
    full = twisted_product(
        vector_state(ctx, Region(K), floats), vector_state(ctx, Region(I), floats)
    )
    certified = np.zeros((2, 2))
    for (i, j), v in marginal.items():
        certified[i, j] = v
    assert np.abs(restrict(full, Region(I)).intrinsic() - certified).max() <= 1e-15
