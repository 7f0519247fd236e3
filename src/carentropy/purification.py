"""Schmidt decomposition and pure state extensions on CAR lattices.

The extension machinery works in the tensor picture provided by the
relative commutant: for disjoint ``I`` and ``J`` the union subalgebra
factorizes as ``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.  Numerically the
purifying vector is built in *I-first* mode order, where ``A(I)`` is the
leading factor ``M(2^|I|) (x) 1`` and the commutant is ``1 (x) M(2^|J|)``,
and the vector, the one-column factor of the pure state, is then reordered
to the sorted sites of ``I u J``.  In that picture both region parity
unitaries are diagonal, so parity-definite eigenbases are available by
construction.

``pure_extension`` pairs the eigenvectors of the input density with an
arbitrary orthonormal family in the commutant factor.  For an *even* input
``symmetric_purification`` pairs them with partner vectors of matching
parity eigenvalue (+1 with +1, -1 with -1), which makes the purifying
vector an eigenvector of the union parity unitary: the output is an even
pure state whose second marginal has the same nonzero spectrum (with
multiplicities) as the input.  For noneven inputs no such spectrum-matched
partner is guaranteed to exist, so only the even case is certified here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .car_algebra import Region, _local_parity_diag, _reorder_rows
from .errors import CapacityError
from .states import State, is_even
from .tolerances import EIG_FLOOR, NORM_TOL, SCHMIDT_TOL

__all__ = [
    "SchmidtDecomposition",
    "schmidt",
    "pure_extension",
    "symmetric_purification",
]


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Schmidt form ``xi = sum_i lambda_i (left_i (x) right_i)``.

    Coefficients are descending and positive; the vector families are
    orthonormal columns.  ``sum lambda_i^2 = 1`` for a unit input vector.
    """

    lambdas: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray


def schmidt(vector: np.ndarray, dims: tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a unit vector across a ``d1 x d2`` split."""
    d1, d2 = dims
    vector = np.asarray(vector, dtype=complex).ravel()
    if vector.size != d1 * d2:
        raise ValueError(f"vector length {vector.size} != {d1} * {d2}")
    norm = float(np.linalg.norm(vector))
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"vector norm {norm:.12f} is not 1")
    u, s, vh = np.linalg.svd(vector.reshape(d1, d2), full_matrices=False)
    keep = s > SCHMIDT_TOL
    return SchmidtDecomposition(s[keep], u[:, keep], vh[keep, :].T)


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude coordinate real positive (reproducibility)."""
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    return vec * phase.conj()


def _eig_descending(density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, u = np.linalg.eigh(density)
    order = np.argsort(-lam)
    return lam[order], u[:, order]


def _assemble(rho1: State, J: Region, pairs) -> State:
    """Build the vector state from (weight, left vector, partner index) pairs.

    In I-first order the vector, read as a ``2^|I| x 2^|J|`` matrix, holds
    ``sqrt(weight) left`` in the partner's column.
    """
    I = rho1.region
    xi = np.zeros((2 ** len(I), 2 ** len(J)), dtype=complex)
    for lam, left, partner in pairs:
        xi[:, partner] = np.sqrt(lam) * left
    xi = _phase_fixed(xi.ravel() / np.linalg.norm(xi))
    region = I.union(J)
    return State(rho1.ctx, region, _reorder_rows(xi[:, None], I.sites + J.sites, region.sites))


def pure_extension(rho1: State, J: Region) -> State:
    """A pure state on ``A(I u J)`` restricting to ``rho1`` on ``A(I)``.

    Needs ``2^|J|`` at least as large as the rank of ``rho1``; partner
    vectors are taken in index order, ties in the input spectrum resolved
    deterministically by the eigensolver.
    """
    ctx = rho1.ctx
    ctx.check_region(J)
    I = rho1.region
    if not I.isdisjoint(J):
        raise ValueError(f"regions overlap: {I.sites} and {J.sites}")
    lam, u = _eig_descending(rho1.intrinsic())
    keep = np.where(lam > EIG_FLOOR)[0]
    d2 = 2 ** len(J)
    if len(keep) > d2:
        raise CapacityError(
            f"rank {len(keep)} exceeds partner dimension 2^{len(J)} = {d2}"
        )
    pairs = [(lam[i], u[:, i], m) for m, i in enumerate(keep)]
    return _assemble(rho1, J, pairs)


def symmetric_purification(rho1: State, J: Region) -> State:
    """Even pure extension of an even state with spectrum-matched marginals.

    Eigenvectors of the input density are taken parity-definite (the
    density commutes with the region parity unitary, so it is
    block-diagonal across its two eigenspaces) and each is paired with a
    fresh partner vector of the *same* parity eigenvalue in the complement
    factor.  This cannot run out of partners when ``|J| >= |I|``.
    """
    ctx = rho1.ctx
    ctx.check_region(J)
    I = rho1.region
    if not I.isdisjoint(J):
        raise ValueError(f"regions overlap: {I.sites} and {J.sites}")
    if not is_even(rho1):
        raise ValueError("symmetric purification requires an even input state")

    d1 = rho1.intrinsic()
    par1 = _local_parity_diag(len(I))
    par2 = _local_parity_diag(len(J))

    # Parity-definite eigenbasis: diagonalize each parity block separately.
    eigenpairs = []
    for sign in (1.0, -1.0):
        idx = np.where(par1 == sign)[0]
        if idx.size == 0:
            continue
        block = d1[np.ix_(idx, idx)]
        lam, u = _eig_descending(block)
        for col in range(u.shape[1]):
            if lam[col] <= EIG_FLOOR:
                continue
            vec = np.zeros(d1.shape[0], dtype=complex)
            vec[idx] = _phase_fixed(u[:, col])
            eigenpairs.append((float(lam[col]), vec, sign))
    eigenpairs.sort(key=lambda t: (-t[0], -t[2]))

    pools = {1.0: list(np.where(par2 > 0)[0]), -1.0: list(np.where(par2 < 0)[0])}
    pairs = []
    for lam, vec, sign in eigenpairs:
        if not pools[sign]:
            raise CapacityError(
                f"no unused parity-{int(sign):+d} partner vectors left in region {J.sites}"
            )
        pairs.append((lam, vec, pools[sign].pop(0)))
    return _assemble(rho1, J, pairs)
