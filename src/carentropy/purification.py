"""Schmidt decomposition and pure state extensions on CAR lattices.

The extension machinery works in the tensor picture provided by the
relative commutant: for disjoint ``I`` and ``J`` the union subalgebra
factorizes as ``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.  Numerically the
purifying vector is built in *I-first* mode order, where ``A(I)`` is the
leading factor ``M(2^|I|) (x) 1`` and the commutant is ``1 (x) M(2^|J|)``,
and the vector, the one-column factor of the pure state, is then reordered
to the sorted sites of ``I u J``.  In that picture both region parity
unitaries are diagonal, so the rows of the input's factor ``X``
(``D = X X*``) and the partner columns of the vector, read as a
``2^|I| x 2^|J|`` matrix, each split by parity.

Both extensions are read off ``X``; no density is formed.  A *block* pairs
some rows of ``X`` with the partner columns they may fill.  The
eigenvectors of the block's Gram ``X_b X_b*``, phase-fixed and scaled by
the square roots of their eigenvalues, fill distinct partner columns, so
the vector restricts to ``X_b X_b*`` on those rows.  ``pure_extension``
uses one block, all rows with all partners.  ``symmetric_purification``
needs an *even* input, whose density is block-diagonal across the two
parity eigenspaces, so ``X_+ X_+*`` and ``X_- X_-*`` are its parity blocks
even when a column of ``X`` mixes parities.  Its even rows fill even
partners and its odd rows odd partners, which makes the vector an
eigenvector of the union parity unitary: the output is an even pure state
whose second marginal has the same nonzero spectrum (with multiplicities)
as the input.  For noneven inputs no such spectrum-matched partner is
guaranteed to exist, so only the even case is certified here.

The blocks are stacked index arrays, the rows and partners of
:func:`carentropy.car_algebra._parity_rows` for the two parities, so both
parity blocks go through one gather, one stacked Gram and one stacked
``eigh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .car_algebra import Region, _parity_rows, _reorder_rows, _require_disjoint, _require_region
from .errors import CapacityError, CarError
from .states import State, _phase_fixed, is_even
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
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2
            and all(isinstance(d, (int, np.integer)) and d > 0 for d in dims)):
        raise CarError(f"dims must be two positive integers, got {dims!r}")
    d1, d2 = dims
    vector = np.asarray(vector, dtype=complex).ravel()
    if vector.size != d1 * d2:
        raise CarError(f"vector length {vector.size} != {d1} * {d2}")
    norm = float(np.linalg.norm(vector))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise CarError(f"vector norm {norm:.12f} is not 1")
    u, s, vh = np.linalg.svd(vector.reshape(d1, d2), full_matrices=False)
    keep = s > SCHMIDT_TOL
    return SchmidtDecomposition(s[keep], u[:, keep], vh[keep, :].T)


def _purify(rho1: State, J: Region, rows: np.ndarray, partners: np.ndarray) -> State:
    """The vector state on ``I u J`` built from stacked index blocks.

    Block ``b`` pairs the rows ``rows[b]`` of the factor with the partner
    columns ``partners[b]``, or with none when ``partners`` has fewer
    blocks (the odd rows of an ``I`` purified into an empty ``J``).  One
    gather, one stacked Gram ``X_b X_b*`` and one stacked ``eigh`` serve
    every block.  In each, the eigenvectors above ``EIG_FLOOR`` fill its
    first partners, largest first: they are read from the end of
    ``eigh``'s ascending order, so tied ones keep the reverse of ``eigh``'s
    order and no CPU-dependent sort reorders them.  The eigenvalues decide
    the rank, not the factor's column count, which may include round-off
    columns.
    """
    I = rho1.region
    x = rho1.factor[rows]
    lam, u = np.linalg.eigh(x @ x.conj().transpose(0, 2, 1))
    ranks = np.count_nonzero(lam > EIG_FLOOR, axis=-1)
    for b, rank in enumerate(ranks):
        room = partners.shape[1] if b < len(partners) else 0
        if rank > room:
            raise CapacityError(
                f"rank {rank} exceeds the {room} partner vectors "
                f"of its block in region {J.sites}"
            )
    # the kept eigenpairs end each block's ascending order
    block, col = np.nonzero(np.arange(lam.shape[1]) < ranks[:, None])
    pair = lam.shape[1] - 1 - col
    vectors = _phase_fixed(u[block, :, pair].T) * np.sqrt(lam[block, pair])
    xi = np.zeros((2 ** len(I), 2 ** len(J)), dtype=complex)
    xi[rows[block].T, partners[block, col]] = vectors
    vector = _phase_fixed(xi.reshape(-1, 1) / np.linalg.norm(xi))
    region = I.union(J)
    return State(region, _reorder_rows(vector, I.sites + J.sites, region.sites))


def pure_extension(rho1: State, J: Region) -> State:
    """A pure state on ``A(I u J)`` restricting to ``rho1`` on ``A(I)``.

    One block: every row of the factor, every partner column.  Needs
    ``2^|J|`` at least as large as the rank of ``rho1``.
    """
    _require_region(J)
    _require_disjoint(I=rho1.region, J=J)
    rows, partners = np.arange(2 ** len(rho1.region)), np.arange(2 ** len(J))
    return _purify(rho1, J, rows[None], partners[None])


def symmetric_purification(rho1: State, J: Region) -> State:
    """Even pure extension of an even state with spectrum-matched marginals.

    Two blocks from :func:`_parity_rows` (one for an empty region): the
    even rows of the factor fill even partner columns and the odd rows odd
    ones.  The density of an even input is block-diagonal across the two
    eigenspaces of the region parity unitary, so each block's Gram
    ``X_b X_b*`` is exactly one parity block of the density, whatever
    parities the factor's columns mix.  This cannot run out of partners
    when ``|J| >= |I|``.
    """
    _require_region(J)
    _require_disjoint(I=rho1.region, J=J)
    if not is_even(rho1):
        raise CarError("symmetric purification requires an even input state")
    return _purify(rho1, J, _parity_rows(len(rho1.region)), _parity_rows(len(J)))
