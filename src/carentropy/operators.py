"""The operator picture: images of ``A(R)``, grading, expectations, commutants.

An :class:`OperatorElement` is ``(region, 2^|R| x 2^|R| image)`` under the
identification ``A(R) ~ M(2^|R|)`` of :mod:`carentropy.car_algebra`, as a
state is ``(region, factor X)`` of its density ``X X*``.  The module gives
the grading ``Theta`` (conjugation by ``diag(_local_parity_diag(|R|))``),
the parity unitaries ``v_R = prod_i (a_i* a_i - a_i a_i*)``, trace-compatible
conditional expectations ``A(S) -> A(R)``, tracially orthogonal monomial
bases, and checks of the commuting square and of the relative-commutant
identity ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-``, which underlies
``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.

The state core (``states``, ``purification``, ``inequalities``,
``counterexamples``, ``cli``) imports nothing from here.  All operations are
pure functions on dense ``complex128`` images; an operator of ``A(R)`` costs
``4^|R|`` entries whatever ``n`` is.  No function takes a lattice, so none
checks a region against one.  Only :func:`monomial_basis`
and :func:`relative_commutant_check` build a basis, on a cached ``|R|``-site
(respectively ``|I u J|``-site) lattice, the only lattice the module knows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .car_algebra import (
    AlgebraContext, Region, _local_parity_diag, _reorder_rows, _require_disjoint,
    _require_nonempty, _require_region, _require_within,
)
from .errors import CarError
from .states import State, restrict
from .tolerances import (
    CAR_ATOL, COMMUTING_SQUARE_TOL, NULLSPACE_RESIDUAL_TOL, ODD_WITNESS_MIN, RANK_TOL,
)

__all__ = [
    "OperatorElement",
    "CommutantCheck",
    "CommutingSquareReport",
    "parity_unitary",
    "theta",
    "grade_split",
    "monomial_basis",
    "conditional_expectation",
    "relative_commutant_check",
    "commuting_square_check",
]


@dataclass(frozen=True)
class OperatorElement:
    """An element of ``A(region)``, held as its ``2^|R| x 2^|R|`` image ``matrix``."""

    region: Region
    matrix: np.ndarray

    def __post_init__(self):
        _require_region(self.region)
        d = 2 ** len(self.region)
        if np.shape(self.matrix) != (d, d):
            raise CarError(
                f"an element of A{self.region.sites} is a {d}x{d} image, "
                f"got shape {np.shape(self.matrix)}"
            )


def _reorder(matrix: np.ndarray, src: tuple[int, ...], dst: tuple[int, ...]) -> np.ndarray:
    """Re-express a matrix on the modes ``src`` (in that order) in the order
    ``dst``: :func:`_reorder_rows` on its rows, then on its columns."""
    return _reorder_rows(_reorder_rows(matrix, src, dst).T, src, dst).T


def _trace_out(matrix: np.ndarray, outer: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Partial trace of a matrix on the modes ``outer`` down to the modes ``keep``.

    The result acts on the modes of ``keep`` in the order given there.
    """
    rest = tuple(s for s in outer if s not in keep)
    front = _reorder(matrix, outer, keep + rest)
    k, r = 2 ** len(keep), 2 ** len(rest)
    return np.trace(front.reshape(k, r, k, r), axis1=1, axis2=3)


@functools.lru_cache(maxsize=None)
def _local_context(k: int) -> AlgebraContext:
    """The shared ``k``-site lattice on which the images of ``A(R)``, ``|R| = k``, live."""
    return AlgebraContext(k)


def parity_unitary(region: Region) -> OperatorElement:
    """Self-adjoint unitary ``v_R`` implementing the grading on ``A(R)``.

    Its image is diagonal; the empty region gives the ``1 x 1`` identity.
    """
    _require_region(region)
    return OperatorElement(region, np.diag(_local_parity_diag(len(region))))


def theta(x: OperatorElement) -> OperatorElement:
    """The grading automorphism, ``a_i -> -a_i`` for every site.

    It maps each ``A(R)`` onto itself, so the region is preserved.
    """
    par = _local_parity_diag(len(x.region))
    return OperatorElement(x.region, par[:, None] * x.matrix * par[None, :])


def grade_split(x: OperatorElement) -> tuple[OperatorElement, OperatorElement]:
    """Split into (even, odd) parts: ``x_+/- = (x +/- Theta(x)) / 2``."""
    tm = theta(x).matrix
    return (
        OperatorElement(x.region, (x.matrix + tm) / 2.0),
        OperatorElement(x.region, (x.matrix - tm) / 2.0),
    )


def monomial_basis(region: Region) -> list[OperatorElement]:
    """The ``4^|R|`` tracially orthogonal, parity-definite monomials spanning ``A(R)``.

    Their images are the monomials of the ``|R|``-site lattice.
    """
    _require_region(region)
    if not region.sites:
        return [OperatorElement(region, np.ones((1, 1), dtype=complex))]
    k = len(region)
    b = _local_context(k).basis(tuple(range(1, k + 1)))
    return [OperatorElement(region, m) for m in b.mats]


def conditional_expectation(x: OperatorElement, region: Region) -> OperatorElement:
    """Trace-compatible conditional expectation of ``x`` onto ``A(region)``.

    ``x (x) 1`` is one Kronecker product on the modes of ``x.region``
    followed by ``rest = region \\ x.region``; it is traced down to
    ``region`` (one reorder) and divided by ``2^|x.region \\ region|``.
    """
    _require_region(region)
    rest = region.difference(x.region)
    lifted = np.kron(x.matrix, np.eye(2 ** len(rest)))
    local = _trace_out(lifted, x.region.sites + rest.sites, region.sites)
    return OperatorElement(region, local / 2 ** (len(x.region) + len(rest) - len(region)))


@dataclass(frozen=True)
class CommutantCheck:
    """Verification record for the relative-commutant identity on (I, J).

    The candidate span is ``A(J)_+ u v_I A(J)_-``.  ``generator_residual``
    is the largest commutator norm of a candidate element against a
    generator of ``A(I)`` (zero in exact arithmetic);
    ``candidate_dim`` counts its linearly independent members, which must be
    ``4^|J|``, the dimension of the commutant of a ``2^|I|``-dimensional
    full matrix subalgebra inside ``A(I u J)``.  ``even_residual`` /
    ``odd_witness`` certify ``A(I)' n A(J) = A(J)_+``.  When
    ``nullspace_dim`` is set, the commutant dimension was additionally
    recomputed from scratch as the nullspace of the stacked commutator
    constraints and the candidate was verified to lie inside it.
    """

    I: Region
    J: Region
    candidate_dim: int
    expected_dim: int
    generator_residual: float
    gram_offdiagonal: float
    even_residual: float
    odd_witness: float
    nullspace_dim: int | None = None
    nullspace_residual: float | None = None

    @property
    def ok(self) -> bool:
        checks = [
            self.candidate_dim == self.expected_dim,
            self.generator_residual <= CAR_ATOL,
            self.gram_offdiagonal <= CAR_ATOL,
            self.even_residual <= CAR_ATOL,
            self.odd_witness > ODD_WITNESS_MIN or not self.J.sites,
        ]
        if self.nullspace_dim is not None:
            checks.append(self.nullspace_dim == self.expected_dim)
            checks.append((self.nullspace_residual or 0.0) <= NULLSPACE_RESIDUAL_TOL)
        return all(checks)


def _stack_commutators(stack: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Commutators ``[stack[n], g]`` for a stack of matrices, via two GEMMs."""
    n, d, _ = stack.shape
    flat = stack.reshape(n * d, d)
    right = (flat @ g).reshape(n, d, d)
    left = (stack.transpose(0, 2, 1).reshape(n * d, d) @ g.T).reshape(n, d, d)
    return right - left.transpose(0, 2, 1)


def relative_commutant_check(I: Region, J: Region) -> CommutantCheck:
    """Verify ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` and ``A(I)' n A(J) = A(J)_+``.

    Everything lives on the ``|I u J|``-site lattice of the images of
    ``A(I u J)``, with ``A(I)`` and ``A(J)`` at their positions in ``I u J``.
    The from-scratch nullspace recomputation runs when ``|I| + |J| <= 3``;
    it is quartic in ``4^(|I|+|J|)`` and not needed for the identity itself,
    whose dimension count is forced once the candidate commutes and is
    independent.
    """
    _require_region(I)
    _require_region(J)
    _require_nonempty(I=I)
    _require_disjoint(I=I, J=J)

    union = I.union(J)
    local = _local_context(len(union))
    pos_I = tuple(union.sites.index(s) + 1 for s in I.sites)
    bJ = local.basis(tuple(union.sites.index(s) + 1 for s in J.sites))
    # v_I is diagonal, so v_I @ m is a row scaling
    v_I = np.diag(conditional_expectation(parity_unitary(I), union).matrix).real
    twisted = v_I[None, :, None] * bJ.mats
    candidate = np.where((bJ.parity > 0)[:, None, None], bJ.mats, twisted)

    gens = [local.annihilator(p) for p in pos_I] + [local.creator(p) for p in pos_I]
    generator_residual = 0.0
    # A(I)' n A(J) = A(J)_+ : even monomials commute, odd monomials do not.
    per_monomial = np.zeros(bJ.size)
    for g in gens:
        comm = _stack_commutators(candidate, g)
        generator_residual = max(generator_residual, float(np.abs(comm).max()))
        plain = _stack_commutators(bJ.mats, g)
        per_monomial = np.maximum(per_monomial, np.abs(plain).reshape(bJ.size, -1).max(axis=1))
    even_residual = float(per_monomial[bJ.parity > 0].max())
    odd = per_monomial[bJ.parity < 0]
    odd_witness = float(odd.min()) if odd.size else 0.0

    flat = candidate.reshape(bJ.size, -1)
    gram = flat.conj() @ flat.T / local.dim
    gram_offdiagonal = float(np.abs(gram - np.diag(np.diag(gram))).max())
    candidate_dim = int(np.sum(np.linalg.eigvalsh(gram) > RANK_TOL))

    nullspace_dim = None
    nullspace_residual = None
    if len(union) <= 3:
        bU = local.basis(local.lattice.sites)
        blocks = [_stack_commutators(bU.mats, g).reshape(bU.size, -1) for g in gens]
        constraints = np.hstack(blocks).T  # rows: constraint entries, cols: basis coeffs
        svals = np.linalg.svd(constraints, compute_uv=False)
        nullspace_dim = int(np.sum(svals <= RANK_TOL)) + max(0, bU.size - len(svals))
        u_flat = bU.mats.reshape(bU.size, -1)
        u_norms = np.einsum("ij,ij->i", u_flat.conj(), u_flat).real
        coeffs = (flat @ u_flat.conj().T) / u_norms
        nullspace_residual = float(np.abs(constraints @ coeffs.T).max())

    return CommutantCheck(
        I, J, candidate_dim, 4 ** len(J), generator_residual, gram_offdiagonal,
        even_residual, odd_witness, nullspace_dim, nullspace_residual,
    )


@dataclass(frozen=True)
class CommutingSquareReport:
    """Residuals of the conditional-expectation compatibility identities.

    On random elements ``x`` of ``A(I u J)``, with ``F = E_{I n J}``:
    ``E_I E_J x = E_I F x``, ``E_J E_I x = E_J F x``, and
    ``F E_I x = F E_J x = F x``; plus the state-level counterpart
    ``restrict(restrict(phi, I), I n J) = restrict(phi, I n J)``.
    """

    I: Region
    J: Region
    trials: int
    operator_residual: float
    state_residual: float

    @property
    def ok(self) -> bool:
        return (
            self.operator_residual <= COMMUTING_SQUARE_TOL
            and self.state_residual <= COMMUTING_SQUARE_TOL
        )


def commuting_square_check(
    state: State, I: Region, J: Region, *, trials: int = 8, seed=0
) -> CommutingSquareReport:
    """Verify the commuting-square property on operators and on the state."""
    _require_within(state.region, I=I, J=J)
    inter = I.intersection(J)
    union = I.union(J)

    rng = np.random.default_rng(seed)
    d = 2 ** len(union)
    worst = 0.0
    for _ in range(trials):
        x = OperatorElement(union, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        on_inter = conditional_expectation(x, inter)
        for first, second in ((J, I), (I, J), (I, inter), (J, inter)):
            two_step = conditional_expectation(conditional_expectation(x, first), second)
            target = conditional_expectation(on_inter, second)
            worst = max(worst, float(np.abs(two_step.matrix - target.matrix).max()))

    s_target = restrict(state, inter)
    s_resid = 0.0
    for mid in (I, J):
        two_step = restrict(restrict(state, mid), inter)
        s_resid = max(s_resid, float(np.abs(two_step.intrinsic() - s_target.intrinsic()).max()))

    return CommutingSquareReport(
        I=I, J=J, trials=trials, operator_residual=worst, state_residual=s_resid
    )
