"""Finite CAR (fermionic) lattice algebras and their region subalgebras.

A lattice of ``n`` ordered sites carries annihilation/creation matrices
``a_i``, ``a_i*`` acting on ``C^(2^n)``, built by the Jordan-Wigner recipe

    a_i = Z (x) ... (x) Z (x) a (x) 1 (x) ... (x) 1

with ``a`` the 2x2 lowering matrix on the i-th factor and ``Z = diag(1, -1)``
on the ``i-1`` leading factors.  :class:`AlgebraContext` caches these
generators; they define the realization.

An element of the subalgebra ``A(R)`` of a region ``R`` (any subset of
sites, contiguous or not) is held as its image under the isomorphism
``A(R) ~ M(2^|R|)`` that maps the generators of the sorted sites of ``R``
onto the Jordan-Wigner generators of a fresh ``|R|``-site lattice: an
:class:`OperatorElement` is ``(region, 2^|R| x 2^|R| image)``, just as a
state is ``(region, factor X)`` of its ``2^|R| x 2^|R|`` density
``X X*``.  A fermionic reorder of the modes (:func:`_reorder_rows` on the
rows of a factor, and :func:`_reorder` on both sides of a matrix) is the
one implementation of that isomorphism: once a region is moved to the
front of a larger one it is the leading tensor factor
``M(2^|R|) (x) 1``, and :func:`_trace_out` and :func:`_embed` map between
the two sides.

The module provides:

* the even/odd grading ``Theta``, conjugation by the local parity
  ``diag(_local_parity_diag(|R|))`` of the image,
* parity unitaries ``v_R = prod_i (a_i* a_i - a_i a_i*)`` of regions,
* trace-compatible conditional expectations ``A(S) -> A(R)``,
* tracially orthogonal monomial bases of region subalgebras,
* a verification routine for the relative-commutant identity
  ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` that underlies the tensor
  factorization ``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.

Everything is dense ``complex128``; contexts are immutable after
construction apart from their caches, and all operations are pure
functions.  An operator of ``A(R)`` costs ``4^|R|`` entries whatever ``n``
is.  Only :func:`monomial_basis` and :func:`relative_commutant_check` build
a basis, on a cached ``|R|``-site (respectively ``|I u J|``-site) context;
a basis larger than ``MAX_BASIS_BYTES`` raises :class:`CapacityError`
before anything is allocated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .tolerances import CAR_ATOL, NULLSPACE_RESIDUAL_TOL, ODD_WITNESS_MIN, RANK_TOL

__all__ = [
    "Region",
    "OperatorElement",
    "AlgebraContext",
    "MonomialBasis",
    "CommutantCheck",
    "build_context",
    "parity_unitary",
    "theta",
    "grade_split",
    "monomial_basis",
    "conditional_expectation",
    "relative_commutant_check",
]

MAX_SITES = 12
MAX_BASIS_BYTES = 2 ** 29  # 4^|order| * 4^k entries on k sites; the build peaks at twice this

_LOWERING = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
_PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_EYE2 = np.eye(2, dtype=complex)


def _readonly(x: np.ndarray) -> np.ndarray:
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class Region:
    """Subset of lattice sites, stored as a strictly increasing 1-based tuple."""

    sites: tuple[int, ...] = ()

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if any(s < 1 for s in sites):
            raise ValueError(f"sites must be >= 1, got {sites}")
        if any(a >= b for a, b in zip(sites, sites[1:])):
            raise ValueError(f"sites must be strictly increasing, got {sites}")

    @classmethod
    def of(cls, *sites: int) -> "Region":
        ordered = tuple(sorted(sites))
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate sites in {sites}")
        return cls(ordered)

    def union(self, other: "Region") -> "Region":
        return Region(tuple(sorted(set(self.sites) | set(other.sites))))

    def intersection(self, other: "Region") -> "Region":
        return Region(tuple(sorted(set(self.sites) & set(other.sites))))

    def isdisjoint(self, other: "Region") -> bool:
        return not set(self.sites) & set(other.sites)

    def issubset(self, other: "Region") -> bool:
        return set(self.sites) <= set(other.sites)

    def __len__(self) -> int:
        return len(self.sites)

    def __iter__(self):
        return iter(self.sites)

    def __contains__(self, site: int) -> bool:
        return site in self.sites


@dataclass(frozen=True)
class OperatorElement:
    """An element of ``A(region)``, held as its ``2^|R| x 2^|R|`` image ``matrix``."""

    region: Region
    matrix: np.ndarray

    def __post_init__(self):
        d = 2 ** len(self.region)
        if np.shape(self.matrix) != (d, d):
            raise ValueError(
                f"an element of A{self.region.sites} is a {d}x{d} image, "
                f"got shape {np.shape(self.matrix)}"
            )


@functools.lru_cache(maxsize=None)
def _local_parity_diag(k: int) -> np.ndarray:
    """Diagonal of the parity ``v`` of a ``k``-site local lattice (cached, read-only)."""
    occupied = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    return _readonly((-1.0) ** (k - occupied.sum(axis=1)))


@functools.lru_cache(maxsize=None)
def _parity_rows(k: int) -> np.ndarray:
    """The even row indices and the odd row indices of a ``k``-site local
    lattice, as the rows of a read-only ``(2, 2^(k-1))`` array (cached).

    The empty lattice has one even row and no odd one: ``[[0]]``.
    """
    par = _local_parity_diag(k)
    blocks = [np.flatnonzero(par == sign) for sign in (1.0, -1.0)]
    return _readonly(np.stack(blocks if k else blocks[:1]))


def _theta_image(m: np.ndarray) -> np.ndarray:
    """``Theta`` of the image ``m``: conjugation by the parity of its modes."""
    par = _local_parity_diag(m.shape[0].bit_length() - 1)
    return par[:, None] * m * par[None, :]


# a plan holds 2^k int8 signs and 2^k intp rows: 36 KiB at k = 12, at most 36 MiB in all
@functools.lru_cache(maxsize=1024)
def _reorder_plan(src: tuple[int, ...], dst: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The read-only ``+-1`` sign and source row of each row of a reorder.

    Row ``j`` of the reordered factor is row ``rows[j]`` of the source times
    ``sign[j]``: the source basis state picks up ``-1`` for every pair of
    occupied modes whose relative order changes, and ``rows`` permutes the
    tensor axes of the row index.
    """
    k = len(src)
    perm = [src.index(s) for s in dst]
    idx = np.arange(2 ** k)
    occupied = [(idx >> (k - 1 - i)) & 1 for i in range(k)]
    crossed = np.zeros(2 ** k, dtype=int)
    for a in range(k):
        for b in range(a + 1, k):
            if perm[a] > perm[b]:
                crossed += occupied[perm[a]] & occupied[perm[b]]
    rows = idx.reshape((2,) * k).transpose(perm).ravel()
    sign = (1 - 2 * (crossed[rows] & 1)).astype(np.int8)
    return _readonly(sign), _readonly(rows)


def _reorder_rows(factor: np.ndarray, src: tuple[int, ...], dst: tuple[int, ...]) -> np.ndarray:
    """Re-express the rows of a factor ``X`` of ``D = X X*`` on the modes
    ``src`` (in that order) in the order ``dst``.

    One gather of the rows of :func:`_reorder_plan`, then its fermionic
    sign in place; the columns (the ancilla) are untouched, so
    ``_reorder(D, src, dst)`` is ``Y Y*`` for the result ``Y``.
    """
    sign, rows = _reorder_plan(src, dst)
    out = factor[rows]
    out *= sign[:, None]
    return out


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


def _embed(local: np.ndarray, keep: tuple[int, ...], outer: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_trace_out`: ``local (x) 1`` on ``outer``, back in its order.

    ``_trace_out(_embed(y, keep, outer), outer, keep)`` is ``2^(|outer|-|keep|) y``.
    """
    rest = tuple(s for s in outer if s not in keep)
    return _reorder(np.kron(local, np.eye(2 ** len(rest))), keep + rest, outer)


class MonomialBasis:
    """The ``4^k`` monomials of a region subalgebra.

    For an ordered site tuple ``(s_1, ..., s_k)`` the monomials are the
    products ``f(g_1, s_1) f(g_2, s_2) ...`` with per-site factors
    ``{1, a, a*, v}`` (``v = a*a - aa*``), multiplied in the given order.
    Each monomial has definite parity and the family is orthogonal for the
    inner product ``<x, y> = tau(x* y)`` with ``tau`` the normalized trace.
    """

    def __init__(self, ctx: "AlgebraContext", order: tuple[int, ...]):
        self.size = 4 ** len(order)
        parity = np.ones(1, dtype=int)
        mats = [np.eye(ctx.dim, dtype=complex)]
        for site in order:
            a = ctx.annihilator(site)
            ad = ctx.creator(site)
            factors = (np.eye(ctx.dim, dtype=complex), a, ad, ad @ a - a @ ad)
            mats = [m @ f for m in mats for f in factors]
            parity = np.outer(parity, (1, -1, -1, 1)).ravel()  # 1, a, a*, v
        self.parity = parity
        self.mats = _readonly(np.stack(mats))


class AlgebraContext:
    """Matrix realization of the CAR algebra on ``n`` ordered sites.

    The Jordan-Wigner generators and the monomial bases built from them are
    cached lazily; cached arrays are marked read-only and shared, never
    copied.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or not 1 <= int(n) <= MAX_SITES:
            raise ValueError(f"site count must be an integer in [1, {MAX_SITES}], got {n!r}")
        self.n = int(n)
        self.dim = 2 ** self.n
        self.lattice = Region(tuple(range(1, self.n + 1)))
        self._ann: dict[int, np.ndarray] = {}
        self._cre: dict[int, np.ndarray] = {}
        self._bases: dict[tuple[int, ...], MonomialBasis] = {}

    def __repr__(self):
        return f"AlgebraContext(n={self.n})"

    def check_region(self, region: Region) -> Region:
        if region.sites and region.sites[-1] > self.n:
            raise ValueError(f"region {region.sites} exceeds lattice of {self.n} sites")
        return region

    def annihilator(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.n:
            raise ValueError(f"site {i} outside lattice [1, {self.n}]")
        if i not in self._ann:
            factors = [_PAULI_Z] * (i - 1) + [_LOWERING] + [_EYE2] * (self.n - i)
            m = factors[0]
            for f in factors[1:]:
                m = np.kron(m, f)
            self._ann[i] = _readonly(np.ascontiguousarray(m))
        return self._ann[i]

    def creator(self, i: int) -> np.ndarray:
        if i not in self._cre:
            self._cre[i] = _readonly(np.ascontiguousarray(self.annihilator(i).conj().T))
        return self._cre[i]

    def basis(self, order: tuple[int, ...]) -> MonomialBasis:
        """The monomials of the sites ``order`` of this lattice, as ``2^n`` matrices."""
        order = tuple(int(s) for s in order)
        if len(set(order)) != len(order):
            raise ValueError(f"repeated sites in order {order}")
        self.check_region(Region(tuple(sorted(order))))
        if order not in self._bases:
            need = 4 ** len(order) * self.dim ** 2 * 16
            if need > MAX_BASIS_BYTES:
                raise CapacityError(
                    f"a basis of {len(order)} sites on {self.n} needs {need / 2 ** 20:.0f} MiB, "
                    f"over the {MAX_BASIS_BYTES / 2 ** 20:.0f} MiB limit"
                )
            self._bases[order] = MonomialBasis(self, order)
        return self._bases[order]


def build_context(n: int) -> AlgebraContext:
    """Construct the CAR matrix algebra on ``n`` ordered sites (1 <= n <= 12)."""
    return AlgebraContext(n)


@functools.lru_cache(maxsize=None)
def _local_context(k: int) -> AlgebraContext:
    """The shared ``k``-site lattice on which the images of ``A(R)``, ``|R| = k``, live."""
    return AlgebraContext(k)


def parity_unitary(ctx: AlgebraContext, region: Region) -> OperatorElement:
    """Self-adjoint unitary ``v_R`` implementing the grading on ``A(R)``.

    Its image is diagonal; the empty region gives the ``1 x 1`` identity.
    """
    ctx.check_region(region)
    return OperatorElement(region, np.diag(_local_parity_diag(len(region))))


def theta(ctx: AlgebraContext, x: OperatorElement) -> OperatorElement:
    """The grading automorphism, ``a_i -> -a_i`` for every site.

    It maps each ``A(R)`` onto itself, so the region is preserved.
    """
    ctx.check_region(x.region)
    return OperatorElement(x.region, _theta_image(x.matrix))


def grade_split(ctx: AlgebraContext, x: OperatorElement) -> tuple[OperatorElement, OperatorElement]:
    """Split into (even, odd) parts: ``x_+/- = (x +/- Theta(x)) / 2``."""
    tm = theta(ctx, x).matrix
    return (
        OperatorElement(x.region, (x.matrix + tm) / 2.0),
        OperatorElement(x.region, (x.matrix - tm) / 2.0),
    )


def monomial_basis(ctx: AlgebraContext, region: Region) -> list[OperatorElement]:
    """The ``4^|R|`` tracially orthogonal, parity-definite monomials spanning ``A(R)``.

    Their images are the monomials of the ``|R|``-site lattice.
    """
    ctx.check_region(region)
    if not region.sites:
        return [OperatorElement(region, np.ones((1, 1), dtype=complex))]
    k = len(region)
    b = _local_context(k).basis(tuple(range(1, k + 1)))
    return [OperatorElement(region, m) for m in b.mats]


def conditional_expectation(
    ctx: AlgebraContext, x: OperatorElement, region: Region
) -> OperatorElement:
    """Trace-compatible conditional expectation of ``x`` onto ``A(region)``.

    ``x (x) 1`` on ``x.region u region``, traced down to ``region`` and
    divided by ``2^|x.region \\ region|``.
    """
    ctx.check_region(x.region)
    ctx.check_region(region)
    outer = x.region.union(region)
    lifted = _embed(x.matrix, x.region.sites, outer.sites)
    local = _trace_out(lifted, outer.sites, region.sites) / 2 ** (len(outer) - len(region))
    return OperatorElement(region, local)

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


def relative_commutant_check(ctx: AlgebraContext, I: Region, J: Region) -> CommutantCheck:
    """Verify ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` and ``A(I)' n A(J) = A(J)_+``.

    Everything lives on the ``|I u J|``-site lattice of the images of
    ``A(I u J)``, with ``A(I)`` and ``A(J)`` at their positions in ``I u J``.
    The from-scratch nullspace recomputation runs when ``|I| + |J| <= 3``;
    it is quartic in ``4^(|I|+|J|)`` and not needed for the identity itself,
    whose dimension count is forced once the candidate commutes and is
    independent.
    """
    ctx.check_region(I)
    ctx.check_region(J)
    if not I.sites:
        raise ValueError("I must be nonempty")
    if not I.isdisjoint(J):
        raise ValueError(f"regions overlap: {I.sites} and {J.sites}")

    union = I.union(J)
    local = _local_context(len(union))
    pos_I = tuple(union.sites.index(s) + 1 for s in I.sites)
    bJ = local.basis(tuple(union.sites.index(s) + 1 for s in J.sites))
    # v_I is diagonal in this realization, so v_I @ m is a row scaling
    v_I = np.diag(_embed(parity_unitary(ctx, I).matrix, I.sites, union.sites))
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
        blocks = [
            _stack_commutators(bU.mats, g).reshape(bU.size, -1) for g in gens
        ]
        constraints = np.hstack(blocks).T  # rows: constraint entries, cols: basis coeffs
        svals = np.linalg.svd(constraints, compute_uv=False)
        nullspace_dim = int(np.sum(svals <= RANK_TOL)) + max(0, bU.size - len(svals))
        u_flat = bU.mats.reshape(bU.size, -1)
        u_norms = np.einsum("ij,ij->i", u_flat.conj(), u_flat).real
        coeffs = (flat @ u_flat.conj().T) / u_norms
        nullspace_residual = float(np.abs(constraints @ coeffs.T).max())

    return CommutantCheck(
        I=I,
        J=J,
        candidate_dim=candidate_dim,
        expected_dim=4 ** len(J),
        generator_residual=generator_residual,
        gram_offdiagonal=gram_offdiagonal,
        even_residual=even_residual,
        odd_witness=float(odd_witness),
        nullspace_dim=nullspace_dim,
        nullspace_residual=nullspace_residual,
    )
