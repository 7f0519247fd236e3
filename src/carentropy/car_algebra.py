"""Finite CAR (fermionic) lattice algebras as concrete matrix algebras.

A lattice of ``n`` ordered sites carries annihilation/creation matrices
``a_i``, ``a_i*`` acting on ``C^(2^n)``, built by the Jordan-Wigner recipe

    a_i = Z (x) ... (x) Z (x) a (x) 1 (x) ... (x) 1

with ``a`` the 2x2 lowering matrix on the i-th factor and ``Z = diag(1, -1)``
on the ``i-1`` leading factors.  With this choice the subalgebra ``A(I)``
attached to an arbitrary (possibly non-contiguous) subset ``I`` of sites is
generated by the already-built global matrices; no re-embedding is needed.

The module provides:

* the even/odd grading ``Theta`` (conjugation by the full parity unitary),
* parity unitaries ``v_I = prod_i (a_i* a_i - a_i a_i*)`` for regions,
* the isomorphism ``A(I) ~ M(2^|I|)``: a fermionic reorder of the modes
  (:func:`_reorder`) moves ``I`` to the front, after which ``A(I)`` is the
  leading tensor factor ``M(2^|I|) (x) 1``; :func:`_trace_out` and
  :func:`_embed` map between the two sides,
* trace-compatible conditional expectations onto region subalgebras,
  computed through that isomorphism,
* tracially orthogonal monomial bases of region subalgebras,
* a verification routine for the relative-commutant identity
  ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` that underlies the tensor
  factorization ``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.

Everything is dense ``complex128``; contexts are immutable after
construction and all operations are pure functions, so sharing across
threads is safe.  Only :func:`monomial_basis` and
:func:`relative_commutant_check` build a basis (``4^|I|`` matrices of size
``2^n x 2^n``); a request larger than ``MAX_BASIS_BYTES`` raises
:class:`CapacityError` before anything is allocated.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .tolerances import CAR_ATOL, MEMBERSHIP_TOL, NULLSPACE_RESIDUAL_TOL, ODD_WITNESS_MIN, RANK_TOL

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
MAX_BASIS_BYTES = 2 ** 29  # 4^|I| * 4^n complex entries; the build peaks at twice this

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
    """A global matrix together with the region whose subalgebra it belongs to.

    ``note`` flags degenerate inputs (e.g. the parity unitary of the empty
    region, which is the identity).
    """

    matrix: np.ndarray
    region: Region
    note: str | None = None


@functools.lru_cache(maxsize=None)
def _local_parity_diag(k: int) -> np.ndarray:
    """Diagonal of the parity ``v`` of a ``k``-site local lattice (cached, read-only)."""
    occupied = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
    return _readonly((-1.0) ** (k - occupied.sum(axis=1)))


@functools.lru_cache(maxsize=1024)  # a plan holds 2^k int8 signs: at most 4 MiB at k = 12
def _reorder_plan(
    src: tuple[int, ...], dst: tuple[int, ...]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only ``+-1`` sign per basis state and the tensor axes of a reorder.

    A basis state picks up ``-1`` for every pair of occupied modes whose
    relative order changes.
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
    sign = (1 - 2 * (crossed & 1)).astype(np.int8)
    return _readonly(sign), tuple(perm + [k + p for p in perm])


def _reorder(matrix: np.ndarray, src: tuple[int, ...], dst: tuple[int, ...]) -> np.ndarray:
    """Re-express a matrix on the modes ``src`` (in that order) in the order ``dst``.

    The fermionic sign of :func:`_reorder_plan`, then a permutation of the
    tensor axes.
    """
    sign, axes = _reorder_plan(src, dst)
    k = len(src)
    signed = sign[:, None] * matrix
    signed *= sign
    return signed.reshape((2,) * (2 * k)).transpose(axes).reshape(2 ** k, 2 ** k)


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
        self.labels = list(itertools.product(range(4), repeat=len(order)))
        factor_parity = (1, -1, -1, 1)  # 1, a, a*, v
        self.parity = np.array(
            [int(np.prod([factor_parity[g] for g in lab])) if lab else 1 for lab in self.labels],
            dtype=int,
        )
        mats = [np.eye(ctx.dim, dtype=complex)]
        for site in order:
            a = ctx.annihilator(site)
            ad = ctx.creator(site)
            factors = (np.eye(ctx.dim, dtype=complex), a, ad, ad @ a - a @ ad)
            mats = [m @ f for m in mats for f in factors]
        self.mats = _readonly(np.stack(mats))


class AlgebraContext:
    """Matrix realization of the CAR algebra on ``n`` ordered sites.

    Generator and basis caches are filled lazily; cached arrays are marked
    read-only and shared, never copied.
    """

    def __init__(self, n: int):
        if not isinstance(n, (int, np.integer)) or not 1 <= int(n) <= MAX_SITES:
            raise ValueError(f"site count must be an integer in [1, {MAX_SITES}], got {n!r}")
        self.n = int(n)
        self.dim = 2 ** self.n
        self.lattice = Region(tuple(range(1, self.n + 1)))
        self._ann: dict[int, np.ndarray] = {}
        self._parity_diag: dict[tuple[int, ...], np.ndarray] = {}
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
        return _readonly(np.ascontiguousarray(self.annihilator(i).conj().T))

    @property
    def generators(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per-site pairs ``(a_i, a_i*)`` for the whole lattice."""
        return tuple((self.annihilator(i), self.creator(i)) for i in range(1, self.n + 1))

    def parity_diag(self, sites: tuple[int, ...]) -> np.ndarray:
        """Diagonal of ``v_sites`` (each ``v_i`` is diagonal in this realization)."""
        key = tuple(sorted(sites))
        if key not in self._parity_diag:
            idx = np.arange(self.dim)
            d = np.ones(self.dim)
            for i in key:
                bit = (idx >> (self.n - i)) & 1
                d *= np.where(bit == 1, 1.0, -1.0)
            self._parity_diag[key] = _readonly(d)
        return self._parity_diag[key]

    def parity_matrix(self, sites: tuple[int, ...]) -> np.ndarray:
        return _readonly(np.diag(self.parity_diag(sites)).astype(complex))

    def theta_of(self, x: np.ndarray) -> np.ndarray:
        """Grading automorphism: conjugation by the full-lattice parity unitary."""
        d = self.parity_diag(self.lattice.sites)
        return (d[:, None] * d[None, :]) * x

    def basis(self, order: tuple[int, ...]) -> MonomialBasis:
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


def _as_matrix(x) -> np.ndarray:
    return x.matrix if isinstance(x, OperatorElement) else np.asarray(x, dtype=complex)


def parity_unitary(ctx: AlgebraContext, region: Region) -> OperatorElement:
    """Self-adjoint unitary ``v_I`` implementing the grading on ``A(I)``.

    The empty region degenerates to the identity; the result is flagged
    through ``note`` rather than raising.
    """
    ctx.check_region(region)
    note = None
    if not region.sites:
        note = "empty region: parity unitary degenerates to the identity"
    return OperatorElement(ctx.parity_matrix(region.sites), region, note)


def theta(ctx: AlgebraContext, x):
    """Apply the grading automorphism; ``a_i -> -a_i`` for every site.

    Accepts an :class:`OperatorElement` (region is preserved, since the
    grading maps each ``A(I)`` onto itself) or a plain matrix.
    """
    if isinstance(x, OperatorElement):
        return OperatorElement(ctx.theta_of(x.matrix), x.region, x.note)
    return ctx.theta_of(np.asarray(x, dtype=complex))


def grade_split(ctx: AlgebraContext, x):
    """Split into (even, odd) parts: ``x_+/- = (x +/- Theta(x)) / 2``."""
    m = _as_matrix(x)
    tm = ctx.theta_of(m)
    even, odd = (m + tm) / 2.0, (m - tm) / 2.0
    if isinstance(x, OperatorElement):
        return (OperatorElement(even, x.region), OperatorElement(odd, x.region))
    return even, odd


def monomial_basis(ctx: AlgebraContext, region: Region) -> list[OperatorElement]:
    """The ``4^|I|`` tracially orthogonal, parity-definite monomials spanning ``A(I)``."""
    ctx.check_region(region)
    b = ctx.basis(region.sites)
    return [OperatorElement(b.mats[i], region) for i in range(b.size)]


def _local_image(ctx: AlgebraContext, x: np.ndarray, sites: tuple[int, ...]) -> np.ndarray:
    """Image in ``M(2^|sites|)`` of an element ``x`` of ``A(sites)``, sites in the given order.

    Raises ``ValueError`` when ``|x - E(x)|`` exceeds ``MEMBERSHIP_TOL``
    relative to ``max(1, |x|)``, i.e. when ``x`` is not in ``A(sites)``.
    """
    local = _trace_out(x, ctx.lattice.sites, sites) / 2 ** (ctx.n - len(sites))
    resid = float(np.linalg.norm(x - _embed(local, sites, ctx.lattice.sites)))
    if resid > MEMBERSHIP_TOL * max(1.0, float(np.linalg.norm(x))):
        raise ValueError(f"matrix not in the subalgebra of sites {sites} (residual {resid:.3e})")
    return local


def conditional_expectation(ctx: AlgebraContext, x, region: Region):
    """Trace-compatible conditional expectation of ``x`` onto ``A(region)``.

    The normalized partial trace onto the region, embedded back as
    ``E(x) (x) 1``.
    """
    ctx.check_region(region)
    lattice = ctx.lattice.sites
    local = _trace_out(_as_matrix(x), lattice, region.sites) / 2 ** (ctx.n - len(region))
    out = _embed(local, region.sites, lattice)
    if isinstance(x, OperatorElement):
        return OperatorElement(out, region)
    return out


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

    bJ = ctx.basis(J.sites)
    # v_I is diagonal in this realization, so v_I @ m is a row scaling
    twisted = ctx.parity_diag(I.sites)[None, :, None] * bJ.mats
    candidate = np.where((bJ.parity > 0)[:, None, None], bJ.mats, twisted)

    gens = [ctx.annihilator(i) for i in I.sites] + [ctx.creator(i) for i in I.sites]
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
    gram = flat.conj() @ flat.T / ctx.dim
    gram_offdiagonal = float(np.abs(gram - np.diag(np.diag(gram))).max())
    candidate_dim = int(np.sum(np.linalg.eigvalsh(gram) > RANK_TOL))

    nullspace_dim = None
    nullspace_residual = None
    union = I.union(J)
    if len(union) <= 3:
        bU = ctx.basis(union.sites)
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
