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
* tracially orthogonal monomial bases of region subalgebras, which also
  realize the isomorphism ``A(I) ~ M(2^|I|)`` on operators,
* trace-compatible conditional expectations onto region subalgebras,
* a verification routine for the relative-commutant identity
  ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` that underlies the tensor
  factorization ``A(I u J) = A(I) (x) (A(I)' n A(I u J))``.

Everything is dense ``complex128``; contexts are immutable after
construction and all operations are pure functions, so sharing across
threads is safe.  States never build a basis (see :mod:`carentropy.states`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

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
CAR_ATOL = 1e-12

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


class MonomialBasis:
    """Tracially orthogonal monomial basis of a region subalgebra.

    For an ordered site tuple ``(s_1, ..., s_k)`` the ``4^k`` monomials are
    the products ``f(g_1, s_1) f(g_2, s_2) ...`` with per-site factors
    ``{1, a, a*, v}`` (``v = a*a - aa*``), multiplied in the given order.
    Each monomial has definite parity and the family is orthogonal for the
    inner product ``<x, y> = tau(x* y)`` with ``tau`` the normalized trace.

    The same products on a fresh ``k``-site lattice give a matching basis of
    ``M(2^k)``; matching coefficients between the two realizes the
    *-isomorphism ``A(region) ~ M(2^k)`` (``to_local`` / ``from_local``).
    Choosing a non-sorted order permutes which generator maps to which local
    site, e.g. an I-first order over ``I u J`` maps ``A(I)`` onto the leading
    tensor factor ``M(2^|I|) (x) 1``.
    """

    def __init__(self, ctx: "AlgebraContext", order: tuple[int, ...]):
        self.ctx = ctx
        self.order = order
        self.k = len(order)
        self.size = 4 ** self.k
        self.dim = ctx.dim
        self.local_dim = 2 ** self.k
        self.is_identity = order == tuple(range(1, ctx.n + 1))

        self.labels = list(itertools.product(range(4), repeat=self.k))
        factor_parity = (1, -1, -1, 1)  # 1, a, a*, v
        self.parity = np.array(
            [int(np.prod([factor_parity[g] for g in lab])) if lab else 1 for lab in self.labels],
            dtype=int,
        )

        self.mats = _readonly(self._build(ctx, order))
        self.flat = _readonly(self.mats.reshape(self.size, -1))
        self.norms = _readonly(
            (np.einsum("ij,ij->i", self.flat.conj(), self.flat) / self.dim).real
        )

        if self.is_identity:
            self.local_mats = self.mats
            self.local_flat = self.flat
            self.local_norms = self.norms
        else:
            local_ctx = ctx.local_context(self.k)
            self.local_mats = _readonly(self._build(local_ctx, tuple(range(1, self.k + 1))))
            self.local_flat = _readonly(self.local_mats.reshape(self.size, -1))
            self.local_norms = _readonly(
                (
                    np.einsum("ij,ij->i", self.local_flat.conj(), self.local_flat)
                    / self.local_dim
                ).real
            )
            if not np.allclose(self.norms, self.local_norms, atol=1e-12):
                raise RuntimeError("global and local monomial norms disagree")

    @staticmethod
    def _build(ctx: "AlgebraContext", order: tuple[int, ...]) -> np.ndarray:
        mats = [np.eye(ctx.dim, dtype=complex)]
        for site in order:
            a = ctx.annihilator(site)
            ad = ctx.creator(site)
            factors = (np.eye(ctx.dim, dtype=complex), a, ad, ad @ a - a @ ad)
            mats = [m @ f for m in mats for f in factors]
        return np.stack(mats)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Expansion coefficients of the orthogonal projection of ``x``."""
        return (self.flat.conj() @ x.ravel()) / (self.dim * self.norms)

    def expect(self, x: np.ndarray) -> np.ndarray:
        """Trace-compatible conditional expectation of ``x`` onto the region."""
        if self.is_identity:
            return x
        c = self.coefficients(x)
        return (c @ self.flat).reshape(self.dim, self.dim)

    def membership_residual(self, x: np.ndarray) -> float:
        if self.is_identity:
            return 0.0
        return float(np.linalg.norm(x - self.expect(x)))

    def to_local(self, x: np.ndarray) -> np.ndarray:
        """Image of ``x`` (assumed in the region subalgebra) in ``M(2^k)``."""
        if self.is_identity:
            return x
        c = self.coefficients(x)
        return (c @ self.local_flat).reshape(self.local_dim, self.local_dim)

    def from_local(self, y: np.ndarray) -> np.ndarray:
        """Global matrix whose local image is ``y``."""
        if self.is_identity:
            return y
        c = (self.local_flat.conj() @ y.ravel()) / (self.local_dim * self.local_norms)
        return (c @ self.flat).reshape(self.dim, self.dim)


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
        self._parity_mat: dict[tuple[int, ...], np.ndarray] = {}
        self._bases: dict[tuple[int, ...], MonomialBasis] = {}
        self._locals: dict[int, "AlgebraContext"] = {}

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
        key = tuple(sorted(sites))
        if key not in self._parity_mat:
            self._parity_mat[key] = _readonly(np.diag(self.parity_diag(key)).astype(complex))
        return self._parity_mat[key]

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
            self._bases[order] = MonomialBasis(self, order)
        return self._bases[order]

    def local_context(self, k: int) -> "AlgebraContext":
        """Fresh k-site lattice used as the target of region isomorphisms."""
        if k == self.n:
            return self
        if k not in self._locals:
            self._locals[k] = AlgebraContext(k) if k >= 1 else _ScalarContext()
        return self._locals[k]


class _ScalarContext:
    """Degenerate 0-site lattice: the scalars."""

    n = 0
    dim = 1

    def annihilator(self, i):  # pragma: no cover - never reached
        raise ValueError("no sites")

    creator = annihilator


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


def conditional_expectation(ctx: AlgebraContext, x, region: Region):
    """Trace-compatible conditional expectation of ``x`` onto ``A(region)``."""
    ctx.check_region(region)
    out = ctx.basis(region.sites).expect(_as_matrix(x))
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
    tolerance: float = CAR_ATOL

    @property
    def ok(self) -> bool:
        checks = [
            self.candidate_dim == self.expected_dim,
            self.generator_residual <= self.tolerance,
            self.gram_offdiagonal <= self.tolerance,
            self.even_residual <= self.tolerance,
            self.odd_witness > 1e-6 or not self.J.sites,
        ]
        if self.nullspace_dim is not None:
            checks.append(self.nullspace_dim == self.expected_dim)
            checks.append((self.nullspace_residual or 0.0) <= 1e-8)
        return all(checks)


def _stack_commutators(stack: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Commutators ``[stack[n], g]`` for a stack of matrices, via two GEMMs."""
    n, d, _ = stack.shape
    flat = stack.reshape(n * d, d)
    right = (flat @ g).reshape(n, d, d)
    left = (stack.transpose(0, 2, 1).reshape(n * d, d) @ g.T).reshape(n, d, d)
    return right - left.transpose(0, 2, 1)


def relative_commutant_check(
    ctx: AlgebraContext,
    I: Region,
    J: Region,
    deep: bool | None = None,
) -> CommutantCheck:
    """Verify ``A(I)' n A(I u J) = A(J)_+ + v_I A(J)_-`` and ``A(I)' n A(J) = A(J)_+``.

    ``deep=None`` enables the from-scratch nullspace recomputation whenever
    ``|I| + |J| <= 3``; it is quartic in ``4^(|I|+|J|)`` and not needed for
    the identity itself, whose dimension count is forced once the candidate
    commutes and is independent.
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
    candidate_dim = int(np.sum(np.linalg.eigvalsh(gram) > 1e-8))

    nullspace_dim = None
    nullspace_residual = None
    union = I.union(J)
    if deep is None:
        deep = len(union) <= 3
    if deep:
        bU = ctx.basis(union.sites)
        blocks = [
            _stack_commutators(bU.mats, g).reshape(bU.size, -1) for g in gens
        ]
        constraints = np.hstack(blocks).T  # rows: constraint entries, cols: basis coeffs
        svals = np.linalg.svd(constraints, compute_uv=False)
        nullspace_dim = int(np.sum(svals <= 1e-8)) + max(0, bU.size - len(svals))
        coeffs = (flat @ bU.flat.conj().T) / (ctx.dim * bU.norms)
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
