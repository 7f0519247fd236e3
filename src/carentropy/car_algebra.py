"""Finite CAR (fermionic) lattices: regions, parity rows and the fermionic reorder.

A lattice of ``n`` ordered sites carries the Jordan-Wigner matrices
``a_i = Z (x) ... (x) Z (x) a (x) 1 (x) ... (x) 1`` on ``C^(2^n)``, with
``a`` the 2x2 lowering matrix on the i-th factor and ``Z = diag(1, -1)``.
``A(R)`` of a region ``R`` (any subset of sites) is identified with
``M(2^|R|)`` by mapping the generators of the sorted sites of ``R`` onto
those of a fresh ``|R|``-site lattice.  The fermionic reorder of the modes,
:func:`_reorder_rows`, is the one implementation of that identification:
a region moved to the front of a larger one is the leading factor
``M(2^|R|) (x) 1``.

Every operation on an operator image lives in :mod:`carentropy.operators`.
The generators and monomial bases (``AlgebraContext.annihilator``,
``creator`` and ``basis``, :class:`MonomialBasis`) stay here while
``perfbench/spans.py`` binds ``AlgebraContext.basis``; they are cached
read-only, and a basis over ``MAX_BASIS_BYTES`` raises
:class:`CapacityError` before anything is allocated.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

__all__ = [
    "Region",
    "AlgebraContext",
    "MonomialBasis",
    "build_context",
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
        try:
            sites = tuple(operator.index(s) for s in self.sites)
        except TypeError:
            raise ValueError(f"sites must be integers, got {self.sites}") from None
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
