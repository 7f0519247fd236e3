"""States of CAR region subalgebras as density matrices.

Normalization convention
------------------------
A state ``phi`` on the region subalgebra ``A(R)`` is stored as its
*region-intrinsic density*: the ordinary trace-one ``2^|R| x 2^|R|``
density matrix of the state under the isomorphism ``A(R) ~ M(2^|R|)`` that
maps the generators of the sorted sites of ``R`` onto the Jordan-Wigner
generators of a fresh ``|R|``-site lattice.  All spectra, entropies and
fidelities are those of this density.  Logarithms are natural, so entropies
are in nats and the tracial state on ``|R|`` sites has entropy ``|R| ln 2``.

A state and an operator of ``A(R)`` share that picture: an
:class:`~carentropy.car_algebra.OperatorElement` holds the ``2^|R|`` image
of an element, and ``phi(x) = Tr(D x)`` for the image ``x``.  The
*tracial representative* ``W = 2^|R| D`` (``phi(x) = tau(W x)`` with
``tau`` the normalized trace of ``M(2^|R|)``, ``W = 1`` for the tracial
state) is another scaling of the same image (:func:`state_from_tau_form`).
No state path builds a ``2^n x 2^n`` matrix unless ``R`` is the whole
lattice.

Every change of region goes through one primitive,
:func:`carentropy.car_algebra._reorder`, which re-expresses a local density
in another order of its modes: a diagonal ``+-1`` sign,
``(-1)^(crossed occupied pairs)``, followed by an axis transpose (the
fermionic swap).  Once ``R`` is moved to the front, the restriction to
``A(R)`` is the ordinary partial trace over the trailing modes
(:func:`carentropy.car_algebra._trace_out`), and a product extension is a
Kronecker product.  Eigenvalues below ``1e-12`` are clamped to zero before
logarithms, while anything below ``-1e-8`` raises :class:`NotAStateError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .car_algebra import (
    AlgebraContext,
    Region,
    _local_parity_diag,
    _reorder,
    _theta_image,
    _trace_out,
)
from .errors import ExtensionError, NotAStateError
from .tolerances import (
    CLUSTER_TOL,
    EIG_FLOOR,
    EVEN_TOL,
    NEGATIVE_EIG_TOL,
    NORM_TOL,
    SUPPORT_TOL,
    TRACE_TOL,
)

__all__ = [
    "State",
    "SpectralData",
    "state_from_tau_form",
    "state_from_intrinsic",
    "tracial_state",
    "vector_state",
    "entropy",
    "spectral_data",
    "restrict",
    "is_even",
    "transition_probability",
    "p_theta",
    "relative_entropy",
    "random_state",
    "product_extension",
    "density_distance",
]


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2.0


def _sqrt_psd(x: np.ndarray) -> np.ndarray:
    lam, u = np.linalg.eigh(_hermitize(x))
    lam = np.clip(lam, 0.0, None)
    return _hermitize((u * np.sqrt(lam)) @ u.conj().T)


def _clamped_spectrum(density: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density the caller has already hermitized, round-off zeros clamped."""
    lam = np.linalg.eigvalsh(density)
    if lam.min() < -NEGATIVE_EIG_TOL:
        raise NotAStateError(f"density has negative eigenvalue {lam.min():.3e}")
    lam = lam.copy()
    lam[lam < EIG_FLOOR] = 0.0
    return lam


@dataclass(frozen=True)
class State:
    """A state of ``A(region)``, stored as its region-intrinsic density."""

    ctx: AlgebraContext
    region: Region
    density: np.ndarray

    def intrinsic(self) -> np.ndarray:
        """Region-intrinsic trace-one density matrix (``2^|R| x 2^|R|``)."""
        return _hermitize(self.density)

    def theta_image(self) -> "State":
        """The state ``phi o Theta``."""
        return State(self.ctx, self.region, _theta_image(self.density))


@dataclass(frozen=True)
class SpectralData:
    """Descending eigenvalues of an intrinsic density with grouped multiplicities."""

    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...]
    eigenvectors: np.ndarray  # columns, matching eigenvalue order


def state_from_tau_form(ctx: AlgebraContext, region: Region, rep: np.ndarray) -> State:
    """Build a state from the ``2^|R|`` image of its tracial representative ``W``.

    ``phi = tau(W .)`` with ``tau`` the normalized trace, so ``D = W / 2^|R|``
    and ``tau(W) = Tr(D)`` must be 1.
    """
    return state_from_intrinsic(ctx, region, np.asarray(rep, dtype=complex) / 2 ** len(region))


def state_from_intrinsic(ctx: AlgebraContext, region: Region, density: np.ndarray) -> State:
    """Build a state from its region-intrinsic trace-one density matrix."""
    ctx.check_region(region)
    density = _hermitize(np.asarray(density, dtype=complex))
    d = 2 ** len(region)
    if density.shape != (d, d):
        raise ValueError(f"density must be {d}x{d} for region {region.sites}")
    if abs(np.trace(density).real - 1.0) > TRACE_TOL:
        raise NotAStateError(f"Tr(density) = {np.trace(density).real:.12f}, expected 1")
    _clamped_spectrum(density)
    return State(ctx, region, density)


def tracial_state(ctx: AlgebraContext, region: Region) -> State:
    """The unique tracial state: ``W = 1``; entropy ``|R| ln 2``."""
    ctx.check_region(region)
    d = 2 ** len(region)
    return State(ctx, region, np.eye(d, dtype=complex) / d)


def vector_state(ctx: AlgebraContext, region: Region, vec: np.ndarray) -> State:
    """Pure state of ``A(region)`` given by an intrinsic unit vector."""
    ctx.check_region(region)
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.size != 2 ** len(region):
        raise ValueError(f"vector must have length {2 ** len(region)} for region {region.sites}")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"vector norm {norm:.12f} is not 1")
    return State(ctx, region, np.outer(vec, vec.conj()))


def entropy(state: State) -> float:
    """Von Neumann entropy ``-sum lam ln lam`` of the intrinsic spectrum (nats)."""
    lam = _clamped_spectrum(state.intrinsic())
    nz = lam[lam > 0.0]
    return float(-(nz * np.log(nz)).sum())


def spectral_data(state: State) -> SpectralData:
    """Descending intrinsic spectrum with multiplicities grouped at ``CLUSTER_TOL``."""
    lam, u = np.linalg.eigh(state.intrinsic())
    order = np.argsort(-lam)
    lam, u = lam[order], u[:, order]
    mult: list[int] = []
    for i, x in enumerate(lam):
        if mult and abs(x - lam[i - 1]) <= CLUSTER_TOL:
            mult[-1] += 1
        else:
            mult.append(1)
    return SpectralData(lam, tuple(mult), u)


def restrict(state: State, region: Region) -> State:
    """Restriction of the state to ``A(region)``: reorder, then partial trace.

    The restriction of an even state is even; restricting to the state's
    own region is the identity, and the empty region carries the unique
    (entropy-zero) state of the scalars.
    """
    if not region.issubset(state.region):
        raise ValueError(f"region {region.sites} not contained in {state.region.sites}")
    if region == state.region:
        return state
    if not region.sites:
        return tracial_state(state.ctx, region)
    density = _trace_out(state.density, state.region.sites, region.sites)
    return State(state.ctx, region, density)


def is_even(state: State) -> bool:
    """Whether ``|D - Theta(D)|``, twice the norm of the density's block
    between opposite parities, is at most ``EVEN_TOL``.

    Since ``max|B_ij| <= |B| <= |B|_F``, the Frobenius norm and the largest
    entry of the block decide almost every state; the spectral norm is
    computed only when ``EVEN_TOL`` lies between them.
    """
    par = _local_parity_diag(len(state.region))
    odd_block = state.density[np.ix_(par > 0, par < 0)]
    if 2.0 * float(np.linalg.norm(odd_block)) <= EVEN_TOL:
        return True
    if 2.0 * float(np.abs(odd_block).max()) > EVEN_TOL:
        return False
    return 2.0 * float(np.linalg.norm(odd_block, 2)) <= EVEN_TOL


def transition_probability(phi: State, psi: State) -> float:
    """Uhlmann fidelity ``(Tr |sqrt(D_phi) sqrt(D_psi)|)^2`` in ``[0, 1]``.

    This closed form attains the supremum of the vector-overlap definition
    of the transition probability in finite dimensions; it is symmetric and
    equals 1 exactly when the states coincide.
    """
    if phi.region != psi.region:
        raise ValueError("transition probability requires a common region")
    s = _sqrt_psd(phi.intrinsic()) @ _sqrt_psd(psi.intrinsic())
    fid = float(np.linalg.svd(s, compute_uv=False).sum() ** 2)
    return min(max(fid, 0.0), 1.0)


def p_theta(state: State) -> float:
    """Oddness quantifier ``P(phi, phi o Theta)^(1/2)``: 1 for even states."""
    return math.sqrt(transition_probability(state, state.theta_image()))


def relative_entropy(omega: State, sigma: State) -> float:
    """Relative entropy ``Tr D_omega (ln D_omega - ln D_sigma)`` in nats.

    Returns ``inf`` (flagged value, no exception) when the support of
    ``omega`` is not contained in the support of ``sigma``.
    """
    if omega.region != sigma.region:
        raise ValueError("relative entropy requires a common region")
    dw = omega.intrinsic()
    lam_w = _clamped_spectrum(dw)
    lam_s, u_s = np.linalg.eigh(sigma.intrinsic())
    support = lam_s > EIG_FLOOR
    weights = np.einsum("ij,jk,ki->i", u_s.conj().T, dw, u_s).real
    outside = float(weights[~support].sum())
    if outside > SUPPORT_TOL:
        return math.inf
    nz = lam_w[lam_w > 0.0]
    term_w = float((nz * np.log(nz)).sum())
    term_s = float((weights[support] * np.log(lam_s[support])).sum())
    return term_w - term_s


def _haar_unitary(d: int, rng: np.random.Generator, cols: int) -> np.ndarray:
    """The first ``cols`` columns of a Haar unitary of size ``d``.

    All ``d x d`` normals are drawn whatever ``cols`` is, so the random
    stream does not depend on it; only the needed columns are factored.
    """
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g[:, :cols])
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def random_state(
    ctx: AlgebraContext,
    region: Region,
    *,
    even: bool = False,
    rank: int | None = None,
    seed=0,
) -> State:
    """Reproducible pseudo-random state of ``A(region)`` with the given rank.

    Eigenvalues are a random simplex point; eigenvectors are Haar columns.
    With ``even=True`` the columns are drawn block-wise inside the two
    eigenspaces of the region parity unitary, so the density commutes with
    it by construction.  ``seed`` may be anything accepted by
    ``numpy.random.default_rng``.
    """
    ctx.check_region(region)
    d = 2 ** len(region)
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise ValueError(f"rank must be in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=rank)
    weights = weights / weights.sum()

    if even and len(region) >= 1:
        par = _local_parity_diag(len(region))
        plus = np.where(par > 0)[0]
        minus = np.where(par < 0)[0]
        lo = max(0, rank - len(minus))
        hi = min(rank, len(plus))
        r_plus = int(rng.integers(lo, hi + 1))
        cols = []
        for idx, r in ((plus, r_plus), (minus, rank - r_plus)):
            if r == 0:
                continue
            u = _haar_unitary(len(idx), rng, r)
            embedded = np.zeros((d, r), dtype=complex)
            embedded[idx, :] = u
            cols.append(embedded)
        v = np.hstack(cols)
    else:
        v = _haar_unitary(d, rng, rank)

    density = _hermitize((v * weights) @ v.conj().T)
    return State(ctx, region, density)


def product_extension(state_a: State, state_b: State) -> State:
    """The product state ``phi(AB) = phi_A(A) phi_B(B)`` on the union region.

    Exists (and is unique) when the regions are disjoint and at least one
    factor is even; with the even factor's modes last, it is the Kronecker
    product of the two densities.
    """
    if state_a.ctx is not state_b.ctx:
        raise ValueError("states live on different lattice contexts")
    if not state_a.region.isdisjoint(state_b.region):
        raise ValueError("product extension requires disjoint regions")
    b_even = is_even(state_b)
    if not (b_even or is_even(state_a)):
        raise ExtensionError(
            "product state extension requires at least one even factor"
        )
    first, last = (state_a, state_b) if b_even else (state_b, state_a)
    region = state_a.region.union(state_b.region)
    density = np.kron(first.density, last.density)
    order = first.region.sites + last.region.sites
    return State(state_a.ctx, region, _reorder(density, order, region.sites))


def density_distance(a: State, b: State) -> float:
    """Operator-norm distance of the intrinsic densities (same region)."""
    if a.region != b.region:
        raise ValueError("states live on different regions")
    return float(np.linalg.norm(a.intrinsic() - b.intrinsic(), 2))
