"""States of CAR region subalgebras, held as factors of their densities.

Normalization convention
------------------------
A state ``phi`` on the region subalgebra ``A(R)`` is stored as a *factor*
``X`` (``2^|R| x m``) of its *region-intrinsic density* ``D = X X*``: the
ordinary trace-one ``2^|R| x 2^|R|`` density matrix of the state under the
isomorphism ``A(R) ~ M(2^|R|)`` that maps the generators of the sorted
sites of ``R`` onto the Jordan-Wigner generators of a fresh ``|R|``-site
lattice.  ``X`` is a purification of ``D`` with an ``m``-dimensional
ancilla: the vector ``sum_j X[:, j] (x) e_j``.  Any factor of the same
``D`` describes the same state; :meth:`State.intrinsic` is the one density
view, formed only where a density is printed or compared.  All spectra,
entropies and fidelities are those of ``D``.  Logarithms are natural, so
entropies are in nats and the tracial state on ``|R|`` sites has entropy
``|R| ln 2``.

A state and an operator of ``A(R)`` share that picture: an
:class:`~carentropy.operators.OperatorElement` holds the ``2^|R|`` image
of an element, and ``phi(x) = Tr(D x)`` for the image ``x``.  The
*tracial representative* ``W = 2^|R| D`` (``phi(x) = tau(W x)`` with
``tau`` the normalized trace of ``M(2^|R|)``, ``W = 1`` for the tracial
state) is another scaling of the same image (:func:`state_from_tau_form`).
No state path builds a ``2^n x 2^n`` matrix.

Every change of region goes through the fermionic reorder of
:func:`carentropy.car_algebra._reorder_plan` (one gather of the rows in
the permuted order of their tensor axes, then a ``+-1`` sign per basis
state, ``(-1)^(crossed occupied pairs)``), applied to the rows of ``X``
only.  Once ``R`` is moved to the front, the restriction to ``A(R)`` is
the same rows regrouped as ``2^|R| x (2^|rest| m)``: the traced-out modes
join the ancilla, so no partial trace is taken.  A spectrum is that of the smaller of the Grams
``X X*`` and ``X* X``, which share their nonzero eigenvalues.  Eigenvalues
below ``1e-12`` are round-off zeros, clamped before logarithms.  A factor
built from a density keeps every positive eigenpair, so ``X X*`` is the
given density up to rounding; a density with an eigenvalue below ``-1e-8``
raises :class:`NotAStateError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .car_algebra import (
    AlgebraContext,
    Region,
    _local_parity_diag,
    _parity_rows,
    _reorder_rows,
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

_CHUNK = 2 ** 16  # entries per piece when drawing normals or forming the odd block of is_even


def _hermitize(x: np.ndarray) -> np.ndarray:
    return (x + x.conj().T) / 2.0


def _spectrum(factor: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``X X*`` from the smaller Gram, round-off zeros clamped."""
    xh = factor.conj().T
    lam = np.linalg.eigvalsh(xh @ factor if xh.shape[0] < factor.shape[0] else factor @ xh)
    lam[lam < EIG_FLOOR] = 0.0
    return lam


def _phase_fixed(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude entry of each column real positive (reproducibility)."""
    top = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    return vectors * (top / np.abs(top)).conj()


@dataclass(frozen=True)
class State:
    """A state of ``A(region)``, stored as a factor ``X`` of its region-intrinsic
    density ``D = X X*`` (a 2-D ``ndarray`` with ``2^|R|`` rows, any number of
    columns); the region must lie on ``ctx``'s lattice, and a trace ``|X|_F^2``
    off 1 by more than ``TRACE_TOL``, or NaN, is a :class:`NotAStateError`."""

    ctx: AlgebraContext
    region: Region
    factor: np.ndarray

    def __post_init__(self) -> None:
        self.ctx.check_region(self.region)
        d = 2 ** len(self.region)
        factor = self.factor
        if not isinstance(factor, np.ndarray) or factor.ndim != 2 or factor.shape[0] != d:
            raise ValueError(f"factor must have {d} rows for region {self.region.sites}")
        trace = np.vdot(factor, factor).real
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise NotAStateError(f"Tr(density) = {trace:.12f}, expected 1")

    def intrinsic(self) -> np.ndarray:
        """Region-intrinsic trace-one density matrix ``X X*`` (``2^|R| x 2^|R|``)."""
        return _hermitize(self.factor @ self.factor.conj().T)

    def theta_image(self) -> "State":
        """The state ``phi o Theta``: the parity-odd rows of ``X`` change sign."""
        par = _local_parity_diag(len(self.region))
        return State(self.ctx, self.region, par[:, None] * self.factor)


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
    """Build a state from its region-intrinsic trace-one density matrix.

    One ``eigh`` both checks positivity and gives the factor ``V sqrt(lam)``
    of the positive part, whose trace :class:`State` checks.  A density with
    a non-finite entry is refused before ``eigh``.
    """
    ctx.check_region(region)
    density = np.asarray(density, dtype=complex)
    d = 2 ** len(region)
    if density.shape != (d, d):
        raise ValueError(f"density must be {d}x{d} for region {region.sites}")
    if not np.isfinite(density).all():
        raise NotAStateError("density has a non-finite entry")
    lam, v = np.linalg.eigh(_hermitize(density))
    if not lam[0] >= -NEGATIVE_EIG_TOL:
        raise NotAStateError(f"density has smallest eigenvalue {lam[0]:.3e}")
    keep = lam > 0.0
    return State(ctx, region, v[:, keep] * np.sqrt(lam[keep]))


def tracial_state(ctx: AlgebraContext, region: Region) -> State:
    """The unique tracial state: ``W = 1``; entropy ``|R| ln 2``."""
    ctx.check_region(region)
    d = 2 ** len(region)
    return State(ctx, region, np.eye(d, dtype=complex) / math.sqrt(d))


def vector_state(ctx: AlgebraContext, region: Region, vec: np.ndarray) -> State:
    """Pure state of ``A(region)`` given by an intrinsic unit vector."""
    ctx.check_region(region)
    vec = np.asarray(vec, dtype=complex).ravel()
    if vec.size != 2 ** len(region):
        raise ValueError(f"vector must have length {2 ** len(region)} for region {region.sites}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"vector norm {norm:.12f} is not 1")
    return State(ctx, region, vec[:, None])


def entropy(state: State) -> float:
    """Von Neumann entropy ``-sum lam ln lam`` of the intrinsic spectrum (nats)."""
    lam = _spectrum(state.factor)
    nz = lam[lam > 0.0]
    return float(-(nz * np.log(nz)).sum())


def spectral_data(state: State) -> SpectralData:
    """Descending intrinsic spectrum with multiplicities grouped at ``CLUSTER_TOL``.

    The eigenpairs are ``eigh``'s ascending order reversed, so tied
    eigenvalues keep the reverse of ``eigh``'s order and no CPU-dependent
    sort reorders their eigenvectors.
    """
    lam, u = np.linalg.eigh(state.factor @ state.factor.conj().T)
    lam, u = lam[::-1], u[:, ::-1]
    mult: list[int] = []
    for i, x in enumerate(lam):
        if mult and abs(x - lam[i - 1]) <= CLUSTER_TOL:
            mult[-1] += 1
        else:
            mult.append(1)
    return SpectralData(lam, tuple(mult), u)


def restrict(state: State, region: Region) -> State:
    """Restriction of the state to ``A(region)``: reorder the rows, regroup.

    With ``region`` moved to the front, the factor's rows are indexed by
    (region, rest) configurations; the rest joins the ancilla, which gives a
    ``2^|region| x (2^|rest| m)`` factor of the marginal.  The restriction
    of an even state is even; restricting to the state's own region is the
    identity, and the empty region carries the unique (entropy-zero) state
    of the scalars.
    """
    if not region.issubset(state.region):
        raise ValueError(f"region {region.sites} not contained in {state.region.sites}")
    if region == state.region:
        return state
    if not region.sites:
        return tracial_state(state.ctx, region)
    rest = tuple(s for s in state.region.sites if s not in region.sites)
    rows = _reorder_rows(state.factor, state.region.sites, region.sites + rest)
    return State(state.ctx, region, rows.reshape(2 ** len(region), -1))


def is_even(state: State) -> bool:
    """Whether ``|D - Theta(D)|``, twice the norm of the density's block
    ``B = X+ X-*`` between opposite parities, is at most ``EVEN_TOL``.

    One gather of the parity rows of :func:`_parity_rows` gives ``X+`` and
    ``X-``.  A column of ``X`` with entries in one parity only adds nothing
    to ``B``, so when no column has entries in both, ``B`` is exactly zero
    and the state is even before any product is formed (the factor of a
    random even state, and of its marginals, has no such column).  This
    return uses no tolerance: an entry of any size in the other parity,
    round-off included, takes the path below.  Since
    ``max|B_ij| <= |B| <= |B|_F``, the largest entry and the Frobenius norm
    decide almost every remaining state; the spectral norm is computed only
    when ``EVEN_TOL`` lies between them.  ``B`` is formed only from the
    mixed columns and a few rows at a time, so a noneven state is usually
    decided by its first rows and the whole block is held only for the
    spectral norm.  (The Gram identity ``|B|_F^2 = tr(X+* X+ X-* X-)``
    would avoid ``B``, but it loses a small ``B`` to cancellation.)
    """
    parity_rows = _parity_rows(len(state.region))
    if len(parity_rows) == 1:  # the scalars of the empty region
        return True
    plus, minus = state.factor[parity_rows]
    mixed = plus.any(axis=0) & minus.any(axis=0)
    if not mixed.any():
        return True
    if not mixed.all():
        plus, minus = plus[:, mixed], minus[:, mixed]
    minus = minus.conj().T
    step = max(1, _CHUNK // max(1, minus.shape[1]))
    frobenius_sq = 0.0
    for start in range(0, plus.shape[0], step):
        rows = plus[start:start + step] @ minus
        if 2.0 * float(np.abs(rows).max(initial=0.0)) > EVEN_TOL:
            return False
        frobenius_sq += float(np.vdot(rows, rows).real)
    if 2.0 * math.sqrt(frobenius_sq) <= EVEN_TOL:
        return True
    return 2.0 * float(np.linalg.norm(plus @ minus, 2)) <= EVEN_TOL


def _narrow(factor: np.ndarray) -> np.ndarray:
    """A factor of the same density with at most as many columns as rows.

    ``X* = Q R`` gives ``X = R* Q*`` and ``X X* = R* R``.
    """
    if factor.shape[1] <= factor.shape[0]:
        return factor
    return np.linalg.qr(factor.conj().T, mode="r").conj().T


def transition_probability(phi: State, psi: State) -> float:
    """Uhlmann fidelity ``(Tr |sqrt(D_phi) sqrt(D_psi)|)^2`` in ``[0, 1]``.

    ``X = sqrt(D) U`` for a partial isometry ``U``, so this is the squared
    nuclear norm of ``X_phi* X_psi``.  The closed form attains the supremum
    of the vector-overlap definition of the transition probability in
    finite dimensions; it is symmetric and equals 1 exactly when the states
    coincide.
    """
    if phi.region != psi.region:
        raise ValueError("transition probability requires a common region")
    overlap = _narrow(phi.factor).conj().T @ _narrow(psi.factor)
    fid = float(np.linalg.svd(overlap, compute_uv=False).sum() ** 2)
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
    lam_w = _spectrum(omega.factor)
    lam_s, u_s = np.linalg.eigh(sigma.intrinsic())
    support = lam_s > EIG_FLOOR
    # <u_i, D_omega u_i> = |X_omega* u_i|^2
    weights = (np.abs(u_s.conj().T @ omega.factor) ** 2).sum(axis=1)
    outside = float(weights[~support].sum())
    if outside > SUPPORT_TOL:
        return math.inf
    nz = lam_w[lam_w > 0.0]
    term_w = float((nz * np.log(nz)).sum())
    term_s = float((weights[support] * np.log(lam_s[support])).sum())
    return term_w - term_s


def _gaussian_columns(
    rng: np.random.Generator, blocks: int, size: int, cols: int
) -> np.ndarray:
    """``g[:, :, :cols]`` for ``g = re + 1j im`` and ``re, im`` of each block drawn
    in turn as ``size x size`` normals.

    The normals are drawn as rows of ``size`` in chunks of about
    ``_CHUNK``, so only the kept columns are held, and the generator
    ends where one big draw would leave it.
    """
    stream = np.empty((2 * blocks * size, cols))
    step = max(1, _CHUNK // size)
    for start in range(0, len(stream), step):
        rows = min(step, len(stream) - start)
        stream[start:start + rows] = rng.normal(size=(rows, size))[:, :cols]
    stream = stream.reshape(blocks, 2, size, cols)
    g = np.empty((blocks, size, cols), dtype=complex)
    g.real, g.imag = stream[:, 0], stream[:, 1]
    return g


def _haar_columns(rng: np.random.Generator, blocks: int, size: int, cols: int) -> np.ndarray:
    """The first ``cols`` columns of ``blocks`` Haar unitaries of size ``size``.

    All ``size x size`` normals of every block are drawn whatever ``cols`` is,
    so the random stream does not depend on it; only the needed columns are
    factored, by one stacked QR.  The first ``c`` columns of a QR do not
    depend on the later ones, so a block may use fewer than ``cols``.
    """
    q, r = np.linalg.qr(_gaussian_columns(rng, blocks, size, cols))
    diag = np.diagonal(r, axis1=1, axis2=2)
    q *= (diag / np.abs(diag)).conj()[:, None, :]
    return q


def random_state(
    ctx: AlgebraContext,
    region: Region,
    *,
    even: bool = False,
    rank: int | None = None,
    seed=0,
) -> State:
    """Reproducible pseudo-random state of ``A(region)`` with the given rank.

    Eigenvalues ``w`` are a random simplex point and eigenvectors ``V`` are
    Haar columns; the factor is ``V sqrt(w)``.  With ``even=True`` the
    columns are drawn block-wise inside the two eigenspaces of the region
    parity unitary, so the density commutes with it by construction.
    ``seed`` may be anything accepted by ``numpy.random.default_rng``.
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
        half = d // 2
        r_plus = int(rng.integers(max(0, rank - half), min(rank, half) + 1))
        pairs = zip(_parity_rows(len(region)), (r_plus, rank - r_plus))
        split = [(rows, r) for rows, r in pairs if r]
        columns = _haar_columns(rng, len(split), half, max(r for _, r in split))
        factor = np.zeros((d, rank), dtype=complex)
        start = 0
        for (rows, r), block in zip(split, columns):
            factor[rows, start:start + r] = block[:, :r]
            start += r
    else:
        factor = _haar_columns(rng, 1, d, rank)[0]
    factor *= np.sqrt(weights)
    return State(ctx, region, factor)


def product_extension(state_a: State, state_b: State) -> State:
    """The product state ``phi(AB) = phi_A(A) phi_B(B)`` on the union region.

    Exists (and is unique) when the regions are disjoint and at least one
    factor is even; with the even factor's modes last, its factor is the
    Kronecker product of the two factors.
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
    return _kron_state(first, last)


def _kron_state(first: State, last: State) -> State:
    """The state on the union region whose factor, with ``first``'s modes
    ahead of ``last``'s, is the Kronecker product of the two factors.

    The rows are then reordered to the sorted union.  Callers check that the
    regions are disjoint and that the product is the state they mean.  Its
    trace is the product of theirs; one off 1 by more than ``TRACE_TOL``
    is scaled back to 1.
    """
    region = first.region.union(last.region)
    trace = np.vdot(first.factor, first.factor).real * np.vdot(last.factor, last.factor).real
    scale = 1.0 if abs(trace - 1.0) <= TRACE_TOL else 1.0 / math.sqrt(trace)
    factor = np.kron(first.factor, scale * last.factor)
    order = first.region.sites + last.region.sites
    return State(first.ctx, region, _reorder_rows(factor, order, region.sites))


def density_distance(a: State, b: State) -> float:
    """Operator-norm distance of the intrinsic densities (same region).

    The first value of the descending SVD: the same bits as
    ``np.linalg.norm(diff, 2)``, which takes the largest of that SVD.
    """
    if a.region != b.region:
        raise ValueError("states live on different regions")
    return float(np.linalg.svd(a.intrinsic() - b.intrinsic(), compute_uv=False)[0])
