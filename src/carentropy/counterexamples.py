"""Noneven joint extensions that break the triangle and monotonicity bounds.

The construction takes three mutually disjoint regions K, I, J:

* ``rho1`` on K: a *maximally odd* pure state (oddness quantifier
  ``p_theta = 0``), by default the vector state of
  ``eta = (e_0 + e_(2^(|K|-1))) / sqrt(2)``, the vacuum plus the first site
  of K filled, a +1 eigenvector of ``a_k + a_k*``.  Then ``eta`` is
  orthogonal to ``v_K eta`` and the grading flips the state to the vector
  state of ``v_K eta``.
* ``rho2_tilde`` on I: any state with ``rho2_tilde != rho2_tilde o Theta``;
  its grading-symmetrized average ``rho2 = (rho2_tilde + rho2_tilde o
  Theta) / 2`` is even and has strictly larger entropy.
* the joint extension ``psi`` of ``rho1`` and ``rho2`` on ``A(K u I)``
  defined monomial-wise as

      psi(A1 A2) = rho1(A1) rho2(A2_even)
                   + rho1(A1 u1) rho2_tilde(A2_odd),

  with ``u1`` a self-adjoint unitary implementing the grading on ``A(K)``
  (for a pure state of a full matrix algebra the GNS representation is the
  defining one, so the GNS extension of ``rho1`` is just ``<eta, . eta>``).
  ``u1 v_K`` commutes with all of ``A(K) = M(2^|K|)``, so it is a scalar,
  and a self-adjoint unitary scalar is ``+-1``: ``u1 = +-v_K``.  The sign
  ``-1`` negates the odd term, which is the extension built from
  ``rho2_tilde o Theta``, so ``u1 = v_K`` loses nothing, and
  ``rho1(u1) = <eta, v_K eta> = 0``.  In K-first mode order an odd ``A2``
  acts as the parity of ``K`` times a local odd matrix, and ``v_K`` is
  ``(-1)^|K|`` times that parity, so the density is the closed form
  ``D1 (x) (even(D2~) + (-1)^|K| odd(D2~))``: ``D1 (x) D2~`` for even
  ``|K|`` and ``D1 (x) Theta(D2~)`` for odd ``|K|``.  The entropy of
  ``psi`` equals the entropy of ``rho2_tilde`` (not of ``rho2``), which is
  what breaks the inequalities.

* ``rhoJ`` on J: an arbitrary even state; the full demo state is the
  product extension ``psi o rhoJ``.

An :class:`ExtensionRecipe` holds the two states ``rho1`` and ``rho2_tilde``,
reads K and I off their regions and checks them on construction.
:func:`violation_demo` owns J and ``rhoJ`` (tracial by default);
:func:`carentropy.states.product_extension` refuses an overlapping J or a
noneven ``rhoJ``.

With one site per region, ``rho2_tilde`` maximally odd pure, and ``rhoJ``
tracial, the demo state has ``S(K) = S(K u I) = 0``,
``S(I) = S(J) = S(K u J) = ln 2``, so both the triangle gap on (I, K) and
the monotonicity-form gap on (I, J; K) equal ``-ln 2`` while strong
subadditivity still holds on the same state.

:func:`violation_demo` reads the demo state through the marginal table of
:mod:`carentropy.inequalities`, which restricts it to each of its six regions
(K, I, J, K u I, K u J, K u I u J) once; the entropies and the K, I and J
residuals share those marginals, and the report builder is the same.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .car_algebra import AlgebraContext, Region, _readonly
from .inequalities import InequalityReport, _Marginals, _mono_ssa, _report, _ssa, _triangle
from .states import (
    State,
    _kron_state,
    density_distance,
    entropy,
    p_theta,
    product_extension,
    tracial_state,
    vector_state,
)
from .tolerances import ODDNESS_MIN, P_THETA_TOL, PURITY_TOL

__all__ = [
    "ExtensionRecipe",
    "ViolationReport",
    "odd_eigenvector_state",
    "symmetrize",
    "build_recipe",
    "joint_extension",
    "violation_demo",
]


@functools.lru_cache(maxsize=None)
def _default_odd_vector(k: int) -> np.ndarray:
    """``(e_0 + e_(2^(k-1))) / sqrt(2)`` on a ``k``-site local lattice (cached, read-only).

    The vacuum plus the first site filled.  ``a_1 + a_1*`` is
    ``sigma_x (x) 1``, which swaps ``e_j`` and ``e_(j + 2^(k-1))``, so the
    vector is a +1 eigenvector of it.  Its two entries have opposite
    parity, so ``v_K`` negates one of them and the parity image
    ``(e_0 - e_(2^(k-1))) / sqrt(2)`` is orthogonal to it.
    """
    vec = np.zeros((2 ** k, 1), dtype=complex)
    vec[[0, 2 ** (k - 1)]] = 1 / math.sqrt(2)
    return _readonly(vec)


def odd_eigenvector_state(ctx: AlgebraContext, K: Region) -> State:
    """Vector state of ``(e_0 + e_(2^(|K|-1))) / sqrt(2)`` on ``A(K)``.

    The vector is a +1 eigenvector of ``a_k + a_k*`` for the first site
    ``k`` of ``K`` and is built once per ``|K|``.  The state is pure,
    noneven, and maximally odd: the vector is orthogonal to its parity
    image, so ``p_theta = 0``.  Another maximally odd vector goes through
    :func:`~carentropy.states.vector_state` and :class:`ExtensionRecipe`,
    which checks it.
    """
    ctx.check_region(K)
    if not K.sites:
        raise ValueError("K must be nonempty")
    return vector_state(ctx, K, _default_odd_vector(len(K)))


def symmetrize(state: State) -> State:
    """Grading-symmetrized average ``(phi + phi o Theta) / 2``; always even.

    Its factor stacks the two factors' columns, each scaled by ``1/sqrt(2)``.
    """
    factor = np.hstack([state.factor, state.theta_image().factor]) / math.sqrt(2.0)
    return State(state.ctx, state.region, factor)


@dataclass(frozen=True)
class ExtensionRecipe:
    """The two states of the joint extension, checked on construction.

    ``rho1`` is a maximally odd pure state and ``rho2_tilde`` a state that
    differs from its parity image; their regions ``K`` and ``I`` are
    disjoint.  ``__post_init__`` raises ``ValueError`` otherwise, so
    ``dataclasses.replace`` re-checks a state it swaps in, and moves its region.
    """

    rho1: State
    rho2_tilde: State

    def __post_init__(self) -> None:
        if not self.K.isdisjoint(self.I):
            raise ValueError("K and I must be disjoint")
        if not p_theta(self.rho1) <= P_THETA_TOL:
            raise ValueError(
                "rho1 must be maximally odd (p_theta = 0); the functional formula "
                "is not a state extension otherwise"
            )
        if not entropy(self.rho1) <= PURITY_TOL:
            raise ValueError("rho1 must be pure")
        if not density_distance(self.rho2_tilde, self.rho2_tilde.theta_image()) > ODDNESS_MIN:
            raise ValueError("rho2_tilde must differ from its parity image")

    @property
    def K(self) -> Region:
        """The region of ``rho1``."""
        return self.rho1.region

    @property
    def I(self) -> Region:
        """The region of ``rho2_tilde``."""
        return self.rho2_tilde.region

    @functools.cached_property
    def rho2(self) -> State:
        """The even marginal on ``I``, ``symmetrize(rho2_tilde)``, built once per recipe."""
        return symmetrize(self.rho2_tilde)


@dataclass(frozen=True)
class ViolationReport(InequalityReport):
    """The gaps of the violation demo, the entropies and residuals behind them,
    and the recipe they came from."""

    entropies: dict[str, float] | None = None
    residuals: dict[str, float] | None = None
    recipe: ExtensionRecipe | None = None


def build_recipe(
    ctx: AlgebraContext, K: Region, I: Region, *, rho2_tilde: State | None = None
) -> ExtensionRecipe:
    """The recipe with the default ``rho1`` on ``K`` and the given or default ``rho2_tilde``.

    Both defaults are :func:`odd_eigenvector_state` vector states; a given
    ``rho2_tilde`` must live on ``I``, and the recipe checks itself on
    construction.
    """
    ctx.check_region(K)
    ctx.check_region(I)
    if not I.sites:
        raise ValueError("I must be nonempty")
    rho1 = odd_eigenvector_state(ctx, K)
    if rho2_tilde is None:
        rho2_tilde = odd_eigenvector_state(ctx, I)
    elif rho2_tilde.region != I:
        raise ValueError(f"rho2_tilde lives on {rho2_tilde.region.sites}, expected {I.sites}")
    return ExtensionRecipe(rho1, rho2_tilde)


def joint_extension(recipe: ExtensionRecipe) -> State:
    """The joint extension of ``rho1`` and ``rho2`` on ``A(K u I)``.

    Restricts to ``rho1`` on ``A(K)`` and to ``rho2`` on ``A(I)``, but its
    entropy equals that of ``rho2_tilde``.  Swapping ``rho2_tilde`` for its
    parity image yields a *different* extension with the same marginals.
    With ``u1 = v_K`` (the only choice up to a sign, which swaps
    ``rho2_tilde`` for its parity image) the density in K-first mode order
    is ``D1 (x) D2~`` for even ``|K|`` and ``D1 (x) Theta(D2~)`` for odd
    ``|K|``, so its factor is the Kronecker product of the two factors,
    reordered to the sorted sites of ``K u I``.  The recipe was checked
    when it was built.

    That product is a state for every ``rho1``; maximal oddness is what
    makes its I-marginal the even ``rho2``.  In general the I-marginal is
    ``((1+c)/2) rho2_tilde + ((1-c)/2) rho2_tilde o Theta`` with
    ``c = +Tr(D1 v_K)``, the expectation of ``rho1`` on the parity unitary of
    ``K``; the recipe's ``rho1`` has ``c = 0``.
    """
    tilde = recipe.rho2_tilde
    second = tilde if len(recipe.K) % 2 == 0 else tilde.theta_image()
    return _kron_state(recipe.rho1, second)


def violation_demo(
    ctx: AlgebraContext,
    K: Region,
    I: Region,
    J: Region,
    rhoJ: State | None = None,
    rho2_tilde: State | None = None,
) -> ViolationReport:
    """Build ``psi o rhoJ`` and report its gaps, entropies, residuals and recipe.

    The recipe comes from :func:`build_recipe`; ``rhoJ`` defaults to the
    tracial state on ``J`` and must live on ``J``.

    Expected pattern: the monotonicity-form gap on (I, J; K) and the
    triangle gap on (I, K) are negative (``-ln 2`` with the defaults) while
    the strong subadditivity gap on the overlapping pair (K u I, K u J)
    stays nonpositive.  Each of the six report regions is restricted once:
    the entropies and the K, I and J residuals share those marginals.
    """
    recipe = build_recipe(ctx, K, I, rho2_tilde=rho2_tilde)
    if rhoJ is None:
        rhoJ = tracial_state(ctx, J)
    elif rhoJ.region != J:
        raise ValueError(f"rhoJ lives on {rhoJ.region.sites}, expected {J.sites}")
    full = product_extension(joint_extension(recipe), rhoJ)

    S = _Marginals(full)
    KI, KJ = K.union(I), K.union(J)
    regions = {"K": K, "I": I, "J": J, "KI": KI, "KJ": KJ, "KIJ": KI.union(J)}
    # the K, I and J marginals are asked for first, so their entropies reuse them
    residuals = {
        "restriction_K": density_distance(S.state(K), recipe.rho1),
        "restriction_I": density_distance(S.state(I), recipe.rho2),
        "restriction_J": density_distance(S.state(J), rhoJ),
        "entropy_vs_rho2_tilde": abs(S(KI) - entropy(recipe.rho2_tilde)),
        "product_entropy": abs(S(KJ) - S(K) - S(J)),
    }
    gaps = {
        "mono_ssa": _mono_ssa(S, I, J, K),
        "triangle": _triangle(S, I, K),
        "ssa": _ssa(S, KI, KJ),
    }
    return _report(
        ViolationReport, full, regions, gaps,
        entropies={name: S(region) for name, region in regions.items()},
        residuals=residuals,
        recipe=recipe,
    )
