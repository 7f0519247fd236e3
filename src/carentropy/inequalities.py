"""Entropy inequality gaps, monotonicity and mixing bounds.

Gap conventions (all entropies in nats, computed from restrictions of one
state ``phi``):

* ``ssa_gap(phi, I, J)      = S(I u J) - S(I) - S(J) + S(I n J)``
  (strong subadditivity asks for ``<= 0``; it holds for *every* state of a
  CAR lattice, even or not).
* ``triangle_gap(phi, I, J) = S(I u J) - |S(I) - S(J)|`` for disjoint
  regions (negative means the triangle inequality is violated).
* ``mono_ssa_gap(phi, I, J, K) = S(K u I) + S(K u J) - S(I) - S(J)`` for
  mutually disjoint regions (negative means violation; nonnegativity is
  the monotonicity of ``K -> S(K u I) + S(K u J)``).

Both of the latter hold for every even state and can fail for noneven
states; entropy over the empty region is 0 (the trivial subalgebra has a
unique state).

Every gap reads the one marginal table of its state, ``_Marginals``, the
only place that gives the empty region ``S = 0.0``; one builder assembles
both reports, this module's and :mod:`carentropy.counterexamples`'s.

No state violates either of them by more than ``2 ln 2``.  The average
``phi_bar = (phi + phi o Theta) / 2`` is even.  On every ``A(R)`` the
grading ``Theta`` is conjugation by ``v_R``, so ``S(phi_R o Theta) =
S(phi_R)``, and concavity together with the mixing bound (both checked by
:func:`mixing_bounds_check`) give

    S(phi_R) <= S(phi_bar_R) <= S(phi_R) + ln 2.

The even-state theorem applied to ``phi_bar`` then gives

    S(phi_IJ) >= S(phi_bar_IJ) - ln 2 >= |S(phi_bar_I) - S(phi_bar_J)| - ln 2
              >= |S(phi_I) - S(phi_J)| - 2 ln 2,
    mono_ssa_gap(phi) >= mono_ssa_gap(phi_bar) - 2 ln 2 >= -2 ln 2.

The ``verify`` command of :mod:`carentropy.cli` flags any trial beyond
that bound as an unexpected violation.

Verdicts separate float noise from genuine violations: a gap on the good
side of ``-1e-9`` "holds", one below ``-1e-6`` is "violated", the band in
between is "indeterminate" (constructed violations are O(ln 2), far from
the band); the band lives in :mod:`carentropy.tolerances`.

The commuting-square check acts on operator images: :mod:`carentropy.operators`.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .car_algebra import Region
from .errors import CarError
from .states import State, entropy, is_even, restrict
from .tolerances import HOLD_TOL, VIOLATION_TOL

__all__ = [
    "InequalityReport",
    "MixingBoundsReport",
    "classify_gap",
    "ssa_gap",
    "triangle_gap",
    "mono_ssa_gap",
    "monotonicity_curve",
    "mixing_bounds_check",
    "inequality_report",
]


def classify_gap(kind: str, gap: float) -> str:
    """Map a gap value to ``holds`` / ``violated`` / ``indeterminate``.

    ``ssa`` holds on the nonpositive side; ``triangle`` and ``mono_ssa``
    hold on the nonnegative side; a gap that is not finite raises
    :class:`CarError`.
    """
    if not math.isfinite(gap):
        raise CarError(f"{kind} gap is {gap}, not a finite number")
    signed = -gap if kind == "ssa" else gap
    if signed >= -HOLD_TOL:
        return "holds"
    if signed < -VIOLATION_TOL:
        return "violated"
    return "indeterminate"


def _contained(state: State, region: Region, name: str) -> None:
    if not region.issubset(state.region):
        raise ValueError(f"region {name}={region.sites} not contained in {state.region.sites}")


class _Marginals:
    """``S(R)``, the entropy of the marginal ``S.state(R)`` of one state; each
    region is restricted once.  Only marginals that ``state`` asked for are
    kept, so a report on a large lattice holds one at a time.  The empty
    region has ``S = 0.0`` (``entropy`` of its 1 x 1 marginal gives ``-0.0``).
    """

    def __init__(self, state: State):
        self._state = state
        self._marginals: dict[Region, State] = {}
        self._entropies: dict[Region, float] = {}

    def state(self, region: Region) -> State:
        if region not in self._marginals:
            self._marginals[region] = restrict(self._state, region)
        return self._marginals[region]

    def __call__(self, region: Region) -> float:
        if not region.sites:
            return 0.0
        if region not in self._entropies:
            marginal = self._marginals.get(region) or restrict(self._state, region)
            self._entropies[region] = entropy(marginal)
        return self._entropies[region]


def _ssa(S: Callable[[Region], float], I: Region, J: Region) -> float:
    return S(I.union(J)) - S(I) - S(J) + S(I.intersection(J))


def _triangle(S: Callable[[Region], float], I: Region, J: Region) -> float:
    return S(I.union(J)) - abs(S(I) - S(J))


def _mono_ssa(S: Callable[[Region], float], I: Region, J: Region, K: Region) -> float:
    return S(K.union(I)) + S(K.union(J)) - S(I) - S(J)


def ssa_gap(state: State, I: Region, J: Region) -> float:
    """Strong subadditivity gap; overlap between ``I`` and ``J`` is allowed."""
    _contained(state, I, "I")
    _contained(state, J, "J")
    return _ssa(_Marginals(state), I, J)


def triangle_gap(state: State, I: Region, J: Region) -> float:
    """Triangle gap for disjoint regions; negative means violation."""
    _contained(state, I, "I")
    _contained(state, J, "J")
    if not I.isdisjoint(J):
        raise ValueError(f"triangle inequality needs disjoint regions, got {I.sites}, {J.sites}")
    return _triangle(_Marginals(state), I, J)


def mono_ssa_gap(state: State, I: Region, J: Region, K: Region) -> float:
    """Monotonicity-form gap for mutually disjoint I, J, K; negative = violation."""
    for name, region in (("I", I), ("J", J), ("K", K)):
        _contained(state, region, name)
    if not (I.isdisjoint(J) and I.isdisjoint(K) and J.isdisjoint(K)):
        raise ValueError("regions I, J, K must be mutually disjoint")
    return _mono_ssa(_Marginals(state), I, J, K)


def monotonicity_curve(
    state: State, I: Region, J: Region, chain: list[Region]
) -> list[float]:
    """Values of ``K -> S(K u I) + S(K u J)`` along a nested chain of K's."""
    previous: Region | None = None
    for K in chain:
        _contained(state, K, "K")
        if not (K.isdisjoint(I) and K.isdisjoint(J)):
            raise ValueError(f"chain element {K.sites} overlaps I or J")
        if previous is not None and not previous.issubset(K):
            raise ValueError(f"chain is not nested at {K.sites}")
        previous = K
    S = _Marginals(state)
    return [S(K.union(I)) + S(K.union(J)) for K in chain]


@dataclass(frozen=True)
class MixingBoundsReport:
    """Slacks of the two mixing bounds for ``lam * phi + (1 - lam) * psi``.

    ``concavity_slack = S(mix) - lam S(phi) - (1-lam) S(psi) >= 0`` and
    ``convexity_slack = lam S(phi) + (1-lam) S(psi) + h(lam) - S(mix) >= 0``
    with ``h`` the binary entropy of the mixing weight.
    """

    lam: float
    mixture_entropy: float
    concavity_slack: float
    convexity_slack: float

    @property
    def ok(self) -> bool:
        return self.concavity_slack >= -HOLD_TOL and self.convexity_slack >= -HOLD_TOL


def mixing_bounds_check(phi: State, psi: State, lam: float) -> MixingBoundsReport:
    """Check concavity and the mixing upper bound for the convex combination."""
    if phi.region != psi.region:
        raise ValueError("mixing requires a common region")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must be in [0, 1], got {lam}")
    stacked = np.hstack([math.sqrt(lam) * phi.factor, math.sqrt(1.0 - lam) * psi.factor])
    mixture = State(phi.ctx, phi.region, stacked)
    s_mix = entropy(mixture)
    avg = lam * entropy(phi) + (1.0 - lam) * entropy(psi)
    h = 0.0
    for w in (lam, 1.0 - lam):
        if w > 0.0:
            h -= w * np.log(w)
    return MixingBoundsReport(
        lam=lam,
        mixture_entropy=s_mix,
        concavity_slack=s_mix - avg,
        convexity_slack=avg + h - s_mix,
    )


@dataclass(frozen=True)
class InequalityReport:
    """Named gaps, verdicts and parity metadata for one tested state."""

    regions: dict[str, tuple[int, ...]]
    even_state: bool
    ssa_gap: float | None = None
    triangle_gap: float | None = None
    mono_ssa_gap: float | None = None
    verdicts: dict[str, str] = field(default_factory=dict)


def inequality_report(
    state: State,
    I: Region,
    J: Region,
    K: Region | None = None,
) -> InequalityReport:
    """Evaluate all applicable gaps of one state for the given regions.

    SSA is always evaluated on (I, J).  The triangle gap needs disjoint I,
    J and is skipped otherwise.  The monotonicity-form gap needs a third
    mutually disjoint region K.  Every given region, K included, must lie
    in the state's region.
    """
    _contained(state, I, "I")
    _contained(state, J, "J")
    if K is not None:
        _contained(state, K, "K")
    S = _Marginals(state)  # shared by the three gaps: each region costs one entropy
    disjoint = I.isdisjoint(J)
    gaps = {"ssa": _ssa(S, I, J), "triangle": _triangle(S, I, J) if disjoint else None}
    if K is not None and disjoint and K.isdisjoint(I) and K.isdisjoint(J):
        gaps["mono_ssa"] = _mono_ssa(S, I, J, K)
    regions = {"I": I, "J": J} if K is None else {"I": I, "J": J, "K": K}
    return _report(InequalityReport, state, regions, gaps)


def _report(cls, state: State, regions: dict[str, Region], gaps: dict, **extra):
    """A ``cls`` report of ``state``: the regions' sites, its parity, the three
    gap fields (``None`` for a gap absent from ``gaps``) and the verdicts of
    the present gaps, in the order of ``gaps``; ``extra`` fills the rest."""
    verdicts = {kind: classify_gap(kind, gap) for kind, gap in gaps.items() if gap is not None}
    return cls(
        regions={name: region.sites for name, region in regions.items()},
        even_state=is_even(state),
        ssa_gap=gaps.get("ssa"),
        triangle_gap=gaps.get("triangle"),
        mono_ssa_gap=gaps.get("mono_ssa"),
        verdicts=verdicts,
        **extra,
    )
