"""carentropy: finite CAR lattice algebras and von Neumann entropy inequalities.

The package realizes the fermionic lattice algebra on n ordered sites as a
concrete matrix algebra, represents states of its region subalgebras with a
fixed normalization convention, and provides:

* entropy, restriction (conditional expectation), fidelity, relative
  entropy, oddness quantifier, random and product states;
* Schmidt decomposition, pure extensions, and the parity-matched symmetric
  purification that exists for every even state;
* strong subadditivity / triangle / monotonicity-form entropy gaps with
  verdict classification;
* the explicit noneven joint extension whose product with an even third
  state breaks the triangle and monotonicity-form inequalities by ln 2
  while strong subadditivity keeps holding;
* a CLI (``carentropy``) for verification campaigns and reports.
"""

from .car_algebra import (
    AlgebraContext,
    CommutantCheck,
    MonomialBasis,
    OperatorElement,
    Region,
    build_context,
    conditional_expectation,
    grade_split,
    monomial_basis,
    parity_unitary,
    relative_commutant_check,
    theta,
)
from .counterexamples import (
    ExtensionRecipe,
    build_recipe,
    joint_extension,
    odd_eigenvector_state,
    symmetrize,
    violation_demo,
)
from .errors import CapacityError, CarError, ExtensionError, NotAStateError
from .inequalities import (
    CommutingSquareReport,
    InequalityReport,
    MixingBoundsReport,
    classify_gap,
    commuting_square_check,
    inequality_report,
    mixing_bounds_check,
    mono_ssa_gap,
    monotonicity_curve,
    ssa_gap,
    triangle_gap,
)
from .purification import (
    SchmidtDecomposition,
    pure_extension,
    schmidt,
    symmetric_purification,
)
from .states import (
    SpectralData,
    State,
    density_distance,
    entropy,
    is_even,
    p_theta,
    product_extension,
    random_state,
    relative_entropy,
    restrict,
    spectral_data,
    state_from_intrinsic,
    state_from_tau_form,
    tracial_state,
    transition_probability,
    vector_state,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraContext",
    "CapacityError",
    "CarError",
    "CommutantCheck",
    "CommutingSquareReport",
    "ExtensionError",
    "ExtensionRecipe",
    "InequalityReport",
    "MixingBoundsReport",
    "MonomialBasis",
    "NotAStateError",
    "OperatorElement",
    "Region",
    "SchmidtDecomposition",
    "SpectralData",
    "State",
    "build_context",
    "build_recipe",
    "classify_gap",
    "commuting_square_check",
    "conditional_expectation",
    "density_distance",
    "entropy",
    "grade_split",
    "inequality_report",
    "is_even",
    "joint_extension",
    "mixing_bounds_check",
    "mono_ssa_gap",
    "monomial_basis",
    "monotonicity_curve",
    "odd_eigenvector_state",
    "p_theta",
    "parity_unitary",
    "product_extension",
    "pure_extension",
    "random_state",
    "relative_commutant_check",
    "relative_entropy",
    "restrict",
    "schmidt",
    "spectral_data",
    "ssa_gap",
    "state_from_intrinsic",
    "state_from_tau_form",
    "symmetric_purification",
    "symmetrize",
    "theta",
    "tracial_state",
    "transition_probability",
    "triangle_gap",
    "vector_state",
    "violation_demo",
]
