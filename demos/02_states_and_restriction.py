"""States, entropy, restriction, fidelity and the oddness quantifier.

A state of a region subalgebra is stored as a factor ``X`` of its
region-intrinsic density matrix ``D = X X*``, which drives every spectral
quantity.  Restriction is the trace-compatible conditional expectation: a
fermionic reorder of the factor's rows, after which the traced-out modes
join the columns.
"""

import numpy as np

from carentropy import (
    Region,
    build_context,
    commuting_square_check,
    entropy,
    is_even,
    odd_eigenvector_state,
    p_theta,
    random_state,
    relative_entropy,
    restrict,
    tracial_state,
    transition_probability,
)

ctx = build_context(3)
full = Region((1, 2, 3))

trace_state = tracial_state(ctx, full)
print("tracial entropy (3 sites):", entropy(trace_state), "= 3 ln 2 =", 3 * np.log(2))

phi = random_state(ctx, full, seed=42)
print("\nrandom full-rank state:")
print("  S(phi)      =", entropy(phi))
print("  S(phi|12)   =", entropy(restrict(phi, Region((1, 2)))))
print("  S(phi|2)    =", entropy(restrict(phi, Region((2,)))))
print("  even?       ", is_even(phi), " p_theta =", p_theta(phi))

even = random_state(ctx, full, even=True, seed=42)
print("\nrandom even state: p_theta =", p_theta(even))

omega = odd_eigenvector_state(ctx, Region((1,)))
print("maximally odd pure state: p_theta =", p_theta(omega))

# Fidelity between a restriction and the tracial state of the same region.
marginal = restrict(phi, Region((1,)))
print("\nfidelity(marginal, tracial):",
      transition_probability(marginal, tracial_state(ctx, Region((1,)))))

# Relative entropy against the product of marginals = mutual information.
prod = restrict(even, Region((1,)))
rest = restrict(even, Region((2, 3)))
from carentropy import product_extension

mutual = relative_entropy(even, product_extension(prod, rest))
print("mutual information I(1 : 23):", mutual)

# Conditional expectations onto overlapping regions form a commuting square.
square = commuting_square_check(phi, Region((1, 2)), Region((2, 3)))
print("\ncommuting square residual (operators):", square.operator_residual)
print("commuting square residual (state)    :", square.state_residual)
