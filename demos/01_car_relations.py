"""Build a fermionic lattice algebra and inspect its structure.

Covers: generator relations, parity unitaries, the even/odd grading,
monomial bases of region subalgebras, and the relative commutant identity
that makes the union of two disjoint regions factorize as a tensor product.

An operator of a region R is held as its 2^|R| x 2^|R| image, the same
picture a state of R uses.  The generators of the whole lattice are the
images of A(1, 2, 3); the conditional expectation onto a larger region is
the inclusion, so it carries an image from A(R) into a region containing R.
"""

import numpy as np

from carentropy import (
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

ctx = build_context(3)
whole = ctx.lattice
print(f"lattice: {ctx.n} sites, algebra dimension {ctx.dim}x{ctx.dim}")

# Anticommutation relations hold exactly in this realization.
a1, a2 = ctx.annihilator(1), ctx.annihilator(2)
print("{a1, a2}            :", np.abs(a1 @ a2 + a2 @ a1).max())
print("{a1*, a1} - 1       :", np.abs(a1.conj().T @ a1 + a1 @ a1.conj().T - np.eye(8)).max())

# The parity unitary of a region flips its generators and fixes the rest.
v1_local = parity_unitary(ctx, Region((1,)))
print("v1 image            :", np.diag(v1_local.matrix).real)
v1 = conditional_expectation(ctx, v1_local, whole).matrix  # v1 as an element of A(1, 2, 3)
print("v1 a1 v1 + a1       :", np.abs(v1 @ a1 @ v1 + a1).max())
print("v1 a2 v1 - a2       :", np.abs(v1 @ a2 @ v1 - a2).max())

# The grading negates every generator; even/odd parts split any element.
print("Theta(a1) + a1      :", np.abs(theta(OperatorElement(whole, a1)).matrix + a1).max())
even, odd = grade_split(OperatorElement(whole, a1 + a1.conj().T @ a1))
print("odd part is a1      :", np.abs(odd.matrix - a1).max())

# Region subalgebras carry an orthogonal monomial basis, half even half odd.
basis = monomial_basis(ctx, Region((1, 3)))
d = basis[0].matrix.shape[0]
print(f"basis of A(1,3)     : {len(basis)} monomials, each a {d}x{d} image")

# Commutant of A(I) inside A(I u J): even part of A(J) plus v_I times its
# odd part.  The check runs on the images of A(I u J), verifies commutation
# and dimension, and (here) the from-scratch nullspace dimension.
check = relative_commutant_check(ctx, Region((1,)), Region((2, 3)))
print("commutant dimension :", check.candidate_dim, "expected", check.expected_dim)
print("largest commutator  :", check.generator_residual)
print("nullspace dimension :", check.nullspace_dim)
print("verdict             :", "ok" if check.ok else "FAILED")
