"""Every numerical threshold of the package, each named once.

The paper's results are sign statements (SSA <= 0 for every state; the
triangle and MONO-SSA gaps >= 0 for even states but ``-ln 2`` for the
noneven joint extension), read through the fixed verdict band
``HOLD_TOL`` / ``VIOLATION_TOL``.  No function takes a tolerance argument:
every module imports its thresholds from here.  Thresholds that share a
value but guard different checks keep separate names.
"""

# Verdicts on entropy gaps (nats)
HOLD_TOL = 1e-9  # a gap on the good side of -HOLD_TOL holds; entropy round-off is far below it
VIOLATION_TOL = 1e-6  # beyond -VIOLATION_TOL a gap is violated; constructed violations are O(ln 2)

# Densities and spectra
EIG_FLOOR = 1e-12  # eigenvalues below it are round-off zeros, clamped before taking logarithms
NEGATIVE_EIG_TOL = 1e-8  # an eigenvalue below -NEGATIVE_EIG_TOL is genuine: NotAStateError
TRACE_TOL = 1e-8  # |Tr D - 1| (or |tau(W) - 1|) an input density may carry from its producer
HERMITICITY_TOL = 1e-8  # largest |D - D*| entry an input density may carry; more is not round-off
NORM_TOL = 1e-10  # | |v| - 1 | an input unit vector may carry
EVEN_TOL = 1e-10  # |D - Theta(D)| up to which a density is even; noneven ones sit O(1) away
SUPPORT_TOL = 1e-10  # weight of omega outside supp(sigma) beyond which S(omega | sigma) is infinite
SCHMIDT_TOL = 1e-10  # Schmidt coefficients at or below it are round-off zeros

# Operators and subalgebras
CAR_ATOL = 1e-12  # commutator and Gram residuals of exact monomials, built from 0/+-1 entries
RANK_TOL = 1e-8  # eigen- and singular values at or below it are zero when counting dimensions
NULLSPACE_RESIDUAL_TOL = 1e-8  # the candidate commutant must meet the stacked constraints to this
ODD_WITNESS_MIN = 1e-6  # an odd monomial of A(J) must fail to commute with A(I) by more than this
COMMUTING_SQUARE_TOL = 1e-10  # entrywise residual of the commuting-square identities

# The noneven joint extension
P_THETA_TOL = 1e-8  # p_theta (a square root of a fidelity) up to which rho1 is maximally odd
PURITY_TOL = 1e-10  # entropy up to which rho1 is pure
ODDNESS_MIN = 1e-6  # rho2_tilde must differ from its parity image by more than this
