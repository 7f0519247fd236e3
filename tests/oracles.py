"""Independent brute-force oracles used by the tests.

Everything here is built from scratch on purpose: plain Kronecker products,
plain partial traces (and their factor form, :func:`spin_restrict`),
expectation values of Jordan-Wigner monomials, and a direct
representation-based evaluation of the joint-extension functional.
The global ``2^n x 2^n`` Jordan-Wigner picture of operators and states lives
here only: :func:`lift` and :func:`local_image` map between it and the
``2^|R|`` images the package works with, by matching monomial coefficients.
None of it goes through the package's bases or its mode reordering, so
agreement is meaningful.
"""

import numpy as np

LOWER = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
EYE2 = np.eye(2, dtype=complex)


def kron_chain(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def jw_annihilators(n):
    """Jordan-Wigner annihilation matrices, site 1 on the leading factor."""
    return [
        kron_chain([PAULI_Z] * (i - 1) + [LOWER] + [EYE2] * (n - i))
        for i in range(1, n + 1)
    ]


def partial_trace(rho, dims, keep):
    """Partial trace of a density on a tensor product with factor sizes ``dims``.

    ``keep`` lists the factor indices to retain, in order.
    """
    n = len(dims)
    rho = rho.reshape(dims + dims)
    drop = [i for i in range(n) if i not in keep]
    for offset, i in enumerate(sorted(drop)):
        axis = i - offset
        rho = np.trace(rho, axis1=axis, axis2=axis + rho.ndim // 2)
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return rho.reshape(d, d)


def spin_restrict(factor, sites, region):
    """Factor of the marginal on ``region`` of the same density read as qubits.

    The rows of ``factor`` are indexed by the occupations of ``sites``, the
    first site on the leading axis.  The region's axes move to the front and
    the rest join the columns: the plain tensor-product partial trace, with
    no fermionic sign.
    """
    k = len(sites)
    axes = [sites.index(s) for s in region]
    axes += [i for i in range(k) if i not in axes] + [k]
    tensor = factor.reshape((2,) * k + (factor.shape[1],))
    return np.transpose(tensor, axes).reshape(2 ** len(region), -1)


def vn_entropy(rho):
    lam = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    lam = lam[lam > 1e-12]
    return float(-(lam * np.log(lam)).sum())


def single_site_monomials():
    """Local factors 1, a, a*, v with their parities."""
    v = LOWER.conj().T @ LOWER - LOWER @ LOWER.conj().T
    return [(EYE2, 1), (LOWER, -1), (LOWER.conj().T, -1), (v, 1)]


def monomials_on(ann, sites):
    """The 4^|sites| ordered monomials of the given annihilators' sites.

    Per-site factors 1, a, a*, v, multiplied in the order of ``sites``
    (0-based indices into ``ann``).
    """
    d = ann[0].shape[0] if ann else 1
    mats = [np.eye(d, dtype=complex)]
    for s in sites:
        a = ann[s]
        ad = a.conj().T
        v = ad @ a - a @ ad
        mats = [m @ f for m in mats for f in (np.eye(d, dtype=complex), a, ad, v)]
    return mats


def restriction_oracle(density, n, sites):
    """Density of the restriction of a global ``2^n`` density to 1-based ``sites``.

    The restricted density ``D_R`` on a fresh ``|R|``-site lattice is the
    solution of ``Tr(D_R m_alpha) = Tr(D M_alpha)`` over all monomials,
    where ``M_alpha`` runs over the global monomials on the sorted sites and
    ``m_alpha`` over the matching local ones.
    """
    sites = sorted(sites)
    glob = monomials_on(jw_annihilators(n), [s - 1 for s in sites])
    local = monomials_on(jw_annihilators(len(sites)), range(len(sites)))
    values = np.array([np.trace(density @ m) for m in glob])
    rows = np.array([m.T.ravel() for m in local])
    k = 2 ** len(sites)
    return np.linalg.solve(rows, values).reshape(k, k)


def conditional_expectation_oracle(x, n, sites):
    """Trace-compatible conditional expectation of a ``2^n`` matrix onto 1-based ``sites``.

    The orthogonal projection, for ``<A, B> = Tr(A* B)``, onto the span of
    the global Jordan-Wigner monomials on ``sites``, which are mutually
    orthogonal.
    """
    mats = np.array(monomials_on(jw_annihilators(n), [s - 1 for s in sorted(sites)]))
    flat = mats.reshape(len(mats), -1)
    norms = np.einsum("ij,ij->i", flat.conj(), flat).real
    coeffs = (flat.conj() @ x.ravel()) / norms
    return (coeffs @ flat).reshape(x.shape)


def car_monomials(n):
    """All 4^n ordered monomials of the n-site lattice with parities."""
    ann = jw_annihilators(n)
    mats = [np.eye(2 ** n, dtype=complex)]
    pars = [1]
    for i in range(n):
        a = ann[i]
        ad = a.conj().T
        v = ad @ a - a @ ad
        site = [(np.eye(2 ** n, dtype=complex), 1), (a, -1), (ad, -1), (v, 1)]
        mats = [m @ f for m in mats for f, _ in site]
        pars = [p * q for p in pars for _, q in site]
    return mats, pars


def joint_extension_functional(p, q, eta_k, eta_i):
    """Representation-based values of the joint extension on product monomials.

    ``eta_k`` (dim ``2^p``) and ``eta_i`` (dim ``2^q``) are the defining
    vectors of the maximally odd pure states on the two lattices.  The
    twisted representation acts on the tensor product: an even second
    factor acts as ``A1 (x) A2``, an odd one as ``A1 u1 (x) A2`` with
    ``u1`` the parity unitary of the first lattice.  Returns the matrix of
    values ``psi[(alpha, beta)]`` over all monomial pairs together with the
    product monomials of the combined defining representation.
    """
    mats_k, _ = car_monomials(p)
    mats_i, pars_i = car_monomials(q)
    u1 = kron_chain([-PAULI_Z] * p)
    omega = np.kron(eta_k, eta_i)

    values = np.zeros((len(mats_k), len(mats_i)), dtype=complex)
    for al, a1 in enumerate(mats_k):
        for be, a2 in enumerate(mats_i):
            first = a1 if pars_i[be] > 0 else a1 @ u1
            # rho2(A2_even) for the symmetrized partner equals the raw value
            # of the odd defining state on even elements, so one vector does
            # both jobs here (its odd values enter only through the twist).
            pi = np.kron(first, a2)
            values[al, be] = omega.conj() @ (pi @ omega)
    return values


def solve_density_from_functional(values, p, q):
    """Trace-one density of the combined lattice from functional values.

    Solves ``Tr(D X_ab) = psi(X_ab)`` over the product monomials ``X_ab``
    of the combined (p+q)-site defining representation, built K-first.
    """
    n = p + q
    ann = jw_annihilators(n)
    mk = monomials_on(ann, range(p))
    mi = monomials_on(ann, range(p, n))
    rows = []
    rhs = []
    for al, a1 in enumerate(mk):
        for be, a2 in enumerate(mi):
            x = a1 @ a2
            rows.append(x.T.ravel())
            rhs.append(values[al, be])
    coeff = np.array(rows)
    sol = np.linalg.lstsq(coeff, np.array(rhs), rcond=None)[0]
    dens = sol.reshape(2 ** n, 2 ** n)
    return (dens + dens.conj().T) / 2.0


def _monomial_coefficients(x, mats):
    """Coefficients of ``x`` on mutually orthogonal matrices ``mats``."""
    flat = np.array(mats).reshape(len(mats), -1)
    norms = np.einsum("ij,ij->i", flat.conj(), flat).real
    return (flat.conj() @ x.ravel()) / norms


def lift(local, n, sites):
    """The global ``2^n`` matrix of the element of ``A(sites)`` with image ``local``.

    The image is taken with the 1-based ``sites`` in the given order: the
    monomials of a fresh ``|sites|``-site lattice map onto the global
    monomials of ``sites`` multiplied in that order, coefficient for
    coefficient.
    """
    k = len(sites)
    coeffs = _monomial_coefficients(local, monomials_on(jw_annihilators(k), range(k)))
    glob = monomials_on(jw_annihilators(n), [s - 1 for s in sites])
    return np.tensordot(coeffs, np.array(glob), axes=1)


def local_image(x, n, sites):
    """Inverse of :func:`lift`; ``ValueError`` when ``x`` is not in ``A(sites)``."""
    k = len(sites)
    glob = monomials_on(jw_annihilators(n), [s - 1 for s in sites])
    coeffs = _monomial_coefficients(x, glob)
    resid = float(np.linalg.norm(x - np.tensordot(coeffs, np.array(glob), axes=1)))
    if resid > 1e-10 * max(1.0, float(np.linalg.norm(x))):
        raise ValueError(f"matrix not in the subalgebra of sites {sites} (residual {resid:.3e})")
    return np.tensordot(coeffs, np.array(monomials_on(jw_annihilators(k), range(k))), axes=1)


def slater_vector(phi):
    """The ``2^n`` vector ``a*(phi_1) ... a*(phi_N) |0>`` of orthonormal orbitals,
    the columns of the ``n x N`` array ``phi``.

    Built with bit operations, no matrices, in the Jordan-Wigner convention of
    :func:`jw_annihilators`: site ``i`` is bit ``n - i`` of a basis index (site 1
    leading), a set bit is an occupied mode, and ``a_i*`` sets bit ``i`` with the
    sign ``(-1)^(occupied sites before i)`` of the ``Z`` string.
    """
    n = phi.shape[0]
    index = np.arange(2 ** n)
    ones = np.array([bin(x).count("1") for x in index])
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = 1.0
    for orbital in phi.T[::-1]:
        out = np.zeros_like(vec)
        for i, amplitude in enumerate(orbital, start=1):
            bit = n - i
            empty = index[(index >> bit) & 1 == 0]
            sign = 1 - 2 * (ones[empty >> (bit + 1)] & 1)
            out[empty | (1 << bit)] += amplitude * sign * vec[empty]
        vec = out
    return vec


def correlation_entropy(C, sites):
    """Entropy of a quasi-free state on the 1-based ``sites``, from the block
    ``C_RR`` of its correlation matrix ``C_ij = <a_i* a_j>``:
    ``-sum [nu ln nu + (1 - nu) ln(1 - nu)]`` over the eigenvalues ``nu`` of
    ``C_RR`` (Peschel, J. Phys. A 36, L205, 2003)."""
    rows = np.asarray(sites) - 1
    nu = np.clip(np.linalg.eigvalsh(C[np.ix_(rows, rows)]), 0.0, 1.0)
    return float(-sum(p * np.log(p) for p in np.concatenate([nu, 1.0 - nu]) if p > 0.0))


def parity(n, sites):
    """Global parity unitary ``v = prod (a* a - a a*)`` of 1-based ``sites``."""
    out = np.eye(2 ** n, dtype=complex)
    for a in (jw_annihilators(n)[s - 1] for s in sites):
        out = out @ (a.conj().T @ a - a @ a.conj().T)
    return out


def theta(x, n):
    """The grading of a global ``2^n`` matrix: conjugation by the full parity."""
    v = parity(n, range(1, n + 1))
    return v @ x @ v


def rep(state, n):
    """Tracial representative ``W`` of a state on the ``n``-site lattice (``phi = tau(W .)``)."""
    scaled = state.intrinsic() * 2 ** len(state.region)
    return lift(scaled, n, state.region.sites)


def value(state, x):
    """The functional ``phi(x) = tau(W x)`` of a state for a global ``2^n`` matrix ``x``."""
    n = len(x).bit_length() - 1
    return complex(np.einsum("ij,ji->", rep(state, n), x) / 2 ** n)


def sqrt_psd(x):
    """Square root of a positive semidefinite matrix, by its eigendecomposition."""
    lam, u = np.linalg.eigh((x + x.conj().T) / 2.0)
    return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T


def fidelity(d1, d2):
    """Uhlmann fidelity ``(Tr |sqrt(D1) sqrt(D2)|)^2`` of two densities."""
    return float(np.linalg.svd(sqrt_psd(d1) @ sqrt_psd(d2), compute_uv=False).sum() ** 2)


def odd_block(density):
    """The block of a ``2^k`` density between even and odd occupation numbers."""
    parity = np.array([bin(i).count("1") % 2 for i in range(density.shape[0])])
    return density[np.ix_(parity == 0, parity == 1)]
