"""An exact rational certificate of the counterexample, independent of the package.

The demo state ``psi o rhoJ`` is rebuilt in :class:`fractions.Fraction` from
the paper's monomial-wise definition.  With ``A1``, ``A2`` and ``A3``
monomials of ``A(K)``, ``A(I)`` and ``A(J)``::

    psi(A1 A2 A3) = rho1(A1) rho2~(A2) tau(A3)        for even A2,
                    rho1(A1 v_K) rho2~(A2) tau(A3)    for odd A2,

with ``tau`` the tracial state of ``A(J)``.  The density of the restriction
to a region ``R`` is ``D = sum_M psi(M) M* / Tr(M* M)`` over the ``4^|R|``
ordered monomials ``M`` of ``A(R)``, which are mutually orthogonal.  An
operator is a sparse signed partial permutation of the ``2^k``
Jordan-Wigner basis states of a ``k``-site lattice (site 1 on the leading
bit): a dict from a column to its one nonzero entry ``(row, sign)``.  No
step goes through the package's reorder or its Kronecker closed form.

Entropies are exact too.  A density with ``D^2 = D / r`` is ``1/r`` times a
rank-``r`` projector, and a diagonal density has its diagonal as spectrum.
``S = -sum lam ln lam`` is then a rational combination of the logarithms of
primes, which are linearly independent over the rationals, so an entropy is
a dict ``{prime: coefficient}`` and two are equal exactly when their dicts
are.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

# local factors of a monomial, one per site: 1, a, a*, v = a* a - a a*
ONE, LOWER, RAISE, PARITY = range(4)
ODD = {LOWER, RAISE}


def site_op(k, site, code):
    """The sparse image of one local factor at 0-based ``site`` of a ``k``-site lattice."""
    bit = 1 << (k - 1 - site)
    out = {}
    for col in range(2 ** k):
        occupied = bool(col & bit)
        string = (-1) ** bin(col >> (k - site)).count("1")  # the Jordan-Wigner Z string
        if code == ONE:
            out[col] = (col, 1)
        elif code == PARITY:
            out[col] = (col, 1 if occupied else -1)
        elif code == LOWER and occupied:
            out[col] = (col ^ bit, string)
        elif code == RAISE and not occupied:
            out[col] = (col ^ bit, string)
    return out


def product(x, y):
    """The sparse image of ``x y``."""
    out = {}
    for col, (mid, s) in y.items():
        if mid in x:
            row, t = x[mid]
            out[col] = (row, s * t)
    return out


def monomial(codes):
    """The ordered monomial with local factor ``codes[i]`` at site ``i``."""
    k = len(codes)
    out = {col: (col, 1) for col in range(2 ** k)}
    for site, code in enumerate(codes):
        out = product(out, site_op(k, site, code))
    return out


def expectation(density, x):
    """``Tr(D x)`` for a sparse density (``{(row, col): value}``) and a sparse operator."""
    return sum((density.get((col, row), 0) * s for col, (row, s) in x.items()), Fraction(0))


def vector_density(vec):
    """The density ``v v*`` of a real unit vector with rational ``v_i v_j``."""
    return {
        (i, j): Fraction(a) * Fraction(b)
        for (i, a), (j, b) in itertools.product(enumerate(vec), repeat=2) if a and b
    }


def default_density(k):
    """``eta eta*`` for ``eta = (e_0 + e_(2^(k-1))) / sqrt(2)``: four entries of 1/2."""
    half = Fraction(1, 2)
    return {(i, j): half for i in (0, 2 ** (k - 1)) for j in (0, 2 ** (k - 1))}


class DemoState:
    """``psi o rhoJ`` on disjoint 1-based regions K, I, J, with tracial ``rhoJ``.

    ``rho1`` and ``rho2_tilde`` are sparse densities on the ``|K|``- and
    ``|I|``-site lattices, by default the default vector states.  The
    monomial formula defines a state for any ``rho1``; only a maximally odd
    one makes the I-marginal the even ``rho2``.
    """

    def __init__(self, K, I, J, rho2_tilde=None, rho1=None):
        self.parts = (tuple(K), tuple(I), tuple(J))
        self.rho1 = rho1 if rho1 is not None else default_density(len(K))
        self.rho2_tilde = rho2_tilde if rho2_tilde is not None else default_density(len(I))
        self.v_K = monomial([PARITY] * len(K))
        self.group = {s: g for g, part in enumerate(self.parts) for s in part}

    def psi(self, codes):
        """The value on the site-ordered monomial with ``codes[site]`` at each site."""
        # move the factors into K-I-J order; each swap of two odd factors gives -1
        odd = [s for s in sorted(codes) if codes[s] in ODD]
        sign = (-1) ** sum(
            self.group[s] > self.group[t] for s, t in itertools.combinations(odd, 2)
        )
        a1, a2, a3 = (
            monomial([codes.get(s, ONE) for s in part]) for part in self.parts
        )
        if sum(codes[s] in ODD for s in self.parts[1] if s in codes) % 2:
            a1 = product(a1, self.v_K)
        trace = sum(s for col, (row, s) in a3.items() if row == col)
        tau = Fraction(trace, 2 ** len(self.parts[2]))
        return sign * expectation(self.rho1, a1) * expectation(self.rho2_tilde, a2) * tau

    def density(self, region):
        """The exact intrinsic density of the restriction to the sorted sites ``region``."""
        region = tuple(sorted(region))
        out = Counter()
        for codes in itertools.product(range(4), repeat=len(region)):
            value = self.psi(dict(zip(region, codes)))
            if not value:
                continue
            m = monomial(codes)
            # M* has entry s at (col, row) wherever M has s at (row, col)
            for col, (row, s) in m.items():
                out[(col, row)] += value * s / len(m)
        return {key: v for key, v in out.items() if v}


def square(density):
    """``D^2`` of a sparse density."""
    rows = {}
    for (i, j), v in density.items():
        rows.setdefault(j, []).append((i, v))
    out = Counter()
    for (j, l), w in density.items():
        for i, v in rows.get(j, ()):
            out[(i, l)] += v * w
    return {key: v for key, v in out.items() if v}


def scaled_projector_rank(density):
    """``r`` when ``D^2 = D / r`` with ``r = 1 / Tr D^2`` an integer, else ``None``."""
    r = 1 / sum(v * density.get((j, i), 0) for (i, j), v in density.items())
    if r.denominator == 1 and square(density) == {key: v / r for key, v in density.items()}:
        return int(r)
    return None


def spectrum(density):
    """The exact spectrum ``{eigenvalue: multiplicity}`` of a scaled projector
    or of a diagonal density."""
    assert sum(v for (i, j), v in density.items() if i == j) == 1
    r = scaled_projector_rank(density)
    if r is not None:
        return Counter({Fraction(1, r): r})
    assert all(i == j for i, j in density), "neither a scaled projector nor diagonal"
    return Counter(density.values())


def prime_logs(q):
    """``ln q`` of a positive rational as ``{prime: exponent}``."""
    out = Counter()
    for n, sign in ((q.numerator, 1), (q.denominator, -1)):
        p = 2
        while n > 1:
            while n % p == 0:
                out[p] += sign
                n //= p
            p += 1
    return out


def entropy(spec):
    """``-sum lam ln lam`` as ``{prime: rational coefficient of ln p}``."""
    out = Counter()
    for lam, mult in spec.items():
        for p, e in prime_logs(lam).items():
            out[p] -= mult * lam * e
    return {p: c for p, c in out.items() if c}


def combine(*terms):
    """``sum c S`` of ``(c, S)`` pairs of entropies, in the same exact form."""
    out = Counter()
    for c, s in terms:
        for p, v in s.items():
            out[p] += c * v
    return {p: v for p, v in out.items() if v}


def to_float(s):
    """The value of an exact entropy as a float."""
    return sum(float(c) * math.log(p) for p, c in s.items())


def certificate(state):
    """The six exact densities and entropies of the demo state, and its three gaps.

    The triangle gap on (I, K) is ``S(K u I) - |S(I) - S(K)|``; ``rho1`` is
    pure, so ``S(K) = 0`` and the absolute value is ``S(I) - S(K)``.
    """
    K, I, J = state.parts
    regions = {"K": K, "I": I, "J": J, "KI": K + I, "KJ": K + J, "KIJ": K + I + J}
    densities = {name: state.density(reg) for name, reg in regions.items()}
    S = {name: entropy(spectrum(d)) for name, d in densities.items()}
    assert S["K"] == {}, "rho1 must be pure for the triangle gap's sign"
    gaps = {
        "triangle": combine((1, S["KI"]), (-1, S["I"]), (1, S["K"])),
        "mono_ssa": combine((1, S["KI"]), (1, S["KJ"]), (-1, S["I"]), (-1, S["J"])),
        "ssa": combine((1, S["KIJ"]), (1, S["K"]), (-1, S["KI"]), (-1, S["KJ"])),
    }
    return regions, densities, S, gaps
