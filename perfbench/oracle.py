"""Independent cross-check of restriction and entropy on prefix regions.

In the Jordan-Wigner realization site 1 is the leading tensor factor and the
strings of a prefix ``{1..k}`` involve only earlier sites, so the
restriction of a full-lattice state to a prefix is the plain partial trace
over the trailing ``n - k`` factors.  This module computes that with a
reshape and ``numpy.trace`` and takes the entropy with its own eigensolve;
nothing here goes through the package's monomial bases.
"""

from __future__ import annotations

import numpy as np

EIG_FLOOR = 1e-12


def prefix_density(full: np.ndarray, n: int, k: int) -> np.ndarray:
    """Partial trace of a ``2^n`` density over its trailing ``n - k`` qubits."""
    d_keep, d_drop = 2 ** k, 2 ** (n - k)
    return np.trace(full.reshape(d_keep, d_drop, d_keep, d_drop), axis1=1, axis2=3)


def vn_entropy(density: np.ndarray) -> float:
    lam = np.linalg.eigvalsh((density + density.conj().T) / 2.0)
    lam = lam[lam > EIG_FLOOR]
    return float(-(lam * np.log(lam)).sum())


def prefix_entropies(full: np.ndarray, n: int) -> list[float]:
    """Entropies of the prefixes ``{1}``, ``{1, 2}``, ..., ``{1..n-1}``."""
    return [vn_entropy(prefix_density(full, n, k)) for k in range(1, n)]
