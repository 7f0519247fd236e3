"""Hash a fixed sweep of the operator picture's outputs, to compare two trees bit for bit.

Usage (from the repository root)::

    PYTHONPATH=<tree>/src python tests/operator_sweep.py

For n = 1..5 it takes a seeded random image ``x`` of ``A(S)`` (a fifth of its
entries set to ``-0.0``, so signed zeros count) for every pair of regions
``(S, R)`` and hashes ``conditional_expectation(ctx, x, R)``; then it hashes
the ``repr`` of ``relative_commutant_check(ctx, I, J)`` for every nonempty
``I`` and every ``J`` disjoint from it.  It prints the number of outputs and
their SHA-256.  A refactor of the operator module that keeps the arithmetic
keeps the hash.  The file has no ``test_`` prefix, so pytest does not
collect it.
"""

import hashlib
import itertools

import numpy as np

from carentropy import (
    OperatorElement,
    Region,
    build_context,
    conditional_expectation,
    relative_commutant_check,
)


def subsets(n):
    sites = range(1, n + 1)
    for k in range(n + 1):
        yield from itertools.combinations(sites, k)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 6):
        ctx = build_context(n)
        rng = np.random.default_rng(n)
        for S in subsets(n):
            for R in subsets(n):
                d = 2 ** len(S)
                x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                x[rng.random(size=x.shape) < 0.2] = -0.0
                out = conditional_expectation(ctx, OperatorElement(Region(S), x), Region(R))
                digest.update(repr((S, R, out.region.sites)).encode())
                digest.update(out.matrix.tobytes())
                count += 1
        for I in subsets(n):
            for J in subsets(n):
                if I and not set(I) & set(J):
                    digest.update(repr(relative_commutant_check(ctx, Region(I), Region(J))).encode())
                    count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
