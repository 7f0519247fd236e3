"""Hash a fixed sweep of the operator picture's outputs, to compare two trees bit for bit.

Usage (from the repository root)::

    PYTHONPATH=<tree>/src python tests/operator_sweep.py

For n = 1..5 it takes a seeded random image ``x`` of ``A(S)`` (a fifth of its
entries set to ``-0.0``, so signed zeros count) for every pair of regions
``(S, R)`` and hashes ``conditional_expectation(x, R)``; then it hashes
``parity_unitary(R)`` and ``monomial_basis(R)`` for every region ``R``, and
the ``repr`` of ``relative_commutant_check(I, J)`` for every nonempty ``I``
and every ``J`` disjoint from it.  It prints the number of outputs and their
SHA-256.  A refactor of the operator module that keeps the arithmetic keeps
the hash.  A tree whose operator functions still take a lattice first (an
``AlgebraContext`` named ``ctx``) is called with the ``n``-site one, so the
script compares trees on either side of that signature change.  The file
has no ``test_`` prefix, so pytest does not collect it.
"""

import hashlib
import inspect
import itertools

import numpy as np

from carentropy import (
    OperatorElement,
    Region,
    build_context,
    conditional_expectation,
    monomial_basis,
    parity_unitary,
    relative_commutant_check,
)


def subsets(n):
    sites = range(1, n + 1)
    for k in range(n + 1):
        yield from itertools.combinations(sites, k)


def call(fn, n, *args):
    """``fn(*args)``, with the ``n``-site lattice first where ``fn`` takes one."""
    if "ctx" in inspect.signature(fn).parameters:
        return fn(build_context(n), *args)
    return fn(*args)


def main() -> None:
    digest = hashlib.sha256()
    count = 0

    def add(label, *matrices):
        nonlocal count
        digest.update(repr(label).encode())
        for m in matrices:
            digest.update(m.tobytes())
        count += 1

    for n in range(1, 6):
        rng = np.random.default_rng(n)
        for S in subsets(n):
            for R in subsets(n):
                d = 2 ** len(S)
                x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                x[rng.random(size=x.shape) < 0.2] = -0.0
                out = call(conditional_expectation, n, OperatorElement(Region(S), x), Region(R))
                add((S, R, out.region.sites), out.matrix)
        for R in subsets(n):
            add(("v", R), call(parity_unitary, n, Region(R)).matrix)
            add(("basis", R), *(e.matrix for e in call(monomial_basis, n, Region(R))))
        for I in subsets(n):
            for J in subsets(n):
                if I and not set(I) & set(J):
                    add(call(relative_commutant_check, n, Region(I), Region(J)))
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
