import os

# One BLAS thread, set before numpy loads: a second thread slowed the timed
# acceptance criteria when another process held the other core, and it makes
# LAPACK block some factorizations differently.  An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import pytest

from carentropy import build_context


@pytest.fixture(scope="session")
def ctx1():
    return build_context(1)


@pytest.fixture(scope="session")
def ctx2():
    return build_context(2)


@pytest.fixture(scope="session")
def ctx3():
    return build_context(3)


@pytest.fixture(scope="session")
def ctx4():
    return build_context(4)


@pytest.fixture(scope="session")
def ctx5():
    return build_context(5)
