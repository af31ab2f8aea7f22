import os

# Cap the BLAS pools at one thread before numpy is first imported, so that
# the timed acceptance tests do not slow down when another numpy process
# shares the cores. A TORICSIM_THREADS set by the user still wins.
os.environ.setdefault("TORICSIM_THREADS", "1")

from toricsim import cli  # noqa: E402  (imports no numpy)

cli._configure_threads()

import pytest  # noqa: E402

from toricsim import lattice  # noqa: E402


@pytest.fixture(scope="session")
def geo22():
    return lattice.build_lattice(2, 2)


@pytest.fixture(scope="session")
def geo23():
    return lattice.build_lattice(2, 3)


@pytest.fixture(scope="session")
def geo33():
    return lattice.build_lattice(3, 3)
