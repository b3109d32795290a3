import numpy as np
import pytest

from graphadapt.graphs import Bandlimit, Graph, build_laplacian, eigendecompose
from graphadapt.sampling import NoiseModel


@pytest.fixture(scope="session")
def path3():
    """3-node path graph: the hand-checkable workhorse instance."""
    return Graph(weights=np.array([
        [0.0, 1.0, 0.0],
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ]))


@pytest.fixture(scope="session")
def path3_basis(path3):
    return eigendecompose(build_laplacian(path3))


@pytest.fixture(scope="session")
def path3_band(path3_basis):
    """Two lowest frequencies of the path; every closed form below is exact."""
    return Bandlimit.lowest(path3_basis, 2)


@pytest.fixture(scope="session")
def white_noise3():
    return NoiseModel.uniform(3, 0.01)
