import numpy as np
import pytest

from dbardisk.diskmap import DiskGrid, make_map
from dbardisk.geometry import make_domain


@pytest.fixture(scope="session")
def grid():
    return DiskGrid(32, 64)


@pytest.fixture(scope="session")
def ball():
    return make_domain("ball4")


@pytest.fixture(scope="session")
def cylinder():
    return make_domain("cylinder_x")


@pytest.fixture(scope="session")
def weak():
    return make_domain("weak_rank_one")


@pytest.fixture(scope="session")
def maps(grid):
    return {name: make_map(name, grid) for name in ("f1", "f2", "f3", "f4")}


SYNTHETIC_C3_DOMAIN = {
    "n": 3,
    "name": "synthetic_c3",
    # |z1|^2 - |z2|^2 + 3 |z3|^2 - 1: Levi eigenvalues (-1, 3) at the image
    # of the anti-holomorphic disk below
    "terms": [
        {"exponents": [2, 0, 0, 0, 0, 0], "coef": 1.0},
        {"exponents": [0, 0, 0, 2, 0, 0], "coef": 1.0},
        {"exponents": [0, 2, 0, 0, 0, 0], "coef": -1.0},
        {"exponents": [0, 0, 0, 0, 2, 0], "coef": -1.0},
        {"exponents": [0, 0, 2, 0, 0, 0], "coef": 3.0},
        {"exponents": [0, 0, 0, 0, 0, 2], "coef": 3.0},
        {"exponents": [0, 0, 0, 0, 0, 0], "coef": -1.0},
    ],
}

SYNTHETIC_C3_MAP = {
    "n": 3,
    "name": "conj_disk_c3",
    "coords": [[{"zp": 0, "zq": 1, "re": 1.0}], [], []],
}


@pytest.fixture(scope="session")
def synthetic_c3(grid):
    return make_domain(SYNTHETIC_C3_DOMAIN), make_map(SYNTHETIC_C3_MAP, grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
