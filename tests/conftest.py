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

# rho = x_1^(10^6): a power table up to the largest exponent would hold
# points x 2n x 10^6 floats
HUGE_EXPONENT_DOMAIN = {
    "n": 2,
    "name": "huge_exponent",
    "terms": [{"exponents": [10**6, 0, 0, 0], "coef": 1.0}],
}

SYNTHETIC_C3_MAP = {
    "n": 3,
    "name": "conj_disk_c3",
    "coords": [[{"zp": 0, "zq": 1, "re": 1.0}], [], []],
}


@pytest.fixture(scope="session")
def synthetic_c3(grid):
    return make_domain(SYNTHETIC_C3_DOMAIN), make_map(SYNTHETIC_C3_MAP, grid)


def ball_spec(n):
    """|z|^2 - 1 on C^n."""
    terms = [{"exponents": [2 if j == i else 0 for j in range(2 * n)], "coef": 1.0}
             for i in range(2 * n)]
    terms.append({"exponents": [0] * (2 * n), "coef": -1.0})
    return {"n": n, "name": f"ball{2 * n}", "terms": terms}


@pytest.fixture(scope="session")
def conj_ball():
    """(domain, map) builder: the anti-holomorphic disk z_1 = zbar in the
    unit ball of C^n, sampled on a given grid."""

    def build(n, grid):
        spec = {"n": n, "name": f"conj_disk_c{n}",
                "coords": [[{"zp": 0, "zq": 1, "re": 1.0}]] + [[]] * (n - 1)}
        return make_domain(ball_spec(n)), make_map(spec, grid)

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
