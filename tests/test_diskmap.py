import numpy as np
import pytest

from dbardisk.diskmap import (
    DiskGrid,
    DiskMap,
    PolynomialMap,
    energies,
    homotopy_invariance_check,
    make_map,
)
from dbardisk.errors import InvalidVariationError, ResolutionError


def _random_poly_map(rng, degree=3, scale=0.5):
    coords = []
    for _ in range(2):
        terms = [
            (p, q, scale * (rng.normal() + 1j * rng.normal()) / (1 + p + q))
            for p in range(degree + 1)
            for q in range(degree + 1 - p)
        ]
        coords.append(terms)
    return PolynomialMap(2, coords)


# ---------------------------------------------------------------------------
# grid


def test_quadrature_of_one_is_pi(grid):
    assert abs(grid.integrate_disk(np.ones((grid.n_r, grid.n_theta))) - np.pi) < 1e-12


def test_angular_differentiation_exactness(grid):
    for k in range(grid.n_theta // 2):
        f = np.cos(k * grid.theta) + 0.3 * np.sin(k * grid.theta)
        expected = -k * np.sin(k * grid.theta) + 0.3 * k * np.cos(k * grid.theta)
        got = grid.theta_derivative(f[None, :, None], axis=1)[0, :, 0]
        assert np.max(np.abs(got - expected)) < 1e-10, k


def test_radial_differentiation_exactness(grid):
    coeffs = np.array([0.2, -1.0, 0.5, 2.0, -0.7])
    poly = np.polynomial.Polynomial(coeffs)
    vals = poly(grid.r)[:, None, None] * np.ones((1, grid.n_theta, 1))
    got = grid.radial_derivative(vals)
    expected = poly.deriv()(grid.r)[:, None, None]
    assert np.max(np.abs(got - expected)) < 1e-10


def _loop_differentiation_matrix(x):
    # the textbook per-entry definition: barycentric weights
    # 1 / prod_{j != i} (x_i - x_j), off-diagonal (w_j / w_i) / (x_i - x_j)
    # and the negative row sum on the diagonal
    n = x.size
    w = np.array([1.0 / np.prod(x[i] - np.delete(x, i)) for i in range(n)])
    w = w / np.max(np.abs(w))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (w[j] / w[i]) / (x[i] - x[j])
        d[i, i] = -np.sum(d[i])
    return d


@pytest.mark.parametrize("n_r", [4, 32, 64, 128])
def test_differentiation_matrix_matches_loop_definition(n_r):
    grid = DiskGrid(n_r, 8)
    assert np.array_equal(grid._d_r, _loop_differentiation_matrix(grid.r))
    d_aug = _loop_differentiation_matrix(np.concatenate([grid.r, [1.0]]))
    assert np.array_equal(grid._d1_row, d_aug[-1])


def test_boundary_radial_derivative(grid):
    poly = np.polynomial.Polynomial([0.0, 0.5, 0.0, 1.5])
    vals = poly(grid.r)[:, None, None] * np.ones((1, grid.n_theta, 1))
    trace = np.full((grid.n_theta, 1), poly(1.0))
    got = grid.boundary_radial_derivative(vals, trace)
    assert np.max(np.abs(got - poly.deriv()(1.0))) < 1e-10


def test_resolution_errors():
    with pytest.raises(ResolutionError):
        DiskGrid(3, 64)
    with pytest.raises(ResolutionError):
        DiskGrid(32, 6)
    with pytest.raises(ResolutionError):
        DiskGrid(32, 63)


# ---------------------------------------------------------------------------
# derivatives of the catalog maps


def test_f2_is_holomorphic(grid, maps):
    d = maps["f2"].derivatives()
    assert np.max(np.abs(d.f_zbar)) < 1e-12
    assert np.max(np.abs(d.boundary_f_zbar)) < 1e-12


def test_f3_is_antiholomorphic(maps):
    d = maps["f3"].derivatives()
    assert np.max(np.abs(d.f_z)) < 1e-12


def test_constant_map_has_zero_derivatives(grid):
    pm = PolynomialMap(2, [[(0, 0, 1.0 + 2.0j)], [(0, 0, -0.5j)]])
    d = DiskMap.from_polynomial(pm, grid).derivatives()
    for name in ("f_x", "f_y", "f_r", "f_theta", "f_z", "f_zbar"):
        assert np.max(np.abs(getattr(d, name))) < 1e-14


def test_sampled_matches_analytic(grid, rng):
    pm = _random_poly_map(rng)
    fa = DiskMap.from_polynomial(pm, grid)
    fs = DiskMap(grid, 2, fa.values, fa.boundary, analytic=None)
    da, ds = fa.derivatives(), fs.derivatives()
    for name in ("f_x", "f_y", "f_z", "f_zbar", "boundary_f_r", "boundary_f_x"):
        gap = np.max(np.abs(getattr(da, name) - getattr(ds, name)))
        assert gap < 1e-11, name


# ---------------------------------------------------------------------------
# energies


def test_energies_f1(maps):
    rep = energies(maps["f1"])
    assert abs(rep.e_del - np.pi / 2) < 1e-12
    assert abs(rep.e_dbar - np.pi / 2) < 1e-12
    assert abs(rep.kahler) < 1e-12


def test_energies_f2(maps):
    rep = energies(maps["f2"])
    assert rep.e_dbar < 1e-12
    assert abs(rep.e_del - 2 * np.pi) < 1e-11
    assert abs(rep.kahler - 2 * np.pi) < 1e-11


def test_energies_f3(maps):
    rep = energies(maps["f3"])
    assert rep.e_del < 1e-12
    assert abs(rep.e_dbar - np.pi) < 1e-12
    assert abs(rep.kahler + np.pi) < 1e-12


def test_energy_identities_random_maps(grid, rng):
    for _ in range(5):
        f = DiskMap.from_polynomial(_random_poly_map(rng), grid)
        rep = energies(f)
        scale = max(rep.e_full, 1e-30)
        assert abs(rep.e_full - rep.e_del - rep.e_dbar) < 1e-10 * scale
        assert abs(rep.e_del - rep.e_dbar - rep.kahler) < 1e-10 * scale
        assert rep.e_dbar >= -1e-12


def test_holomorphicity_criterion(grid, maps):
    # E'' vanishes iff the pointwise dbar derivative vanishes on the grid
    for name, f in maps.items():
        d = f.derivatives()
        sup = np.max(np.linalg.norm(d.f_x + np.stack(
            [-d.f_y[..., 2], -d.f_y[..., 3], d.f_y[..., 0], d.f_y[..., 1]], axis=-1
        ), axis=-1))
        rep = energies(f)
        assert (rep.e_dbar < 1e-8) == (sup < 1e-8), name


def test_rotation_invariance_grid_steps(grid, maps):
    for f in maps.values():
        base = energies(f)
        rot = energies(f.rotated(7))
        assert abs(rot.e_full - base.e_full) < 1e-10
        assert abs(rot.e_dbar - base.e_dbar) < 1e-10


def test_rotation_invariance_offgrid_angle(grid, rng):
    pm = _random_poly_map(rng)
    base = energies(DiskMap.from_polynomial(pm, grid))
    rot = energies(DiskMap.from_polynomial(pm.rotate(0.37), grid))
    scale = max(1.0, base.e_full)
    assert abs(rot.e_full - base.e_full) < 1e-10 * scale
    assert abs(rot.e_dbar - base.e_dbar) < 1e-10 * scale


def test_resolution_doubling(maps):
    fine = DiskGrid(64, 128)
    for name in ("f1", "f2", "f3", "f4"):
        coarse_rep = energies(maps[name])
        fine_rep = energies(make_map(name, fine))
        for attr in ("e_full", "e_del", "e_dbar", "kahler"):
            assert abs(getattr(coarse_rep, attr) - getattr(fine_rep, attr)) < 1e-10


# ---------------------------------------------------------------------------
# homotopy invariance of E' - E''


def _rim_zero_field(grid, rng=None, direction=None):
    prof = (1.0 - grid.r**2)[:, None, None]
    if direction is not None:
        vec = np.zeros(4)
        vec[direction] = 1.0
        values = prof * np.broadcast_to(vec, (grid.n_r, grid.n_theta, 4))
    else:
        x = grid.r[:, None] * np.cos(grid.theta)[None, :]
        y = grid.r[:, None] * np.sin(grid.theta)[None, :]
        coeff = rng.normal(size=(4, 3))
        fields = [c[0] + c[1] * x + c[2] * x * y for c in coeff]
        values = prof * np.stack(fields, axis=-1)
    return DiskMap(grid, 2, values, np.zeros((grid.n_theta, 4)))


def test_homotopy_invariance_f1(grid, maps, rng):
    eta = _rim_zero_field(grid, rng=rng)
    assert homotopy_invariance_check(maps["f1"], eta, steps=6) < 1e-8


def test_homotopy_invariance_zero_eta(grid, maps):
    eta = DiskMap(grid, 2, np.zeros((grid.n_r, grid.n_theta, 4)),
                  np.zeros((grid.n_theta, 4)))
    assert homotopy_invariance_check(maps["f1"], eta, steps=4) == 0.0


def test_homotopy_invariance_f3(grid, maps):
    eta = _rim_zero_field(grid, direction=1)
    assert homotopy_invariance_check(maps["f3"], eta, steps=6) < 1e-8


def test_homotopy_invariance_rejects_moving_boundary(grid, maps):
    eta = DiskMap(grid, 2, np.ones((grid.n_r, grid.n_theta, 4)),
                  np.ones((grid.n_theta, 4)))
    with pytest.raises(InvalidVariationError):
        homotopy_invariance_check(maps["f1"], eta)


# ---------------------------------------------------------------------------
# construction interface


def test_make_map_unknown_name(grid):
    with pytest.raises(KeyError):
        make_map("f9", grid)


def test_make_map_polynomial_spec(grid, maps):
    spec = {
        "n": 2,
        "coords": [
            [{"zp": 1, "zq": 0, "re": 0.5}, {"zp": 0, "zq": 1, "re": 0.5}],
            [{"zp": 1, "zq": 0, "im": -0.5}, {"zp": 0, "zq": 1, "im": 0.5}],
        ],
    }
    f = make_map(spec, grid)
    assert np.max(np.abs(f.values - maps["f1"].values)) < 1e-14


def test_values_must_be_finite(grid):
    vals = np.zeros((grid.n_r, grid.n_theta, 4))
    vals[0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        DiskMap(grid, 2, vals, np.zeros((grid.n_theta, 4)))
