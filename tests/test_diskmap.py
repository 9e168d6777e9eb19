import math

import numpy as np
import pytest

from dbardisk import _kernels
from dbardisk.diskmap import (
    MAP_CATALOG,
    DiskGrid,
    DiskMap,
    PolynomialMap,
    energies,
    homotopy_invariance_check,
    make_map,
)
from dbardisk.errors import InvalidVariationError, ResolutionError
from dbardisk.geometry import apply_j


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


@pytest.mark.parametrize("order", [1, 2, 3])
def test_real_fft_path_matches_complex_path(grid, order):
    # random samples plus an explicit Nyquist mode (-1)^j
    rng = np.random.default_rng(order)
    x = rng.normal(size=(grid.n_r, grid.n_theta, 3))
    x += 0.7 * np.cos(0.5 * grid.n_theta * grid.theta)[None, :, None]
    for arr, axis in ((x, 1), (x[0], 0)):
        real = grid.theta_derivative(arr, order=order, axis=axis)
        full = grid.theta_derivative(arr.astype(complex), order=order, axis=axis)
        assert np.isrealobj(real) and real.shape == arr.shape
        assert np.max(np.abs(real - full.real)) <= 1e-13 * np.max(np.abs(full))
        assert np.max(np.abs(full.imag)) <= 1e-13 * np.max(np.abs(full))


def test_nyquist_rule(grid):
    # odd orders kill the Nyquist mode; even orders keep (i N/2)^order
    nyq = np.cos(0.5 * grid.n_theta * grid.theta)
    half = 0.5 * grid.n_theta
    for arr in (nyq, nyq.astype(complex)):
        assert np.max(np.abs(grid.theta_derivative(arr, order=1, axis=0))) < 1e-12
        assert np.max(np.abs(grid.theta_derivative(arr, order=3, axis=0))) < 1e-12
        even = grid.theta_derivative(arr, order=2, axis=0)
        assert np.max(np.abs(even + half**2 * nyq)) < 1e-10


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


@pytest.mark.parametrize("n_r", [768, 1024])
def test_differentiation_matrix_is_finite_past_512_nodes(n_r):
    # unscaled, the barycentric weights (products of n_r - 1 node differences
    # in [0, 1]) underflow past 512 nodes, and so does the loop definition
    grid = DiskGrid(n_r, 8)
    assert np.all(np.isfinite(grid._d_r)) and np.all(np.isfinite(grid._d1_row))
    r = grid.r
    assert np.max(np.abs(grid._d_r @ r**3 - 3.0 * r**2)) < 1e-8
    assert abs(grid._d1_row[:-1] @ r**3 + grid._d1_row[-1] - 3.0) < 1e-8


def test_grids_of_one_n_r_share_a_read_only_radial_rule():
    a, b = DiskGrid(24, 32), DiskGrid(24, 64)
    x, w = np.polynomial.legendre.leggauss(24)
    assert np.array_equal(a.r, 0.5 * (x + 1.0))
    assert np.array_equal(a.w_r, 0.5 * w)
    for name in ("r", "w_r", "_d_r", "_d1_row"):
        arr = getattr(a, name)
        assert arr is getattr(b, name), name
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert DiskGrid(25, 32).r is not a.r


def test_boundary_radial_derivative(grid):
    poly = np.polynomial.Polynomial([0.0, 0.5, 0.0, 1.5])
    vals = poly(grid.r)[:, None, None] * np.ones((1, grid.n_theta, 1))
    trace = np.full((grid.n_theta, 1), poly(1.0))
    got = grid.boundary_radial_derivative(vals, trace)
    assert np.max(np.abs(got - poly.deriv()(1.0))) < 1e-10


@pytest.mark.parametrize("shape", [(32, 64), (48, 256)])
def test_dirichlet_energy_of_holomorphic_polynomials(shape, rng):
    # sum a_k z^k, k <= 5, has int |grad|^2 = 2 pi sum k |a_k|^2; one per column
    grid = DiskGrid(*shape)
    a = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
    k = np.arange(6)
    got = grid.dirichlet_energy(np.exp(1j * np.outer(grid.theta, k)) @ a)
    want = 2.0 * np.pi * (k @ np.abs(a) ** 2)
    assert got.shape == (3,)
    assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("shape", [(32, 64), (24, 48), (48, 256)])
def test_grid_laplacian_accumulates_bit_for_bit(shape, rng):
    # in place, the sum frr + fr / r + ftt / r^2 keeps every bit
    grid = DiskGrid(*shape)
    values = rng.normal(size=(grid.n_r, grid.n_theta, 4))
    fr = grid.radial_derivative(values)
    r = grid.r[:, None, None]
    want = grid.radial_derivative(fr) + fr / r + grid.theta_derivative(values, order=2) / r**2
    got = grid.laplacian(values)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_map_laplacian_is_cached_and_read_only(grid):
    # exact from the polar terms, spectral for a sampled (rotated) copy
    f = make_map({"n": 2, "coords": [[{"zp": 2, "zq": 1, "re": 0.5}],
                                     [{"zp": 0, "zq": 3, "im": 1.0}]]}, grid)
    g = f.rotated(5)
    assert np.array_equal(f.laplacian(), f.analytic.sample(grid, "laplacian"))
    assert np.array_equal(g.laplacian(), grid.laplacian(g.values))
    exact = f.analytic.rotate(5 * grid.w_theta).sample(grid, "laplacian")
    assert np.max(np.abs(g.laplacian() - exact)) < 1e-9
    for m in (f, g):
        assert m.laplacian() is m.laplacian() and not m.laplacian().flags.writeable


def test_harmonic_polynomial_map_has_no_laplacian(grid, maps, monkeypatch):
    # no term c z^p zbar^q with p q c != 0: nothing is sampled
    f = make_map({"n": 2, "coords": [[{"zp": 3, "zq": 0, "re": 0.5}, {"zp": 0, "zq": 2, "im": 1.0},
                                      {"zp": 1, "zq": 1, "re": 0.0}], []]}, grid)
    monkeypatch.setattr(PolynomialMap, "sample", None)
    assert [m.laplacian() for m in (f, *maps.values())] == [None] * 5


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
# the polar evaluator against complex powers


def _complex_power_fields(pm, grid):
    """Values, first derivatives and Laplacian of a PolynomialMap from complex
    powers z**p * zbar**q, one complex array per coordinate: an evaluation
    that shares nothing with the polar terms. Real 2n-vector fields keyed
    by name; the rim traces are keyed "boundary_<name>"."""
    out = {}
    for prefix, z in (("", grid.r[:, None] * np.exp(1j * grid.theta)[None, :]),
                      ("boundary_", np.exp(1j * grid.theta))):
        zb = np.conj(z)

        def poly(derive):
            w = np.zeros(z.shape + (pm.n,), dtype=complex)
            for j, coord in enumerate(pm.coords):
                for p, q, c in coord:
                    pp, qq, cc = derive(p, q, c)
                    if cc:
                        w[..., j] += cc * z**pp * zb**qq
            return w

        w = poly(lambda p, q, c: (p, q, c))
        dz = poly(lambda p, q, c: (p - 1, q, p * c))
        dzb = poly(lambda p, q, c: (p, q - 1, q * c))
        phase = (z / np.abs(z))[..., None]   # e^{i theta}
        fields = {
            "values": w,
            "f_r": phase * dz + np.conj(phase) * dzb,
            "f_theta": 1j * (z[..., None] * dz - zb[..., None] * dzb),
            "f_x": dz + dzb,
            "f_y": 1j * (dz - dzb),
            "f_z": dz,
            "f_zbar": dzb,
            "laplacian": poly(lambda p, q, c: (p - 1, q - 1, 4 * p * q * c)),
        }
        for name, v in fields.items():
            out[prefix + name] = np.concatenate([v.real, v.imag], axis=-1)
    return out


def _oracle_maps():
    rng = np.random.default_rng(7)
    maps = {name: PolynomialMap(*MAP_CATALOG[name]) for name in MAP_CATALOG}
    for n in (2, 3, 4):
        for slot in range(n):
            coords = [[] for _ in range(n)]
            coords[slot] = [(0, 1, complex(np.cos(0.3 + slot), np.sin(0.3 + slot)))]
            maps[f"conj-c{n}-{slot}"] = PolynomialMap(n, coords)
    maps["random-3-term"] = PolynomialMap(3, [
        [(int(rng.integers(4)), int(rng.integers(4)), complex(*rng.normal(size=2)))
         for _ in range(3)] for _ in range(3)])
    maps["empty-coordinate"] = PolynomialMap(3, [[(2, 1, 0.5 - 1j), (1, 0, 2.0)], [],
                                                 [(0, 3, 1j)]])
    return maps


@pytest.mark.parametrize("name", sorted(_oracle_maps()))
def test_polar_evaluator_matches_complex_powers(grid, name):
    pm = _oracle_maps()[name]
    want = _complex_power_fields(pm, grid)
    f = DiskMap.from_polynomial(pm, grid)
    d = f.derivatives()
    got = {"values": f.values, "boundary_values": f.boundary,
           "laplacian": pm.sample(grid, "laplacian"),
           "boundary_laplacian": pm.sample(grid, "laplacian", boundary=True)}
    for field in ("f_r", "f_theta", "f_x", "f_y", "f_z", "f_zbar"):
        got[field] = getattr(d, field)
        got["boundary_" + field] = getattr(d, "boundary_" + field)
    for key, value in got.items():
        assert value.shape == want[key].shape and np.isrealobj(value), key
        scale = max(np.max(np.abs(want[key])), 1e-300)
        assert np.max(np.abs(value - want[key])) <= 1e-14 * scale, key
    if name == "empty-coordinate":
        for key, value in got.items():
            assert np.all(value[..., [1, 4]] == 0.0), key


def test_polynomial_fields_are_formed_on_first_read(grid):
    # an action forms only the grid fields it reads; the rim traces come at once
    f = make_map("f3", grid)
    d = f.derivatives()
    formed = set(vars(d))
    assert {"boundary_f_r", "boundary_f_theta", "boundary_f_x", "boundary_f_y"} <= formed
    assert not formed & {"f_r", "f_theta", "f_x", "f_y", "f_z", "f_zbar"}
    energies(f)
    assert {"f_x", "f_y"} <= set(vars(d)) and "f_zbar" not in vars(d)
    fx = d.f_x
    assert d.f_x is fx
    with pytest.raises(AttributeError):
        d.f_w


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


def _frame_energies(grid, a, b):
    return np.array([grid.integrate_disk(e) for e in _kernels.energy_densities(a, b)])


@pytest.mark.parametrize("shape", [(32, 64), (64, 128), (32, 512)])
def test_polar_frame_energies_match_cartesian(shape):
    # sampled maps feed (f_r, f_theta / r) to the kernel; the densities are
    # frame independent, so the Cartesian pair must give the same integrals
    g = DiskGrid(*shape)
    for name in ("f1", "f2", "f3", "f4"):
        f = make_map(name, g).rotated(5)
        d = f.derivatives()
        polar = _frame_energies(g, *d.frame_pair())
        cartesian = _frame_energies(g, d.f_x, d.f_y)
        assert np.max(np.abs(polar - cartesian)) <= 1e-14 * cartesian[3], name
        rep = energies(f)
        assert [rep.e_del, rep.e_dbar, rep.kahler, rep.e_full] == list(polar)
    assert energies(make_map("f2", g)).e_dbar == 0.0


def test_lazy_cartesian_fields(grid, maps):
    # a sampled map builds f_x, f_y (and from them f_z, f_zbar) on first read
    f = maps["f4"].rotated(3)
    d = f.derivatives()
    assert "_cartesian" not in vars(d) and "f_zbar" not in vars(d)
    energies(f)
    assert "_cartesian" not in vars(d)
    fx, fy = d.f_x, d.f_y
    assert d.f_x is fx and d.f_zbar is d.f_zbar
    assert np.max(np.abs(d.f_zbar - d.f_z - apply_j(fy))) < 1e-13


def _bessel_i1(x):
    return sum((x / 2) ** (2 * k + 1) / (math.factorial(k) * math.factorial(k + 1))
               for k in range(30))


def _sampled_exp_map(g):
    """(e^z, 0) in C^2 given only as samples."""
    def real_vectors(w):
        zero = np.zeros_like(w.real)
        return np.stack([w.real, zero, w.imag, zero], axis=-1)

    rim = np.exp(1j * g.theta)
    return DiskMap(g, 2, real_vectors(np.exp(g.r[:, None] * rim[None, :])),
                   real_vectors(np.exp(rim)), name="exp")


def test_grid_doubling_converges_on_exp_map():
    # E' of a holomorphic map is int |f'|^2 = int_D e^{2x} dA = pi I_1(2);
    # the spectral path must converge exponentially on this non-polynomial map
    exact = math.pi * _bessel_i1(2.0)
    errors, dbar = [], []
    for shape in ((8, 16), (16, 32), (32, 64)):
        rep = energies(_sampled_exp_map(DiskGrid(*shape)))
        errors.append(abs(rep.e_del - exact))
        dbar.append(rep.e_dbar)
    assert 1e-10 < errors[0] < 1e-6
    assert errors[1] < 1e-5 * errors[0]
    assert errors[2] < 1e-13
    # at 8x16 the truncated e^{ik theta} modes (k >= 8, size 1/8!) alias into
    # dbar f at 1e-5, so e_dbar ~ 1e-9 there; resolved grids give roundoff
    assert dbar[0] < 1e-8
    assert max(dbar[1:]) <= 1e-12


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
    with pytest.raises(ValueError):
        DiskMap(grid, 2, np.zeros_like(vals), np.full((grid.n_theta, 4), np.nan))


def test_polynomial_map_interior_is_formed_on_first_read(grid, ball):
    # no action reads the interior samples of a polynomial map: derivatives,
    # Laplacian and rim trace come from its polar terms
    from dbardisk.criticality import is_critical
    from dbardisk.holsec import certify_index
    from dbardisk.secondvar import admissible_basis

    f = make_map("f3", grid)
    certify_index(f, ball)
    is_critical(f, ball)
    energies(f)
    admissible_basis(f, ball, 20)
    assert f._values is None
    rot = f.rotated(5)
    assert f.values is f.values
    assert np.array_equal(rot.values, np.roll(f.analytic.sample(grid), -5, axis=1))
    assert np.array_equal(rot.boundary, np.roll(f.boundary, -5, axis=0))


def test_polynomial_map_interior_is_checked_when_formed(grid):
    # c - c |z|^2 + c is c on the rim but c (2 - r^2) > 1.8e308 inside
    c = 1.5e308
    pm = PolynomialMap(2, [[(0, 0, c), (1, 1, -c), (0, 0, c)], []])
    f = DiskMap.from_polynomial(pm, grid)
    assert np.all(f.boundary[:, 0] == c)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
        f.values
