import os
import sys

import numpy as np
import pytest

from dbardisk.criticality import (
    annulus,
    boundary_condition,
    boundary_state,
    conformality,
    harmonic_residual,
    is_critical,
)
from dbardisk.diskmap import DiskGrid, DiskMap, PolynomialMap, make_map
from dbardisk.errors import ConstraintViolationError
from dbardisk.geometry import DefiningFunction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402  (the benchmark's random polynomial maps)


def test_harmonic_residual_linear_maps(maps):
    assert harmonic_residual(maps["f3"]) < 1e-10
    assert harmonic_residual(maps["f4"]) < 1e-10


def test_harmonic_residual_nonharmonic(grid):
    # first coordinate x (x^2 + y^2): Laplacian is 8x, far from zero
    pm = PolynomialMap(2, [[(2, 1, 0.5), (1, 2, 0.5)], []])
    f = DiskMap.from_polynomial(pm, grid)
    assert harmonic_residual(f) > 0.1
    sampled = DiskMap(grid, 2, f.values, f.boundary, analytic=None)
    assert harmonic_residual(sampled) > 0.1


def test_harmonic_residual_sampled_harmonic_polynomials(grid, rng):
    # harmonic polynomials Re(c z^k) of degree <= n_theta/2 - 2 resolve to
    # spectral accuracy through the sampled differentiation path
    kmax = grid.n_theta // 2 - 2
    coords = [[], []]
    for k in range(kmax + 1):
        coords[0].append((k, 0, (rng.normal() + 1j * rng.normal()) / (1.0 + k) ** 2))
    pm = PolynomialMap(2, coords)
    exact = DiskMap.from_polynomial(pm, grid)
    sampled = DiskMap(grid, 2, exact.values, exact.boundary, analytic=None)
    assert harmonic_residual(sampled) < 1e-9


def test_harmonic_residual_vanishes_on_harmonic_polynomial_maps(grid, maps, conj_ball):
    # their Laplacian has no polar terms: nothing is sampled or reduced
    fs = [*maps.values()] + [conj_ball(n, grid)[1] for n in (2, 3, 4)]
    assert [harmonic_residual(f) for f in fs] == [0.0] * len(fs)


@pytest.mark.parametrize("shape", [(32, 64), (24, 48), (128, 256)])
def test_annulus_is_the_radial_mask(shape):
    grid = DiskGrid(*shape)
    r = grid.r
    mask = (r <= 0.95) & (r >= 0.05)
    assert np.array_equal(np.arange(grid.n_r)[annulus(grid)], np.flatnonzero(mask))


def test_harmonic_residual_of_a_nonharmonic_map_keeps_its_value(grid):
    # the exact Laplacian over the grid; for a sampled copy the spectral one
    # over the annulus, here picked by a mask
    f = make_map({"n": 2, "coords": [[{"zp": 2, "zq": 1, "re": 0.5}],
                                     [{"zp": 0, "zq": 3, "im": 1.0}]]}, grid)
    g = f.rotated(5)
    r = grid.r
    mask = (r <= 0.95) & (r >= 0.05)
    exact = f.analytic.sample(grid, "laplacian")
    sampled = grid.laplacian(g.values)[mask]
    assert harmonic_residual(f) == float(np.max(np.linalg.norm(exact, axis=-1))) > 1.0
    assert harmonic_residual(g) == float(np.max(np.linalg.norm(sampled, axis=-1))) > 1.0


def test_boundary_condition_f3_ball(maps, ball):
    res, lam = boundary_condition(maps["f3"], ball)
    assert res < 1e-10
    assert np.max(np.abs(lam - 2.0)) < 1e-10


def test_boundary_condition_f4_weak(maps, weak):
    res, lam = boundary_condition(maps["f4"], weak)
    assert res < 1e-10
    assert np.max(np.abs(lam - np.sqrt(2.0))) < 1e-10


def test_boundary_condition_f1_cylinder(maps, cylinder):
    res, _ = boundary_condition(maps["f1"], cylinder)
    assert res > 0.5


def test_boundary_condition_off_surface(maps, cylinder):
    # f3 sends the rim off the cylinder boundary
    with pytest.raises(ConstraintViolationError) as err:
        boundary_condition(maps["f3"], cylinder)
    assert err.value.worst_node is not None


def test_boundary_state_is_cached_per_domain(grid, ball, cylinder):
    # fresh maps: the session maps carry states that other tests cached
    f = make_map("f3", grid)
    state = boundary_state(f, ball)
    is_critical(f, ball)
    assert boundary_state(f, ball) is state
    assert not state.lam.flags.writeable
    fresh = boundary_state(make_map("f3", grid), ball)
    for name in ("nu", "grad_norm", "lam", "hess"):
        assert np.array_equal(getattr(state, name), getattr(fresh, name))
    assert state.residual == fresh.residual
    # another domain is checked anew; its failure leaves the slot alone
    with pytest.raises(ConstraintViolationError):
        boundary_condition(f, cylinder)
    assert boundary_state(f, ball) is state


def test_boundary_residual_scale_invariance(maps, ball):
    c = 3.5
    scaled = DefiningFunction(
        n=2,
        rho=lambda p: c * ball.rho(p),
        grad=lambda p: c * ball.grad(p),
        hess=lambda p: c * ball.hess(p),
    )
    res1, lam1 = boundary_condition(maps["f3"], ball)
    res2, lam2 = boundary_condition(maps["f3"], scaled)
    assert abs(res1 - res2) < 1e-12
    assert np.max(np.abs(lam1 - lam2)) < 1e-12


def test_conformality_catalog(maps, grid):
    assert conformality(maps["f3"]) < 1e-12
    assert conformality(maps["f2"]) < 1e-12
    # (2x, y, 0, 0): |f_x|^2 - |f_y|^2 = 3 everywhere
    pm = PolynomialMap(2, [[(1, 0, 1.0), (0, 1, 1.0)], [(1, 0, -0.5j), (0, 1, 0.5j)]])
    assert conformality(DiskMap.from_polynomial(pm, grid)) >= 3.0


def _cartesian_defect(f):
    """The conformality defect from the Cartesian f_x and f_y: the oracle of
    the Hopf-differential routes."""
    d = f.derivatives()
    dot = np.sum(d.f_x * d.f_y, axis=-1)
    diff = np.sum(d.f_x**2, axis=-1) - np.sum(d.f_y**2, axis=-1)
    return float(np.max(np.abs(dot) + np.abs(diff)))


@pytest.mark.parametrize("shape", [(32, 64), (24, 48), (32, 256)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_conformality_matches_the_cartesian_defect(shape, n):
    # analytic maps (polar terms of phi) and their rotated samples (polar frame)
    rng = np.random.default_rng(1000 * n + shape[1])
    grid = DiskGrid(*shape)
    for _ in range(3):
        coords = workloads.random_polynomial_map(rng, n)
        f = DiskMap.from_polynomial(PolynomialMap(n, coords), grid)
        for m in (f, f.rotated(int(rng.integers(1, grid.n_theta)))):
            got, want = conformality(m), _cartesian_defect(m)
            assert abs(got - want) <= 1e-14 * max(1.0, want), (coords, m.name)


def test_is_critical_catalog(maps, ball, weak, cylinder):
    ok, rep = is_critical(maps["f3"], ball)
    assert ok
    assert abs(rep.lambda_min - 2.0) < 1e-10
    assert not rep.warnings

    ok, rep = is_critical(maps["f4"], weak)
    assert ok
    assert abs(rep.lambda_min - np.sqrt(2.0)) < 1e-10

    ok, rep = is_critical(maps["f1"], cylinder)
    assert not ok
    assert rep.boundary_residual > 0.1


def test_certified_critical_points_obey_consequences(maps, ball, weak, cylinder):
    # weak conformality and lambda >= 0 must hold on every certified
    # critical point in the catalog
    for name, dom in (("f3", ball), ("f4", weak), ("f2", cylinder)):
        ok, rep = is_critical(maps[name], dom)
        if ok:
            assert rep.conformality_defect < 1e-8
            assert rep.lambda_min >= -1e-8


def test_report_serialization(maps, ball):
    _, rep = is_critical(maps["f3"], ball)
    d = rep.to_json_dict()
    assert set(d) >= {"harmonic_residual", "boundary_residual", "lambda",
                      "lambda_min", "conformality_defect", "critical"}
    assert len(d["lambda"]) == maps["f3"].grid.n_theta
