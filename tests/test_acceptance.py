"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Timings are wall clock of the computation alone; the jitted kernels
are warmed once by the session fixture.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from dbardisk import secondvar as sv
from dbardisk.diskmap import (
    DiskMap,
    PolynomialMap,
    energies,
    homotopy_invariance_check,
    make_map,
)
from dbardisk.geometry import classify_pseudoconvexity, complex_hessian, make_domain
from dbardisk.harness import ScenarioConfig, emit, run
from dbardisk.holsec import build_U, certify_index, dbar_kernel_dimension
from dbardisk.criticality import is_critical

from conftest import SYNTHETIC_C3_DOMAIN, SYNTHETIC_C3_MAP


@contextmanager
def criterion(number, description, budget_sec):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed < budget_sec else "FAIL"
    print(f"[criterion {number:2d}] {status}  {description}  ({elapsed:.2f}s "
          f"< {budget_sec:.0f}s)")
    assert elapsed < budget_sec, f"runtime {elapsed:.2f}s over budget {budget_sec}s"


def _random_poly_map(rng, grid):
    coords = []
    for _ in range(2):
        coords.append([
            (p, q, 0.5 * (rng.normal() + 1j * rng.normal()) / (1 + p + q))
            for p in range(4) for q in range(4 - p)
        ])
    return DiskMap.from_polynomial(PolynomialMap(2, coords), grid)


def test_criterion_01_holomorphicity(grid):
    with criterion(1, "holomorphicity: E''(f2) ~ 0, E''(f1) = pi/2, E''(f3) = pi", 1.0):
        e2 = energies(make_map("f2", grid)).e_dbar
        e1 = energies(make_map("f1", grid)).e_dbar
        e3 = energies(make_map("f3", grid)).e_dbar
        assert e2 < 1e-8
        assert abs(e1 - np.pi / 2) < 1e-8
        assert abs(e3 - np.pi) < 1e-8


def test_criterion_02_energy_identities(grid):
    with criterion(2, "energy identities on the catalog and 5 random maps", 5.0):
        rng = np.random.default_rng(42)
        maps = [make_map(name, grid) for name in ("f1", "f2", "f3", "f4")]
        maps += [_random_poly_map(rng, grid) for _ in range(5)]
        for f in maps:
            rep = energies(f)
            scale = max(rep.e_full, 1e-30)
            assert abs(rep.e_full - rep.e_del - rep.e_dbar) < 1e-10 * scale
            assert abs(rep.e_del - rep.e_dbar - rep.kahler) < 1e-10 * scale


def test_criterion_03_criticality(grid, ball, weak, cylinder):
    with criterion(3, "criticality of f3/ball, f4/weak; f1/cylinder fails", 2.0):
        f3 = make_map("f3", grid)
        ok, rep = is_critical(f3, ball)
        assert ok
        assert rep.harmonic_residual < 1e-8 and rep.boundary_residual < 1e-8
        assert np.max(np.abs(rep.lambda_values - 2.0)) < 1e-8
        assert rep.conformality_defect < 1e-8

        f4 = make_map("f4", grid)
        ok, rep = is_critical(f4, weak)
        assert ok
        assert rep.harmonic_residual < 1e-8 and rep.boundary_residual < 1e-8
        assert rep.conformality_defect < 1e-8

        ok, rep = is_critical(make_map("f1", grid), cylinder)
        assert not ok
        assert rep.boundary_residual > 0.1


GOLDEN_BALL_CERT = -4.0 * np.pi  # fd-oracle value, pinned in test_holsec


def test_criterion_04_main_theorem_certificate(grid, ball):
    with criterion(4, "f3/ball certificate: I(U1,U1) < -0.1, bound = n-1 = 1", 10.0):
        f3 = make_map("f3", grid)
        cert = certify_index(f3, ball, k=1)
        assert cert.values[0] < -0.1
        assert abs(cert.values[0] - GOLDEN_BALL_CERT) < 1e-8
        assert cert.certified_bound == 1
        us = build_U(f3)
        fields = [us.sections[0].real_part, us.sections[0].imag_part]
        fields += sv.interior_bumps(grid, 2, 20)
        gs = sv.assemble_gram(f3, ball, fields)
        assert gs.negative_count >= 1


def test_criterion_05_f4_second_variation(grid, weak):
    with criterion(5, "f4 family: 4pi/3 closed form, fd match, stability", 30.0):
        f4 = make_map("f4", grid)
        one_minus_r2 = sv.PolarPoly([(0, 0, 1.0), (2, 0, -1.0)])
        zero = sv.PolarPoly.zero()
        pre, post = sv.f4_closed_forms(one_minus_r2, zero, zero, zero, grid)
        assert abs(post - 4 * np.pi / 3) < 1e-6
        fam = sv.f4_family(one_minus_r2, zero, zero, zero, grid)
        fd = sv.fd_second_variation(fam, df=weak, h=0.02)
        assert abs(fd.raw - post) < 1e-4 * post

        rng = np.random.default_rng(11)
        for _ in range(5):
            sigma = sv.random_polar_poly(rng, rim_zero=True)
            phi = sv.random_polar_poly(rng)
            psi = sv.random_polar_poly(rng)
            eta = sv.random_polar_poly(rng)
            pre, post = sv.f4_closed_forms(sigma, phi, psi, eta, grid)
            assert abs(pre - post) < 1e-8 * max(1.0, abs(post))
            assert post >= -1e-10
            assert pre >= -1e-10

        basis = sv.admissible_basis(f4, weak, 52)
        gs = sv.assemble_gram(f4, weak, basis)
        assert gs.eigenvalues[0] >= -1e-8


def test_criterion_06_levi_classification(grid, ball, weak):
    with criterion(6, "Levi: ball strict, weak_rank_one weak {0,2}, C3 (-1,3)", 1.0):
        f3 = make_map("f3", grid)
        rep = classify_pseudoconvexity(ball, list(f3.boundary), k=1)
        assert rep.classification == "strict"
        assert abs(rep.margin - 1.0) < 1e-9

        f4 = make_map("f4", grid)
        rep = classify_pseudoconvexity(weak, list(f4.boundary), k=1)
        assert rep.classification == "weak"
        assert abs(rep.margin) < 1e-9
        hess_eigs = np.linalg.eigvalsh(complex_hessian(weak, f4.boundary[0]))
        assert np.allclose(hess_eigs, [0.0, 2.0], atol=1e-9)

        dom = make_domain(SYNTHETIC_C3_DOMAIN)
        f = make_map(SYNTHETIC_C3_MAP, grid)
        rep1 = classify_pseudoconvexity(dom, list(f.boundary), k=1)
        assert rep1.classification == "non"
        rep2 = classify_pseudoconvexity(dom, list(f.boundary), k=2)
        assert rep2.classification == "strict"
        assert abs(rep2.margin - 2.0) < 1e-9


def test_criterion_07_fredholm_kernel():
    with criterion(7, "dbar kernel dimension = 2n for n in {1,2,3}, stable", 10.0):
        for n in (1, 2, 3):
            assert dbar_kernel_dimension(n, degree=6) == 2 * n
            assert dbar_kernel_dimension(n, degree=12) == 2 * n


def test_criterion_08_homotopy_invariance(grid):
    with criterion(8, "E' - E'' drift < 1e-8 along 3 fixed-boundary families", 5.0):
        rng = np.random.default_rng(3)
        prof = (1.0 - grid.r**2)[:, None, None]
        x = grid.r[:, None] * np.cos(grid.theta)[None, :]
        y = grid.r[:, None] * np.sin(grid.theta)[None, :]
        etas = []
        coeff = rng.normal(size=(4, 3))
        etas.append(prof * np.stack(
            [c[0] + c[1] * x + c[2] * y for c in coeff], axis=-1))
        vec = np.zeros(4)
        vec[1] = 1.0
        etas.append(prof * np.broadcast_to(vec, (grid.n_r, grid.n_theta, 4)))
        etas.append(prof * np.stack([x * y, x, y, x - y], axis=-1))
        for base, values in zip(("f1", "f3", "f2"), etas):
            eta = DiskMap(grid, 2, values, np.zeros((grid.n_theta, 4)))
            drift = homotopy_invariance_check(make_map(base, grid), eta, steps=6)
            assert drift < 1e-8


def test_criterion_09_cutoff_suite(grid, weak):
    with criterion(9, "cutoff: Dirichlet <= 2.2 pi/|ln eps|, decreasing, transfer", 10.0):
        values = []
        for eps in (1e-2, 1e-3, 1e-4):
            cut = sv.LogCutoff(eps)
            assert cut.dirichlet_integral <= 2.2 * np.pi / abs(np.log(eps))
            values.append(cut.dirichlet_integral)
        assert values[0] > values[1] > values[2]
        f4 = make_map("f4", grid)
        V = sv.admissible_basis(f4, weak, 8)[4]
        for rec in sv.cutoff_stability_check(f4, weak, V, [1e-2, 1e-3, 1e-4]):
            assert rec["value"] >= rec["lower_bound"]


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "deterministic mode: byte-identical JSON reports", 60.0):
        cfg = dict(action="certify", domain="ball4", map="f3", seed=7,
                   deterministic=True)
        blobs = []
        for sub in ("a", "b"):
            rep = run(ScenarioConfig.from_dict(dict(cfg)))
            out = tmp_path / sub
            emit(rep, out)
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1]
        json.loads(blobs[0])  # well-formed
