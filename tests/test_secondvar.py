import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbardisk import secondvar as sv
from dbardisk.diskmap import DBAR_RAW_FACTOR, DiskGrid, DiskMap, energies, make_map
from dbardisk.errors import (
    AdmissibilityError,
    ConstraintViolationError,
    DegenerateBoundaryError,
    EmptyBasisError,
    InvalidVariationError,
)
from dbardisk.geometry import DefiningFunction, apply_j, make_domain

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402  (the benchmark's Gram ladder and map specs)


def _const_field(grid, vec, label="const"):
    return sv.VariationField.constant(grid, 2, np.asarray(vec, dtype=float),
                                      label=label)


def _bump_field(grid, vec):
    # (1 - r^2) r^2 profile: vanishes on the rim, compact-support-like
    prof = np.polynomial.Polynomial([0.0, 0.0, 1.0, 0.0, -1.0])
    ang = np.broadcast_to(np.asarray(vec, dtype=float), (grid.n_theta, 4)).copy()
    return sv.VariationField.separable(grid, 2, prof, ang, label="bump")


# ---------------------------------------------------------------------------
# boundary state


def test_boundary_state_refuses_off_surface_maps(maps, ball):
    # f2 sends the rim to |z| = 1 in one coordinate only: rho = -1 there
    with pytest.raises(ConstraintViolationError) as err:
        sv.boundary_state(maps["f2"], ball)
    assert err.value.worst_node is not None
    assert abs(err.value.worst_value) > 0.5


def test_boundary_state_refuses_degenerate_gradients(maps, ball):
    flat = DefiningFunction(n=2, rho=ball.rho, hess=ball.hess,
                            grad=lambda p: np.zeros(np.shape(p)))
    with pytest.raises(DegenerateBoundaryError):
        sv.boundary_state(maps["f3"], flat)


# ---------------------------------------------------------------------------
# admissibility


def test_admissible_tangential_field(grid, maps, ball):
    # (y, 0, x, 0) restricted to the f3 boundary image is exactly tangent
    ang = np.stack([np.sin(grid.theta), np.zeros(grid.n_theta),
                    np.cos(grid.theta), np.zeros(grid.n_theta)], axis=-1)
    V = sv.VariationField.separable(grid, 2, np.polynomial.Polynomial([0, 0, 1]),
                                    ang, label="tangent")
    chk = sv.admissibility(V, maps["f3"], ball)
    assert chk.real_sup < 1e-10


def test_normal_field_is_inadmissible(grid, maps, ball):
    state = sv.boundary_state(maps["f3"], ball)
    V = sv.VariationField(grid, 2,
                          np.broadcast_to(state.nu, (grid.n_r, grid.n_theta, 4)).copy(),
                          state.nu.copy(), label="normal")
    chk = sv.admissibility(V, maps["f3"], ball)
    assert abs(chk.real_sup - 1.0) < 1e-12
    with pytest.raises(AdmissibilityError):
        sv.index_form_real(maps["f3"], ball, V)
    # a pair checks both fields at once and names the one that fails
    tangent = sv.admissible_basis(maps["f3"], ball, 1)[0]
    with pytest.raises(AdmissibilityError) as err:
        sv.index_form_real(maps["f3"], ball, tangent, V)
    assert "'normal'" in str(err.value) and repr(tangent.label) not in str(err.value)
    assert err.value.measured_sup == chk.real_sup


def test_gram_names_the_first_non_tangent_field(grid, maps, ball):
    # the Gram assembly checks every field's tangency at once; it still
    # names the first field past TOL_ADM and reports that field's sup
    state = sv.boundary_state(maps["f3"], ball)

    def normal(scale, label):
        values = np.broadcast_to(scale * state.nu, (grid.n_r, grid.n_theta, 4)).copy()
        return sv.VariationField(grid, 2, values, scale * state.nu, label=label)

    tangent = sv.admissible_basis(maps["f3"], ball, 6)
    fields = tangent[:2] + [normal(1e-9, "tiny"), normal(0.5, "half"), tangent[2],
                            normal(2.0, "double")]
    with pytest.raises(AdmissibilityError) as err:
        sv.assemble_gram(maps["f3"], ball, fields)
    assert "'half'" in str(err.value) and "'double'" not in str(err.value)
    assert err.value.measured_sup == sv.admissibility(fields[3], maps["f3"], ball).real_sup
    assert abs(err.value.measured_sup - 0.5) < 1e-12
    assert sv.assemble_gram(maps["f3"], ball, fields[:3]).matrix.shape == (3, 3)


def test_holomorphic_section_complex_check(grid, maps, ball):
    from dbardisk.holsec import build_U

    us = build_U(maps["f3"])
    chk = sv.admissibility(us.sections[0], maps["f3"], ball)
    assert chk.complex_sup < 1e-9
    # the real part alone passes the complex criterion too (W = V - iJV
    # rebuilds the section)
    chk_re = sv.admissibility(us.sections[0].real_part, maps["f3"], ball)
    assert chk_re.complex_sup < 1e-9


# ---------------------------------------------------------------------------
# index form basics


def test_compact_support_positive(grid, maps, ball):
    V = _bump_field(grid, [0.0, 1.0, 0.0, 0.0])
    val = sv.index_form_real(maps["f3"], ball, V)
    # boundary terms vanish: I(V, V) = 1/2 int ||grad V||^2 > 0
    vx, vy = V.gradients()
    half_dirichlet = 0.5 * grid.integrate_disk(np.sum(vx**2 + vy**2, axis=-1))
    assert val > 0
    assert abs(val - half_dirichlet) < 1e-12


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([2.0, 10.0]), st.integers(0, 10**6))
def test_scaling_quadratic(c, seed):
    grid = DiskGrid(16, 32)
    f3 = make_map("f3", grid)
    ball = make_domain("ball4")
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=4)
    V = _bump_field(grid, vec)
    base = sv.index_form_real(f3, ball, V)
    cV = sv.VariationField.separable(grid, 2, c * V.profile, V.angular)
    scaled = sv.index_form_real(f3, ball, cV)
    assert abs(scaled - c**2 * base) <= 1e-10 * max(1.0, abs(c**2 * base))


def test_polarization_symmetry_and_bilinearity(grid, maps, ball, rng):
    f3 = maps["f3"]
    V = _bump_field(grid, rng.normal(size=4))
    W = _bump_field(grid, rng.normal(size=4))
    ivw = sv.index_form_real(f3, ball, V, W)
    iwv = sv.index_form_real(f3, ball, W, V)
    assert abs(ivw - iwv) < 1e-12
    # I(V+W, V+W) = I(V,V) + 2 I(V,W) + I(W,W)
    VW = sv.VariationField(grid, 2, V.values + W.values, V.boundary + W.boundary)
    lhs = sv.index_form_real(f3, ball, VW)
    rhs = (sv.index_form_real(f3, ball, V) + 2 * ivw
           + sv.index_form_real(f3, ball, W))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# the f4 family: four routes to one number


ZERO = sv.PolarPoly.zero()
ONE_MINUS_R2 = sv.PolarPoly([(0, 0, 1.0), (2, 0, -1.0)])


def test_polar_poly_product_matches_the_loop(grid, rng):
    # a tensor grid takes one matrix product, broadcast arrays the loop over
    # frequencies
    r, t = grid.r[:, None], grid.theta[None, :]
    shape = (grid.n_r, grid.n_theta)
    poly = sv.random_polar_poly(rng)
    for F in (poly, poly.d_r(), poly.d_theta(), sv.random_polar_poly(rng, rim_zero=True),
              ONE_MINUS_R2, ZERO):
        product = F(r, t)
        loop = F(np.broadcast_to(r, shape), np.broadcast_to(t, shape))
        assert product.shape == shape
        assert np.max(np.abs(product - loop)) <= 1e-14 * np.max(np.abs(loop))


def test_f4_family_hand_value(grid, maps, weak):
    # sigma = 1 - r^2 alone: the closed form integrates (r sigma_r)^2 = 4 r^4
    # over the disk, which is 4 pi / 3
    expected = 4.0 * np.pi / 3.0
    pre, post = sv.f4_closed_forms(ONE_MINUS_R2, ZERO, ZERO, ZERO, grid)
    assert abs(post - expected) < 1e-12
    assert abs(pre - expected) < 1e-12
    fam = sv.f4_family(ONE_MINUS_R2, ZERO, ZERO, ZERO, grid)
    fd = sv.fd_second_variation(fam, df=weak, h=0.02)
    assert abs(fd.raw - expected) < 1e-4 * expected
    V = sv.f4_variation_field(ONE_MINUS_R2, ZERO, ZERO, ZERO, grid)
    quad = DBAR_RAW_FACTOR * sv.index_form_real(maps["f4"], weak, V)
    assert abs(quad - expected) < 1e-10


def test_f4_family_zero_functions(grid, weak):
    fam = sv.f4_family(ZERO, ZERO, ZERO, ZERO, grid)
    fd = sv.fd_second_variation(fam, df=weak, h=0.02)
    assert abs(fd.raw) < 1e-12
    pre, post = sv.f4_closed_forms(ZERO, ZERO, ZERO, ZERO, grid)
    assert pre == 0.0 and post == 0.0


def test_f4_family_random_oracle_agreement(grid, maps, weak):
    rng = np.random.default_rng(5)
    for _ in range(5):
        sigma = sv.random_polar_poly(rng, rim_zero=True)
        phi = sv.random_polar_poly(rng)
        psi = sv.random_polar_poly(rng)
        eta = sv.random_polar_poly(rng)
        pre, post = sv.f4_closed_forms(sigma, phi, psi, eta, grid)
        scale = max(1.0, abs(post))
        # integration-by-parts identity between the two closed forms
        assert abs(pre - post) < 1e-8 * scale
        # finite differences against the closed form
        fam = sv.f4_family(sigma, phi, psi, eta, grid)
        fd = sv.fd_second_variation(fam, df=weak, h=0.02)
        assert abs(fd.raw - post) < 1e-5 * scale
        # index form against the closed form
        V = sv.f4_variation_field(sigma, phi, psi, eta, grid)
        quad = DBAR_RAW_FACTOR * sv.index_form_real(maps["f4"], weak, V)
        assert abs(quad - post) < 1e-4 * scale
        # the final integrand is a sum of squares
        assert post >= -1e-10


def test_f4_family_requires_rim_zero_sigma(grid):
    with pytest.raises(InvalidVariationError):
        sv.f4_family(sv.PolarPoly([(0, 0, 1.0)]), ZERO, ZERO, ZERO, grid)


def test_explicit_acceleration_matches_hypersurface_policy(grid, maps, weak):
    # for the phase-rotation family of f4 the boundary acceleration has
    # normal component -phi^2 / sqrt(2); the hypersurface policy
    # -Hess rho (V, V) / |grad rho| must reproduce it node by node
    phi = sv.PolarPoly([(0, 0, 0.4), (2, 2, 0.3)])
    V = sv.f4_variation_field(ZERO, phi, ZERO, ZERO, grid)
    state = sv.boundary_state(maps["f4"], weak)
    policy = -np.einsum("mij,mi,mj->m", state.hess, V.boundary, V.boundary) / state.grad_norm
    explicit = -phi(1.0, grid.theta) ** 2 / np.sqrt(2.0)
    assert np.max(np.abs(policy - explicit)) < 1e-12


def test_fd_constraint_check(grid, maps, ball):
    # straight-line family pushes the boundary off the sphere at O(t^2)
    V = _const_field(grid, [0.0, 1.0, 0.0, 0.0])

    def family(t):
        return DiskMap(grid, 2, maps["f3"].values + t * V.values,
                       maps["f3"].boundary + t * V.boundary)

    with pytest.raises(ConstraintViolationError):
        sv.fd_second_variation(family, df=ball, h=0.05)


def test_fd_dbar_only_density_matches_full_energies(grid, maps, ball):
    V = _const_field(grid, [0.0, 1.0, 0.0, 0.0])
    fam = sv.hypersurface_family(maps["f3"].rotated(3), V, ball)
    h = 0.02
    fd = sv.fd_second_variation(fam, df=ball, h=h)
    e = {t: energies(fam(t)).e_dbar for t in (0.0, h, -h, h / 2, -h / 2)}
    coarse = (e[h] - 2.0 * e[0.0] + e[-h]) / h**2
    fine = (e[h / 2] - 2.0 * e[0.0] + e[-h / 2]) / (h / 2) ** 2
    assert (fd.coarse, fd.fine) == (coarse, fine)


def test_projection_refuses_a_far_step(grid, maps, ball):
    # from |p| = 5 three Newton steps on the sphere only reach |p| ~ 1.08
    V = _const_field(grid, [0.0, 1.0, 0.0, 0.0])
    fam = sv.hypersurface_family(maps["f3"], V, ball)
    with pytest.raises(ConstraintViolationError) as err:
        fam(5.0)
    assert err.value.worst_value > 1e-8
    assert np.max(np.abs(ball.rho(fam(0.0025).boundary))) <= 1e-8


def test_fd_oracle_on_ball_certificate_field(grid, maps, ball):
    # independent confirmation of I(V, V) = -2 pi for the constant field
    # e_{x_2} along the anti-holomorphic disk in the ball
    V = _const_field(grid, [0.0, 1.0, 0.0, 0.0], label="ReU1")
    fam = sv.hypersurface_family(maps["f3"], V, ball)
    fd = sv.fd_second_variation(fam, df=ball, h=0.02)
    direct = sv.index_form_real(maps["f3"], ball, V)
    assert abs(direct + 2.0 * np.pi) < 1e-12
    assert abs(fd.value - direct) < 1e-4 * abs(direct)


# ---------------------------------------------------------------------------
# Gram assembly


def test_gram_f3_ball_negative_directions(grid, maps, ball):
    ReU = _const_field(grid, [0.0, 1.0, 0.0, 0.0], label="ReU1")
    ImU = _const_field(grid, [0.0, 0.0, 0.0, -1.0], label="ImU1")
    bumps = sv.interior_bumps(grid, 2, 20)
    gs = sv.assemble_gram(maps["f3"], ball, [ReU, ImU] + bumps)
    assert gs.negative_count >= 1
    assert gs.eigenvalues[0] < -1.0
    assert gs.matrix.shape == (22, 22)
    assert np.max(np.abs(gs.matrix - gs.matrix.T)) < 1e-10


def test_gram_f4_weak_stability(grid, maps, weak):
    basis = sv.admissible_basis(maps["f4"], weak, 52)
    assert len(basis) == 52
    gs = sv.assemble_gram(maps["f4"], weak, basis, description="frame-52")
    assert gs.negative_count == 0
    assert gs.eigenvalues[0] >= -1e-8


def test_gram_compact_support_positive_definite(grid, maps, ball):
    bumps = sv.interior_bumps(grid, 2, 12)
    gs = sv.assemble_gram(maps["f3"], ball, bumps)
    assert np.all(gs.eigenvalues > 0)


def test_gram_empty_basis(grid, maps, ball):
    with pytest.raises(EmptyBasisError):
        sv.assemble_gram(maps["f3"], ball, [])


def test_gram_negative_count_monotone_in_tolerance(grid, maps, ball):
    ReU = _const_field(grid, [0.0, 1.0, 0.0, 0.0])
    bumps = sv.interior_bumps(grid, 2, 8)
    basis = [ReU] + bumps
    loose = sv.assemble_gram(maps["f3"], ball, basis, tol_neg_rel=1e-2)
    tight = sv.assemble_gram(maps["f3"], ball, basis, tol_neg_rel=1e-12)
    assert loose.negative_count <= tight.negative_count


def _without_factors(basis):
    return [sv.VariationField(V.grid, V.n, V.values, V.boundary, label=V.label)
            for V in basis]


def _count_generic(monkeypatch):
    calls = []
    generic = sv._kernels.gram_interior

    def spy(*args):
        calls.append(1)
        return generic(*args)

    monkeypatch.setattr(sv._kernels, "gram_interior", spy)
    return calls


@pytest.fixture(scope="module")
def gram_cases(grid, maps, weak, ball):
    fine = DiskGrid(64, 128)
    f3 = make_map("f3", fine)
    return {
        "f4-weak-32x64": (maps["f4"], weak, sv.admissible_basis(maps["f4"], weak, 52)),
        "f3-ball-64x128": (f3, ball, sv.admissible_basis(f3, ball, 60)),
    }


@pytest.mark.parametrize("case", ["f4-weak-32x64", "f3-ball-64x128"])
def test_gram_separable_matches_generic(gram_cases, case, monkeypatch):
    f, df, basis = gram_cases[case]
    calls = _count_generic(monkeypatch)
    sep = sv.assemble_gram(f, df, basis)
    assert calls == []
    gen = sv.assemble_gram(f, df, _without_factors(basis))
    assert calls == [1]
    scale = np.max(np.abs(gen.matrix))
    assert np.max(np.abs(sep.matrix - gen.matrix)) <= 1e-12 * scale
    assert sep.negative_count == gen.negative_count


@pytest.mark.parametrize("case", ["f4-weak-32x64", "f3-ball-64x128"])
def test_gram_entries_match_index_form(gram_cases, case):
    # second route: each entry is the polarized index form of its two fields
    f, df, basis = gram_cases[case]
    gs = sv.assemble_gram(f, df, basis)
    g = gs.matrix
    for i, j in [(0, 0), (0, 8), (3, 17), (10, 41), (25, 51), (51, 51)]:
        direct = sv.index_form_real(f, df, basis[i], basis[j])
        scale = max(abs(g[i, j]), np.sqrt(abs(g[i, i] * g[j, j])))
        assert abs(g[i, j] - direct) <= 1e-10 * scale, (i, j)


def _gram_by_einsum(f, df, basis):
    """The Gram matrix with the boundary blocks in the einsum forms that
    assemble_gram's matrix products replaced, and each profile evaluated
    per field."""
    grid, m = f.grid, len(basis)
    state = sv.boundary_state(f, df)
    p = np.array([V.profile(grid.r) for V in basis])
    ang = np.array([V.angular for V in basis])
    dp = p @ grid._d_r.T
    ang_t = grid.theta_derivative(ang, axis=1).reshape(m, -1)
    ang = ang.reshape(m, -1)
    r1 = (dp * (grid.w_r * grid.r)) @ dp.T
    r2 = (p * (grid.w_r * grid.inv_r)) @ p.T
    interior = grid.w_theta * (r1 * (ang @ ang.T) + r2 * (ang_t @ ang_t.T))
    vb = np.array([V.boundary for V in basis])
    hv = np.einsum("mij,amj->ami", state.hess, vb)
    wfac = grid.w_theta * state.lam / state.grad_norm
    acc = -(hv * wfac[:, None]).reshape(m, -1) @ vb.reshape(m, -1).T
    jt = apply_j(grid.theta_derivative(vb, axis=1))
    c1 = grid.w_theta * np.einsum("ami,bmi->ab", jt, vb)
    gram = 0.5 * (interior + acc + 0.5 * (c1 + c1.T))
    return 0.5 * (gram + gram.T)


@pytest.mark.parametrize("kind, n, shape, size",
                         workloads.GRAM_LADDER + [("conj", 3, (32, 64), 80)])
def test_gram_matrix_products_match_einsum_forms(kind, n, shape, size):
    # every rung of the benchmark's Gram ladder, plus the C^3 ball on a coarse grid
    rng = np.random.default_rng(size)
    grid, angle = DiskGrid(*shape), workloads._angle(rng)
    if kind == "f4":
        f = make_map(workloads.map_spec(workloads.rotated_f4(angle), "f4-rot"), grid)
        df = make_domain("weak_rank_one")
    else:
        slot = int(rng.integers(n))
        f = make_map(workloads.map_spec(workloads.conj_disk(n, slot, angle), "conj"), grid)
        df = make_domain(workloads.ball_spec(n))
    basis = sv.admissible_basis(f, df, size)
    got = sv.assemble_gram(f, df, basis).matrix
    want = _gram_by_einsum(f, df, basis)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def test_basis_fields_of_one_frequency_share_a_profile(grid, maps, ball):
    basis = sv.admissible_basis(maps["f3"], ball, 40)
    by_label = {V.label: V for V in basis}
    assert by_label["frame-k1-cos-e0"].profile is by_label["frame-k1-sin-e3"].profile
    assert by_label["frame-k1-cos-e0"].profile is not by_label["frame-k2-cos-e0"].profile
    bumps = sv.interior_bumps(grid, 2, 12)
    assert all(V.profile is bumps[0].profile for V in bumps[:4])
    assert bumps[4].profile is bumps[11].profile is not bumps[0].profile


@pytest.mark.parametrize("case", ["ball-c2", "ball-c3"])
def test_basis_holds_52n_fields(grid, ball, conj_ball, monkeypatch, case):
    # 26 n projected frames and 26 n bumps; a larger size is refused before
    # the boundary state is formed
    df, f = (ball, make_map("f3", grid)) if case == "ball-c2" else conj_ball(3, grid)
    basis = sv.admissible_basis(f, df, 52 * f.n)
    assert len(basis) == 52 * f.n and len({V.label for V in basis}) == 52 * f.n
    monkeypatch.setattr(sv, "boundary_state", None)
    with pytest.raises(ValueError, match=rf"^basis size {52 * f.n + 1} exceeds the "
                                         rf"{52 * f.n} fields available at n = {f.n}$"):
        sv.admissible_basis(f, df, 52 * f.n + 1)


@pytest.mark.parametrize("n", [2, 3])
def test_interior_bumps_hold_26n_fields(grid, monkeypatch, n):
    # a count past the 26 n bumps is refused before any field is built
    bumps = sv.interior_bumps(grid, n, 26 * n)
    assert len(bumps) == 26 * n and len({V.label for V in bumps}) == 26 * n
    monkeypatch.setattr(sv.VariationField, "separable", None)
    with pytest.raises(ValueError, match=rf"^bump count {26 * n + 1} exceeds the "
                                         rf"{26 * n} bumps available at n = {n}$"):
        sv.interior_bumps(grid, n, 26 * n + 1)


def test_gram_generic_entries_match_index_form(grid, maps, ball):
    from dbardisk.holsec import build_U

    us = build_U(maps["f3"])
    basis = [us.sections[0].real_part, us.sections[0].imag_part]
    basis += sv.interior_bumps(grid, 2, 6)
    g = sv.assemble_gram(maps["f3"], ball, basis).matrix
    for i, j in [(0, 0), (0, 1), (1, 1), (0, 5), (4, 7)]:
        direct = sv.index_form_real(maps["f3"], ball, basis[i], basis[j])
        scale = max(abs(g[i, j]), np.sqrt(abs(g[i, i] * g[j, j])))
        assert abs(g[i, j] - direct) <= 1e-10 * scale, (i, j)


def test_separable_fields_are_read_only(grid):
    V = _bump_field(grid, [1.0, 0.0, 0.0, 0.0])
    for arr in (V.values, V.angular, V.boundary):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(AttributeError):
        V.values = np.zeros_like(V.values)
    # the factors are copied, so the caller's array stays its own
    ang = np.ones((grid.n_theta, 4))
    W = sv.VariationField.separable(grid, 2, np.polynomial.Polynomial([1.0]), ang)
    ang[0] = 2.0
    assert np.all(W.values == 1.0)


def test_factor_field_values_are_fresh_read_only_arrays(grid, maps, ball):
    from dbardisk.holsec import build_U

    U = build_U(maps["f3"]).sections[0]
    fields = sv.admissible_basis(maps["f3"], ball, 104)[::13]
    fields += [_const_field(grid, [0.0, 1.0, 0.0, 0.0]), U, U.real_part, U.imag_part]
    for V in fields:
        a, b = V.values, V.values
        assert a is not b and np.array_equal(a, b), V.label
        assert not (a.flags.writeable or b.flags.writeable), V.label
        assert V._values is None, V.label
    assert np.array_equal(U.real_part.values, U.values.real)
    assert np.array_equal(U.imag_part.values, U.values.imag)


def test_reading_factor_fields_holds_no_memory(ball):
    # a field built from factors forms its values on each read and keeps
    # none: once read, 104 fields at 64x128 with n = 2 would hold 26 MiB
    import tracemalloc

    from dbardisk.holsec import build_U

    f = make_map("f3", DiskGrid(64, 128))
    U = build_U(f).sections[0]
    fields = sv.admissible_basis(f, ball, 104) + [U, U.real_part, U.imag_part]
    tracemalloc.start()
    try:
        for V in fields:
            assert V.values.shape == (64, 128, 4)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2**20, held / 2**20


def test_factor_field_values_built_once_per_family_and_per_gradient(maps, ball):
    f = maps["f3"]
    V = sv.admissible_basis(f, ball, 12)[-1]
    build, builds = V._build, []
    V._build = lambda: builds.append(1) or build()
    V.gradients()
    assert len(builds) == 1
    # five family members: t = 0, +-h and +-h/2
    sv.fd_second_variation(sv.hypersurface_family(f, V, ball), df=ball)
    assert len(builds) == 2


def test_gram_sampled_field_takes_generic_path(grid, maps, weak, monkeypatch):
    basis = sv.admissible_basis(maps["f4"], weak, 20)
    mixed = list(basis)
    mixed[5] = _without_factors(basis[5:6])[0]
    assert mixed[5].profile is None and mixed[5].angular is None
    calls = _count_generic(monkeypatch)
    want = sv.assemble_gram(maps["f4"], weak, basis)
    assert calls == []
    got = sv.assemble_gram(maps["f4"], weak, mixed)
    assert calls == [1]
    scale = np.max(np.abs(want.matrix))
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12 * scale
    assert got.negative_count == want.negative_count


def test_gram_scales_with_factors_only(conj_ball):
    # 200 separable fields at 128x256 for n = 4: their values would take
    # 419 MB, but the factored path never builds them
    import tracemalloc

    df, f = conj_ball(4, DiskGrid(128, 256))
    tracemalloc.start()
    try:
        basis = sv.admissible_basis(f, df, 200)
        gs = sv.assemble_gram(f, df, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gs.matrix.shape == (200, 200)
    assert gs.negative_count >= 3
    assert peak < 100 * 2**20, peak / 2**20


def test_polar_poly_grouped_by_frequency_matches_term_sum(grid, rng):
    poly = sv.random_polar_poly(rng, rim_zero=True)
    r, t = grid.r[:, None], grid.theta[None, :]
    want = sum(c * r**p * np.exp(1j * k * t) for p, k, c in poly.terms).real
    scale = sum(abs(c) for _, _, c in poly.terms)
    assert len({k for _, k, _ in poly.terms}) == 5 < len(poly.terms)
    assert np.max(np.abs(poly(r, t) - want)) <= 1e-14 * scale
    rim = poly(1.0, grid.theta)
    assert rim.shape == grid.theta.shape and np.max(np.abs(rim)) <= 1e-14 * scale


# ---------------------------------------------------------------------------
# logarithmic cutoff


@pytest.mark.parametrize("order", [24, 48, 64])
def test_gauss_panel_nodes_match_leggauss(order):
    x, w = np.polynomial.legendre.leggauss(order)
    for a, b in ((0.0, 1e-4), (2.0 * np.log(1e-3), np.log(1e-3))):
        nodes, weights = sv._gauss_panel(a, b, order=order)
        assert np.array_equal(nodes, 0.5 * (b - a) * x + 0.5 * (a + b))
        assert np.array_equal(weights, 0.5 * (b - a) * w)
    cached = sv._leggauss(order)
    assert cached is sv._leggauss(order)
    assert np.array_equal(cached[0], x) and np.array_equal(cached[1], w)
    assert not cached[0].flags.writeable and not cached[1].flags.writeable


def test_log_cutoff_profile_values():
    cut = sv.LogCutoff(1e-2)
    assert cut(1.0) == 1.0
    assert cut(0.5e-4) == 0.0  # eps^2 / 2
    assert cut(2e-2) == 1.0
    assert 0.0 < cut(1e-3) < 1.0


def test_log_cutoff_dirichlet_bound():
    values = []
    for eps in (1e-2, 1e-3, 1e-4):
        cut = sv.LogCutoff(eps)
        bound = 2.2 * np.pi / abs(np.log(eps))
        assert cut.dirichlet_integral <= bound
        values.append(cut.dirichlet_integral)
    assert values[0] > values[1] > values[2]


def test_log_cutoff_dirichlet_quadrature_oracle():
    # independent check of the closed-form Dirichlet integral by dense
    # trapezoid quadrature in the log radial variable
    for eps in (1e-2, 1e-3):
        cut = sv.LogCutoff(eps)
        s = np.linspace(2.0 * np.log(eps), np.log(eps), 20001)
        r = np.exp(s)
        integrand = cut.derivative(r) ** 2 * r**2  # |grad|^2 r dr = (.) e^{2s} ds
        val = 2.0 * np.pi * np.trapezoid(integrand, s)
        assert abs(val - cut.dirichlet_integral) < 1e-6 * cut.dirichlet_integral


def test_log_cutoff_derivative_bound(grid):
    radii = np.concatenate([grid.r, np.geomspace(1e-9, 1.0, 4001)])
    for eps in (1e-2, 1e-3, 1e-4):
        cut = sv.LogCutoff(eps)
        assert cut.derivative_bound_factor(radii) <= 1.1


def test_log_cutoff_range_errors():
    with pytest.raises(ValueError):
        sv.LogCutoff(0.5)  # >= 1/e
    with pytest.raises(ValueError):
        sv.LogCutoff(0.0)


def test_cutoff_stability_transfer(grid, maps, weak):
    basis = sv.admissible_basis(maps["f4"], weak, 8)
    V = basis[4]
    records = sv.cutoff_stability_check(maps["f4"], weak, V, [1e-2, 1e-3, 1e-4])
    for rec in records:
        assert rec["value"] >= rec["lower_bound"]
    # the correction must vanish as eps -> 0
    gaps = [abs(rec["value"] - rec["base"]) for rec in records]
    assert gaps[2] <= gaps[0] + 1e-12
