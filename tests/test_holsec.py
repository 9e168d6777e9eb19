import numpy as np
import pytest

from dbardisk import secondvar as sv
from dbardisk.diskmap import DiskGrid, DiskMap, make_map
from dbardisk.errors import Refusal, ResolutionError, VacuousCertificateError
from dbardisk.geometry import apply_j, hermitian
from dbardisk.holsec import build_U, certify_index, dbar_kernel_dimension


# ---------------------------------------------------------------------------
# kernel of the dbar boundary problem


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_dimension_flat(n):
    assert dbar_kernel_dimension(n, degree=6) == 2 * n


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernel_dimension_stable_under_doubling(n):
    assert dbar_kernel_dimension(n, degree=12) == 2 * n


def test_kernel_dimension_resolution_guard():
    with pytest.raises(ResolutionError):
        dbar_kernel_dimension(2, degree=0)
    with pytest.raises(ResolutionError):
        dbar_kernel_dimension(2, degree=6, n_boundary=10)


def test_kernel_operator_with_connection():
    # a nonzero connection couples the components; the assembler must
    # accept it and the flat count must drop (constants are no longer
    # solutions of dbar f + a f = 0 with a real boundary condition)
    conn = {(0, 0): {(0, 0): 1.0}}
    dim = dbar_kernel_dimension(1, degree=6, connection=conn)
    assert 0 <= dim < 2


def test_kernel_singular_value_gap():
    kdim, svals = dbar_kernel_dimension(2, degree=6, return_details=True)
    assert kdim == 4
    # clean separation between the kernel and the rest of the spectrum
    assert svals[-5] > 1e-4 * svals[0]
    assert svals[-4] < 1e-10 * svals[0]


# ---------------------------------------------------------------------------
# U sections


@pytest.mark.parametrize("case", ["f3-ball4", "synthetic-c3"])
def test_sections_are_type_10(case, maps, synthetic_c3):
    # U_j is a combination of the constant vectors V_j = e_{x_j} - i e_{y_j},
    # so J U_j = i U_j holds exactly on the grid and on the boundary
    f = maps["f3"] if case == "f3-ball4" else synthetic_c3[1]
    us = build_U(f)
    assert len(us.sections) == f.n - 1
    for U in us.sections:
        assert np.array_equal(apply_j(U.values), 1j * U.values)
        assert np.array_equal(apply_j(U.boundary), 1j * U.boundary)


def test_build_u_f3(maps):
    us = build_U(maps["f3"])
    assert us.pivot == 0  # f_zbar of f3 points along the z1 direction
    assert len(us.sections) == 1
    # the single section is the z2-direction (1,0) vector
    g = maps["f3"].derivatives().boundary_f_zbar
    assert np.max(np.abs(hermitian(us.sections[0].boundary, g))) < 1e-10
    assert us.dbar_coefficient_sup < 1e-8
    assert us.min_boundary_norm > 1.0


def test_build_u_refuses_holomorphic(maps):
    with pytest.raises(VacuousCertificateError):
        build_U(maps["f2"])


def test_build_u_sections_independent(synthetic_c3):
    dom, f = synthetic_c3
    us = build_U(f)
    assert len(us.sections) == 2
    # stack boundary values at a few nodes: the sections span rank n-1
    for m in (0, 7, 31):
        mat = np.stack([u.boundary[m] for u in us.sections])
        assert np.linalg.matrix_rank(mat) == 2


# ---------------------------------------------------------------------------
# certificates


GOLDEN_BALL_VALUE = -4.0 * np.pi  # pinned from the fd oracle, see below


def test_certificate_f3_ball(grid, maps, ball):
    cert = certify_index(maps["f3"], ball, k=1)
    assert cert.mode == "pc"
    assert cert.certified_bound == 1  # n - 1
    assert cert.values[0] < -0.1
    assert abs(cert.values[0] - GOLDEN_BALL_VALUE) < 1e-8
    assert cert.diagnostics["negative_direction_found"]
    assert cert.diagnostics["complex_vs_real_gap"] < 1e-6


def test_certificate_value_matches_fd_oracle(grid, maps, ball):
    # I(U, U) = I(Re U, Re U) + I(Im U, Im U); both sides measured by the
    # finite-difference oracle along hypersurface families
    cert = certify_index(maps["f3"], ball, k=1)
    us = build_U(maps["f3"])
    total = 0.0
    for part in (us.sections[0].real_part, us.sections[0].imag_part):
        fam = sv.hypersurface_family(maps["f3"], part, ball)
        total += sv.fd_second_variation(fam, df=ball, h=0.02).value
    assert abs(total - cert.values[0]) < 1e-4 * abs(cert.values[0])


def test_certificate_refuses_weak_domain(grid, maps, weak):
    with pytest.raises(Refusal):
        certify_index(maps["f4"], weak, k=1)


def test_certificate_refuses_noncritical(grid, maps, cylinder):
    with pytest.raises(Refusal):
        certify_index(maps["f1"], cylinder, k=1)


def test_certificate_refuses_holomorphic(grid, maps, cylinder):
    with pytest.raises(VacuousCertificateError):
        certify_index(maps["f2"], cylinder, k=1)


def test_certificate_synthetic_c3_kpc(synthetic_c3):
    dom, f = synthetic_c3
    with pytest.raises(Refusal):
        certify_index(f, dom, k=1)  # not strictly pseudoconvex
    cert = certify_index(f, dom, k=2)
    assert cert.mode == "kpc"
    assert cert.certified_bound == 1  # n - k = 3 - 2
    assert np.allclose(sorted(cert.values), [-12.0 * np.pi, 4.0 * np.pi], atol=1e-8)
    # one section alone is not a negative direction; the pair sum is
    assert sum(cert.values) < 0


@pytest.mark.parametrize("case", ["ball-c2", "ball-c3", "ball-c4", "synthetic-c3-k2"])
def test_certificate_consistent_with_gram(grid, conj_ball, synthetic_c3, case):
    # the paper's two routes to the Morse index: the bound certified from
    # the sections U_j never exceeds the negative count of the Gram matrix
    # over a basis holding their real and imaginary parts (sampled fields,
    # so the factored fields beside them go through the generic path too)
    if case == "synthetic-c3-k2":
        (dom, f), k = synthetic_c3, 2
    else:
        (dom, f), k = conj_ball(int(case[-1]), grid), 1
    cert = certify_index(f, dom, k=k)
    fields = [part for U in build_U(f).sections for part in (U.real_part, U.imag_part)]
    fields += sv.admissible_basis(f, dom, 20)
    gs = sv.assemble_gram(f, dom, fields)
    assert cert.certified_bound == f.n - k
    assert gs.negative_count >= cert.certified_bound


def test_certificate_complex_real_identity(synthetic_c3):
    dom, f = synthetic_c3
    cert = certify_index(f, dom, k=2)
    for value, (rr, ri) in zip(cert.values, cert.real_crosscheck):
        assert abs(value - (rr + ri)) < 1e-6 * max(1.0, abs(value))


@pytest.mark.parametrize("phi", [lambda r: r**2, lambda r: 2.0 - r**2],
                         ids=["r2", "2-r2"])
def test_complex_index_form_interior_term(grid, maps, ball, phi):
    # phi U keeps the boundary of U (phi(1) = 1) but has a nonzero dbar:
    # 1/2 int |(phi U)_r + i (phi U)_theta / r|^2 = 1/2 int 4 r^2 |U|^2 = 2 pi
    # moves the value from -4 pi to -2 pi, and the Hermitian form must still
    # split into the real forms of the real and imaginary parts
    U = build_U(maps["f3"]).sections[0]
    W = sv.VariationField(grid, 2, phi(grid.r)[:, None, None] * U.values,
                          U.boundary.copy(), label="phi-U")
    value = sv.index_form_complex(maps["f3"], ball, W)
    split = (sv.index_form_real(maps["f3"], ball, W.real_part)
             + sv.index_form_real(maps["f3"], ball, W.imag_part))
    assert abs(value - split) <= 1e-10 * abs(value)
    assert abs(value + 2.0 * np.pi) < 1e-8


def test_pairing_coefficients_holomorphic(maps, synthetic_c3):
    # theta -> <<V_j, f_zbar>> extends holomorphically when f is harmonic
    us = build_U(maps["f3"])
    assert us.dbar_coefficient_sup < 1e-8
    dom, f = synthetic_c3
    us = build_U(f)
    assert us.dbar_coefficient_sup < 1e-8


def test_certify_sampled_map_on_a_fine_grid(ball):
    # spectral noise at the centre and the rim stays out of the dbar check
    f = make_map("f3", DiskGrid(128, 256)).rotated(37)
    cert = certify_index(f, ball)
    assert abs(cert.values[0] + 4.0 * np.pi) < 1e-8
    assert cert.diagnostics["pairing_dbar_sup"] < 1e-8


def test_dbar_check_sees_a_non_harmonic_perturbation(ball):
    grid = DiskGrid(128, 256)
    f = make_map("f3", grid).rotated(37)
    values = f.values.copy()
    values[..., 0] += 1e-6 * grid.r[:, None] ** 2
    boundary = f.boundary.copy()
    boundary[:, 0] += 1e-6
    g = DiskMap(grid, 2, values, boundary, analytic=None)
    assert build_U(g).dbar_coefficient_sup > 1e-8
