import os
import sys
import tracemalloc

import numpy as np
import pytest

from dbardisk import holsec
from dbardisk import secondvar as sv
from dbardisk.diskmap import DiskGrid, DiskMap, make_map
from dbardisk.errors import Refusal, ResolutionError, VacuousCertificateError
from dbardisk.geometry import apply_j, hermitian, make_domain
from dbardisk.holsec import build_U, certify_index, dbar_kernel_dimension

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded connections)
from conftest import ball_spec  # noqa: E402


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


def _dense_kernel(n, degree=6, n_boundary=None, connection=None,
                  svd_threshold=1e-8):
    """The kernel as one dense SVD of the whole real operator: every
    component, every monomial and every collocated boundary row."""
    if n_boundary is None:
        n_boundary = 4 * degree + 8
    dim = 2 * n
    monos = [(p, tot - p) for tot in range(degree + 1) for p in range(tot + 1)]
    n_mono = len(monos)
    conn = connection or {}
    deg_a = max((p + q for poly in conn.values() for p, q in poly), default=0)
    out_monos = [(p, tot - p) for tot in range(degree + deg_a + 1)
                 for p in range(tot + 1)]
    out_index = {pq: a for a, pq in enumerate(out_monos)}

    def scale(p, q):
        return np.sqrt((p + q + 1) / np.pi)

    a_c = np.zeros((dim * len(out_monos), dim * n_mono), dtype=complex)
    for i in range(dim):
        for a, (p, q) in enumerate(monos):
            if q >= 1:
                a_c[i * len(out_monos) + out_index[(p, q - 1)], i * n_mono + a] += (
                    q / scale(p, q))
    for (j, i), poly in conn.items():
        for a, (p, q) in enumerate(monos):
            for (pa, qa), c in poly.items():
                a_c[i * len(out_monos) + out_index[(p + pa, q + qa)], j * n_mono + a] += (
                    c / scale(p, q))
    zb = np.exp(2j * np.pi * np.arange(n_boundary) / n_boundary)
    b_c = np.zeros((dim * n_boundary, dim * n_mono), dtype=complex)
    for i in range(dim):
        for a, (p, q) in enumerate(monos):
            rows = i * n_boundary + np.arange(n_boundary)
            b_c[rows, i * n_mono + a] = zb ** (p - q) / scale(p, q)
    top = np.block([[a_c.real, -a_c.imag], [a_c.imag, a_c.real]])
    bnd = np.sqrt(2.0 * np.pi / n_boundary) * np.block([[b_c.imag, b_c.real]])
    full = np.vstack([top, bnd])
    svals = np.linalg.svd(full, compute_uv=False)
    return full.shape[1] - int(np.sum(svals > svd_threshold * svals[0])), svals


LINEAR = {(0, 0): 0.3 - 0.2j, (1, 0): 0.1j, (0, 1): -0.25}
ORACLE_CASES = {
    "flat-n1": (1, 6, {}),
    "flat-n2": (2, 9, {}),
    "flat-n3": (3, 10, {}),
    "self-loop": (1, 6, {"connection": {(0, 0): {(0, 0): 1.0}}}),
    "two-groups": (3, 7, {"connection": {(0, 1): LINEAR, (2, 0): {(0, 0): 0.5},
                                         (3, 4): LINEAR}}),
    "fully-joined": (2, 8, {"connection": {(0, 1): LINEAR, (1, 2): LINEAR,
                                           (2, 3): {(1, 0): 0.4}, (3, 3): LINEAR}}),
    "degree-2-term": (2, 6, {"connection": {(1, 0): {(2, 0): 0.3 + 0.1j, (1, 1): -0.2,
                                                     (0, 2): 0.05j}}}),
    "n-boundary": (2, 6, {"connection": {(3, 1): LINEAR}}),
    # a loose threshold cuts whole flat blocks: only the global sigma_0 agrees
    "loose-threshold": (2, 6, {"svd_threshold": 0.3, "connection": {(0, 1): LINEAR}}),
}
# the dense operator collocated at the fewest angles that suffice, 4 degree + 4
DENSE_ONLY = {"n-boundary": {"n_boundary": 28}}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_kernel_matches_dense_assembly(case):
    n, degree, kwargs = ORACLE_CASES[case]
    kdim, svals = dbar_kernel_dimension(n, degree=degree, return_details=True, **kwargs)
    kdim_dense, svals_dense = _dense_kernel(n, degree=degree, **kwargs,
                                            **DENSE_ONLY.get(case, {}))
    assert kdim == kdim_dense
    assert svals.shape == svals_dense.shape == (2 * 2 * n * (degree + 1) * (degree + 2) // 2,)
    assert np.all(np.diff(svals) <= 0)
    assert np.max(np.abs(svals - svals_dense)) <= 1e-12 * svals_dense[0]


def _solver_shapes(monkeypatch, *args, **kwargs):
    """Shapes of the matrices passed to np.linalg.svd and to
    np.linalg.eigvalsh by one kernel call."""
    shapes = {"svd": [], "eigvalsh": []}

    def spy(name):
        solver = getattr(np.linalg, name)

        def call(a, *solver_args, **solver_kwargs):
            shapes[name].append(a.shape)
            return solver(a, *solver_args, **solver_kwargs)

        return call

    for name in shapes:
        monkeypatch.setattr(np.linalg, name, spy(name))
    dbar_kernel_dimension(*args, **kwargs)
    monkeypatch.undo()
    return shapes


def test_kernel_takes_block_svds(monkeypatch):
    # flat components split by |p - q|: no block wider than 4 (d + 1)
    degree = 13
    shapes = _solver_shapes(monkeypatch, 3, degree=degree)
    assert shapes["svd"] and max(w for _, w in shapes["svd"]) <= 4 * (degree + 1)
    assert shapes["eigvalsh"] == []
    # the touched components 0-4 (two independent groups) form one
    # eigenvalue problem together, as wide as they are (real and imaginary
    # parts of every monomial); the flat component 5 keeps its blocks of
    # 2 * 28 + 13 rows, which hold each of its 2 * 28 unknowns once; the
    # Ritz pass adds one thin SVD per inverse iteration, two here, on the
    # near-kernel of the coupled block (one real constant per component)
    n_mono, flat_rows = 28, 2 * 28 + 13
    conn = {(0, 1): LINEAR, (2, 1): LINEAR, (3, 4): LINEAR}
    small = {key: {pq: 1e-3 * c for pq, c in poly.items()} for key, poly in conn.items()}
    for connection in (conn, small):
        shapes = _solver_shapes(monkeypatch, 3, degree=6, connection=connection)
        assert shapes["eigvalsh"] == [(2 * 5 * n_mono, 2 * 5 * n_mono)]
        flat = [w for rows, w in shapes["svd"] if rows == flat_rows]
        ritz = [w for rows, w in shapes["svd"] if rows != flat_rows]
        assert max(flat) <= 4 * 7 and sum(flat) == 2 * n_mono
        assert ritz == [5, 5]


def _realify(c):
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def _one_band(a, bnd):
    """The real operator [realify(a); bnd] as (row, col, val) triples, every
    column in band 0."""
    full = np.vstack([_realify(a), bnd])
    row, col = np.nonzero(full)
    return row, col, full[row, col], np.zeros(full.shape[1], dtype=int)


def _synthetic_operator(complex_svals, real_svals, seed, mix=True):
    """A complex interior block a and a real boundary block bnd whose real
    operator [realify(a); bnd] has the singular values complex_svals (each
    twice, as realify doubles them) and real_svals: a acts on the complex
    span of some columns of a unitary W and bnd on the real span of the
    others. Without mix, W is the identity, so a zero value leaves a zero
    column and the Gram matrix is exactly singular."""
    rng = np.random.default_rng(seed)
    s_a, s_b = np.asarray(complex_svals, float), np.asarray(real_svals, float)
    k1, k2 = s_a.size, s_b.size // 2
    n = k1 + k2

    def unitary(rows, cols, complex_=True):
        x = rng.standard_normal((rows, cols))
        if complex_:
            x = x + 1j * rng.standard_normal((rows, cols))
        return np.linalg.qr(x)[0]

    w = unitary(n, n) if mix else np.eye(n)
    a = (unitary(k1 + 3, k1) * s_a) @ w[:, :k1].conj().T
    w2 = w[:, k1:]
    basis = np.hstack([np.vstack([w2.real, w2.imag]), np.vstack([-w2.imag, w2.real])])
    bnd = (unitary(2 * k2 + 5, 2 * k2, complex_=False) * s_b) @ basis.T
    return a, bnd


SPREAD = np.geomspace(1e-1, 1e-14, 30)
CUT = holsec.REFINE_CUT
SYNTHETIC_SPECTRA = {
    # exact zeros: zero columns, a singular Gram matrix
    "exact-zeros": ([1.0, 0.5, 0.0, 0.0, 1e-3, 0.0], [0.7, 0.0, 0.0, 1e-12], False),
    "spread": (np.concatenate([[1.0], SPREAD[::2]]), np.append(SPREAD[1::2], 0.2), True),
    "cluster-at-refine-cut": (np.concatenate([[1.0], CUT * np.geomspace(0.5, 2.0, 9),
                                              [1e-13, 0.0]]),
                              CUT * np.geomspace(0.6, 1.7, 8), True),
    "cluster-at-guard-edge": (np.concatenate([[1.0, 1e-9], CUT * holsec.GUARD
                                              * np.geomspace(0.7, 1.4, 7)]),
                              np.concatenate([[0.3, 1e-11],
                                              CUT * np.geomspace(0.9, 1.1, 6)]), True),
}


@pytest.mark.parametrize("case", sorted(SYNTHETIC_SPECTRA))
@pytest.mark.parametrize("seed", [0, 1])
def test_operator_spectrum_matches_dense_svd(case, seed):
    complex_svals, real_svals, mix = SYNTHETIC_SPECTRA[case]
    a, bnd = _synthetic_operator(complex_svals, real_svals, seed, mix=mix)
    svals = holsec._operator_spectrum(*_one_band(a, bnd))
    dense = np.linalg.svd(np.vstack([_realify(a), bnd]), compute_uv=False)
    expect = np.sort(np.concatenate([complex_svals, complex_svals, real_svals]))[::-1]
    assert svals.shape == dense.shape == expect.shape
    assert np.all(np.diff(svals) <= 0)
    assert np.max(np.abs(svals - dense)) <= 1e-12 * dense[0]
    assert np.max(np.abs(svals - expect)) <= 1e-12 * expect[0]
    assert np.sum(svals > 1e-8 * svals[0]) == np.sum(dense > 1e-8 * dense[0])


def test_operator_spectrum_refines_the_near_kernel():
    # below the cut sqrt(lambda) of the Gram eigenvalues is only good to
    # about 1e-8 sigma_0; the Ritz values resolve what lies beneath it
    a, bnd = _synthetic_operator([1.0, 3e-10, 2e-13], [0.4, 5e-12], seed=2)
    svals = holsec._operator_spectrum(*_one_band(a, bnd))
    expect = [3e-10, 3e-10, 5e-12, 2e-13, 2e-13]
    assert np.max(np.abs(svals[-5:] - expect)) <= 1e-14


@pytest.mark.parametrize("n,degree,seed", [(1, 16, 0), (1, 16, 1), (1, 16, 2),
                                            (2, 11, 0), (2, 11, 1), (2, 11, 2),
                                            (3, 13, 0)])
def test_connected_rungs_match_dense_assembly(n, degree, seed):
    conn = workloads.seeded_connection(np.random.default_rng(seed), n)
    kdim, svals = dbar_kernel_dimension(n, degree=degree, connection=conn,
                                        return_details=True)
    kdim_dense, svals_dense = _dense_kernel(n, degree=degree, connection=conn)
    assert kdim == kdim_dense == 2 * n
    assert np.max(np.abs(svals - svals_dense)) <= 1e-12 * svals_dense[0]


def test_connected_spectrum_is_deterministic():
    conn = workloads.seeded_connection(np.random.default_rng(4), 2)
    first = dbar_kernel_dimension(2, degree=11, connection=conn, return_details=True)[1]
    again = dbar_kernel_dimension(2, degree=11, connection=conn, return_details=True)[1]
    assert np.array_equal(first, again)


def test_connected_kernel_memory():
    # one dense SVD of the whole real operator (1602 x 1260 at n = 3,
    # degree 13) peaked at 37.8 MiB and the Gram matrix of the dense A and
    # B at 33.6 MiB; from the triples the call peaks at 14.9 MiB, the Gram
    # matrix (12.1 MiB) and its row pairs
    conn = workloads.seeded_connection(np.random.default_rng(0), 3)
    tracemalloc.start()
    try:
        assert dbar_kernel_dimension(3, degree=13, connection=conn) == 6
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 17.0 * 2**20


def test_connected_block_forms_no_dense_operator(monkeypatch):
    # at n = 3, degree 13 the dense complex interior block A (720 x 630)
    # takes 6.9 MiB and A^H A 6.1 MiB. Besides the Gram matrix the call
    # holds only the triples and their row pairs until the eigensolve, and
    # only the band couplings after it
    conn = workloads.seeded_connection(np.random.default_rng(0), 3)
    eigvalsh, seen = np.linalg.eigvalsh, {}

    def spy(a, *args, **kwargs):
        seen["live"], seen["assembly"] = tracemalloc.get_traced_memory()
        seen["gram"] = a.nbytes
        tracemalloc.reset_peak()
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    tracemalloc.start()
    try:
        dbar_kernel_dimension(3, degree=13, connection=conn)
        ritz = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mib = 2**20
    assert seen["gram"] == 8 * 1260**2
    assert seen["live"] - seen["gram"] <= 1 * mib
    assert seen["assembly"] - seen["gram"] <= 4 * mib
    assert ritz - seen["gram"] <= 4 * mib


def _connected_operator(n, degree, connection):
    """The triples and bands of the block the connection touches, or of one
    flat component."""
    conn = holsec._checked_connection(connection, 2 * n)
    comps = sorted({c for key in conn for c in key}) or [0]
    return holsec._real_operator(comps, conn, degree)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_gram_is_block_tridiagonal_over_bands(case):
    n, degree, kwargs = ORACLE_CASES[case]
    row, col, val, band = _connected_operator(n, degree, kwargs.get("connection"))
    gram = holsec._gram(row, col, val, band.size)
    dense = np.zeros((row.max() + 1, band.size))
    np.add.at(dense, (row, col), val)
    assert np.allclose(gram, dense.T @ dense, rtol=0.0, atol=1e-13 * np.max(gram))
    far = np.abs(band[:, None] - band[None, :]) > 1
    assert np.all(gram[far] == 0.0)


def test_band_solves_are_no_wider_than_a_band(monkeypatch):
    conn = workloads.seeded_connection(np.random.default_rng(1), 3)
    band = _connected_operator(3, 13, conn)[3]
    widest = int(np.max(np.bincount(band)))
    assert widest < band.size // 4
    solve, widths = np.linalg.solve, []

    def spy(a, b):
        widths.append(a.shape[0])
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    assert dbar_kernel_dimension(3, degree=13, connection=conn) == 6
    assert widths and max(widths) <= widest


# terms that move the frequency by 5 and by -4: bands of 5 and 9 frequencies
WIDE_SPREAD = {
    "spread-5": {(0, 1): {(5, 0): 0.3, (0, 0): 0.2j}, (1, 0): {(1, 0): -0.4}},
    "spread-5-down": {(1, 1): {(0, 4): 0.4 - 0.1j, (1, 0): -0.1}},
    "spread-9": {(0, 1): {(5, 0): 0.2 - 0.1j, (0, 4): 0.3}, (3, 0): {(0, 0): 0.5}},
}


@pytest.mark.parametrize("case", sorted(WIDE_SPREAD))
def test_wide_spread_connections_match_dense_assembly(case):
    conn = WIDE_SPREAD[case]
    kdim, svals = dbar_kernel_dimension(2, degree=9, connection=conn, return_details=True)
    kdim_dense, svals_dense = _dense_kernel(2, degree=9, connection=conn)
    assert kdim == kdim_dense
    assert np.max(np.abs(svals - svals_dense)) <= 1e-12 * svals_dense[0]
    tail = svals_dense < holsec.REFINE_CUT * svals_dense[0]
    assert np.max(np.abs(svals[tail] - svals_dense[tail])) <= 1e-14 * svals_dense[0]


MALFORMED_KERNEL_INPUTS = {
    "connection-not-a-dict": {"connection": [((0, 1), {(0, 0): 1.0})]},
    "connection-empty-list": {"connection": []},
    "connection-zero": {"connection": 0},
    "connection-empty-string": {"connection": ""},
    "connection-false": {"connection": False},
    "key-negative-source": {"connection": {(-1, 0): {(0, 0): 1.0}}},
    "key-negative-target": {"connection": {(0, -2): {(0, 0): 1.0}}},
    "key-out-of-range": {"connection": {(0, 2): {(0, 0): 1.0}}},
    "key-float": {"connection": {(0, 1.0): {(0, 0): 1.0}}},
    "key-not-a-pair": {"connection": {0: {(0, 0): 1.0}}},
    "entry-not-a-dict": {"connection": {(0, 1): [1.0]}},
    "exponent-negative": {"connection": {(0, 1): {(-1, 0): 1.0}}},
    "exponent-float": {"connection": {(0, 1): {(0, 0.5): 1.0}}},
    "coefficient-nan": {"connection": {(0, 1): {(0, 0): float("nan")}}},
    "coefficient-inf": {"connection": {(0, 1): {(0, 0): complex(0.0, float("inf"))}}},
    "coefficient-string": {"connection": {(0, 1): {(0, 0): "1"}}},
    "n-zero": {"n": 0},
    "n-float": {"n": 1.0},
    "n-bool": {"n": True},
    "degree-float": {"degree": 6.0},
    "threshold-zero": {"svd_threshold": 0.0},
    "threshold-one": {"svd_threshold": 1.0},
    "threshold-nan": {"svd_threshold": float("nan")},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_KERNEL_INPUTS))
def test_kernel_rejects_malformed_inputs(name):
    kwargs = {"n": 1, "degree": 6, **MALFORMED_KERNEL_INPUTS[name]}
    with pytest.raises(ValueError) as err:
        dbar_kernel_dimension(kwargs.pop("n"), **kwargs)
    if isinstance(kwargs.get("connection"), dict):
        assert repr(next(iter(kwargs["connection"]))) in str(err.value)


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


# (coefficients a_k, grid, rotation steps) of (a_1 zbar^2, ..., a_n zbar^2)
# with |a| = 1 in the unit ball of C^n: critical with lambda = 4, and its
# pairing coefficients are not constant; a rotation gives a sampled copy
ZBAR2_CASES = {
    "ball4": ([1.0, 0.0], (32, 64), 0),
    "ball6": ([np.exp(0.3j), 0.0, 0.0], (48, 256), 0),
    "ball6-rotated": ([np.exp(0.3j), 0.0, 0.0], (48, 256), 37),
    "ball6-tilted": ([0.6, 0.8j, 0.0], (48, 256), 0),
}


@pytest.mark.parametrize("case", sorted(ZBAR2_CASES))
def test_sections_match_their_dense_copies(case):
    # a section forms its values on each read and takes the interior terms
    # of its index forms from the coefficients c_k; a dense copy of the same
    # samples takes them from VariationField.gradients()
    a, shape, steps = ZBAR2_CASES[case]
    n, grid = len(a), DiskGrid(*shape)
    spec = {"n": n, "name": "zbar2", "coords": [
        [{"zp": 0, "zq": 2, "re": c.real, "im": c.imag}] if c else [] for c in map(complex, a)]}
    f = make_map(spec, grid)
    f = f.rotated(steps) if steps else f
    df = make_domain(ball_spec(n))
    us = build_U(f)
    g = f.derivatives().f_zbar
    coeff = g[..., :n] - 1j * g[..., n:]
    vec = np.hstack([np.eye(n), -1j * np.eye(n)])
    p = us.pivot
    for j, U in zip([j for j in range(n) if j != p], us.sections):
        # the broadcast U_j = c_p V_j - c_j V_p, bit for bit apart from the
        # sign of zeros
        got = U.values.view(float)
        want = (coeff[..., p, None] * vec[j] - coeff[..., j, None] * vec[p]).view(float)
        assert not U.values.flags.writeable
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.array_equal(got[want != 0.0].view(np.uint64),
                              want[want != 0.0].view(np.uint64))
        dense = sv.VariationField(grid, n, U.values.copy(), U.boundary.copy())
        pairs = [(sv.index_form_complex(f, df, U), sv.index_form_complex(f, df, dense))]
        pairs += [(sv.index_form_real(f, df, a), sv.index_form_real(f, df, b))
                  for a, b in ((U.real_part, dense.real_part), (U.imag_part, dense.imag_part))]
        for value, reference in pairs:
            assert abs(value - reference) <= 2e-14 * abs(reference)


def test_certificate_memory(conj_ball, monkeypatch):
    # with dense sections and their gradients a certificate at n = 4, 32x512
    # peaked at 22-23 MiB; from the coefficients it forms no field gradient
    # and peaks at 11.2 MiB
    dom, f = conj_ball(4, DiskGrid(32, 512))

    def no_gradients(V):
        raise AssertionError(f"gradients of {V.label}")

    monkeypatch.setattr(sv.VariationField, "gradients", no_gradients)
    tracemalloc.start()
    try:
        assert certify_index(f, dom).certified_bound == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 15.0 * 2**20
