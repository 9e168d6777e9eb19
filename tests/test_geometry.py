import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbardisk.errors import (
    ConstraintViolationError,
    DegenerateBoundaryError,
    EvaluationError,
    InvalidSubspaceError,
)
from dbardisk.geometry import (
    DefiningFunction,
    PolynomialRho,
    apply_j,
    boundary_data,
    classify_pseudoconvexity,
    complex_hessian,
    from_complex_coords,
    make_domain,
)
from conftest import HUGE_EXPONENT_DOMAIN, SYNTHETIC_C3_DOMAIN


# ---------------------------------------------------------------------------
# complex structure


@given(st.integers(0, 10**6))
def test_j_squared_is_minus_identity(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2 * rng.integers(1, 5))
    assert np.allclose(apply_j(apply_j(v)), -v, atol=1e-15)


@given(st.integers(0, 10**6))
def test_j_is_an_isometry(seed):
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 5)
    u = rng.normal(size=2 * n)
    v = rng.normal(size=2 * n)
    assert np.isclose(apply_j(u) @ apply_j(v), u @ v, atol=1e-12)


# ---------------------------------------------------------------------------
# complex Hessian


def test_complex_hessian_unit_ball(ball):
    # rho = |z|^2 - 1: d^2 rho / dz_j dzbar_k = delta_jk
    p = np.array([0.3, -0.2, 0.5, 0.1])
    lev = complex_hessian(ball, p)
    assert np.allclose(lev, np.eye(2), atol=1e-13)


def test_complex_hessian_real_quadric():
    # rho = x1^2 + x2^2 - 1: x_j = (z_j + zbar_j)/2 gives 1/2 on the diagonal
    df = make_domain("cylinder_x")
    lev = complex_hessian(df, np.array([0.9, 0.1, 0.4, -0.3]))
    assert np.allclose(lev, 0.5 * np.eye(2), atol=1e-13)


def test_complex_hessian_rank_one(weak):
    # rho = |z1 + i z2|^2 - 1
    lev = complex_hessian(weak, np.array([1.0, 0.0, 0.0, 0.0]))
    expected = np.array([[1.0, -1.0j], [1.0j, 1.0]])
    assert np.allclose(lev, expected, atol=1e-13)
    eigs = np.linalg.eigvalsh(lev)
    assert np.allclose(eigs, [0.0, 2.0], atol=1e-13)


def test_complex_hessian_is_hermitian(rng):
    df = make_domain(SYNTHETIC_C3_DOMAIN)
    for _ in range(5):
        p = rng.normal(size=6)
        lev = complex_hessian(df, p)
        assert np.max(np.abs(lev - lev.conj().T)) < 1e-14


def test_complex_hessian_nonfinite_entries():
    def bad_hess(p):
        h = np.zeros((4, 4))
        h[1, 2] = np.nan
        return h

    df = DefiningFunction(n=2, rho=lambda p: 0.0, grad=lambda p: np.ones(4),
                          hess=bad_hess)
    with pytest.raises(EvaluationError) as err:
        complex_hessian(df, np.zeros(4))
    assert err.value.coordinate is not None


# ---------------------------------------------------------------------------
# boundary data


def test_boundary_data_unit_ball(ball):
    bd = boundary_data(ball, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(bd.nu, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert bd.wp_basis.shape == (2, 1)
    assert np.allclose(bd.levi, [[1.0]], atol=1e-13)


def test_boundary_data_cylinder(cylinder):
    bd = boundary_data(cylinder, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(bd.nu, [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.linalg.eigvalsh(bd.levi)[0] > 0


def test_boundary_data_weak_kernel_direction(weak):
    # image point of the flat critical disk in the weak domain
    theta = 0.7
    p = np.array([np.cos(theta), -np.sin(theta), 0.0, 0.0])
    bd = boundary_data(weak, p)
    eigs = np.linalg.eigvalsh(bd.levi)
    assert abs(eigs[0]) < 1e-12


def test_boundary_data_invariants(ball, weak, rng):
    for df in (ball, weak):
        for _ in range(4):
            theta = rng.uniform(0, 2 * np.pi)
            if df is ball:
                p = np.array([np.cos(theta), 0.0, -np.sin(theta), 0.0])
            else:
                p = np.array([np.cos(theta), -np.sin(theta), 0.0, 0.0])
            bd = boundary_data(df, p)
            assert abs(np.linalg.norm(bd.nu) - 1.0) < 1e-14
            assert np.max(np.abs(bd.levi - bd.levi.conj().T)) < 1e-12
            for col in bd.wp_basis.T:
                w = from_complex_coords(col)
                assert abs(bd.nu @ w) < 1e-12
                assert abs(bd.nu @ apply_j(w)) < 1e-12


def test_boundary_data_off_surface(ball):
    with pytest.raises(ConstraintViolationError):
        boundary_data(ball, np.array([2.0, 0.0, 0.0, 0.0]))


def test_boundary_data_degenerate_gradient():
    df = DefiningFunction(n=2, rho=lambda p: 0.0, grad=lambda p: np.zeros(4),
                          hess=lambda p: np.eye(4))
    with pytest.raises(DegenerateBoundaryError):
        boundary_data(df, np.zeros(4))


def test_rescaling_invariance(ball):
    c = 7.25
    scaled = DefiningFunction(
        n=2,
        rho=lambda p: c * ball.rho(p),
        grad=lambda p: c * ball.grad(p),
        hess=lambda p: c * ball.hess(p),
    )
    p = np.array([0.6, 0.0, -0.8, 0.0])
    bd1 = boundary_data(ball, p)
    bd2 = boundary_data(scaled, p)
    assert np.max(np.abs(bd1.nu - bd2.nu)) < 1e-12
    assert np.max(np.abs(bd1.levi - bd2.levi)) < 1e-12


@pytest.mark.parametrize("spec", ["ball4", "weak_rank_one", SYNTHETIC_C3_DOMAIN])
def test_boundary_data_batched_equals_single_points(spec, rng):
    df = make_domain(spec)
    # random points pulled onto {rho = 0} by Newton steps along grad rho; on
    # the ball and the C^3 domain the pivot of the tangent basis changes
    # from point to point
    p = rng.normal(size=(40, 2 * df.n))
    for _ in range(12):
        g = df.grad(p)
        p = p - (df.rho(p) / np.sum(g * g, axis=-1))[:, None] * g
    batched = boundary_data(df, p)
    singles = [boundary_data(df, q) for q in p]
    for name in ("point", "nu", "wp_basis", "levi", "grad_norm", "hess"):
        stacked = np.stack([getattr(bd, name) for bd in singles])
        got = getattr(batched, name)
        assert got.shape == stacked.shape, name
        assert np.max(np.abs(got - stacked)) <= 1e-15, name


def test_boundary_data_names_the_failing_node(ball):
    p = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    with pytest.raises(ConstraintViolationError) as err:
        boundary_data(ball, p)
    assert err.value.worst_node == 2
    assert err.value.worst_value == 3.0
    flat_at = DefiningFunction(
        n=2, rho=ball.rho, hess=ball.hess,
        grad=lambda q: ball.grad(q) * (np.arange(len(q)) != 1)[:, None],
    )
    with pytest.raises(DegenerateBoundaryError, match="at node 1"):
        boundary_data(flat_at, p[:2])


# ---------------------------------------------------------------------------
# batched PolynomialRho against the per-monomial loops it replaced


def _loop_value(terms, p):
    total = 0.0
    for ex, c in terms:
        v = c
        for i, e in enumerate(ex):
            if e:
                v *= p[i] ** e
        total += v
    return total


def _loop_gradient(terms, p):
    g = np.zeros(p.size)
    for ex, c in terms:
        for i, e in enumerate(ex):
            if not e:
                continue
            v = c * e
            for jj, ee in enumerate(ex):
                pw = ee - 1 if jj == i else ee
                if pw:
                    v *= p[jj] ** pw
            g[i] += v
    return g


def _loop_hessian(terms, p):
    hess = np.zeros((p.size, p.size))
    for ex, c in terms:
        for i, ei in enumerate(ex):
            if not ei:
                continue
            for j, ej in enumerate(ex):
                if i == j:
                    if ei < 2:
                        continue
                    v = c * ei * (ei - 1)
                    for kk, ee in enumerate(ex):
                        pw = ee - 2 if kk == i else ee
                        if pw:
                            v *= p[kk] ** pw
                    hess[i, j] += v
                else:
                    if not ej:
                        continue
                    v = c * ei * ej
                    for kk, ee in enumerate(ex):
                        pw = ee
                        if kk == i or kk == j:
                            pw -= 1
                        if pw:
                            v *= p[kk] ** pw
                    hess[i, j] += v
    return hess


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_polynomial_rho_matches_loops(data):
    n = data.draw(st.integers(1, 3))
    m = 2 * n
    exps = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    coefs = st.floats(-2.0, 2.0, allow_nan=False)
    terms = data.draw(st.lists(st.tuples(exps, coefs), min_size=1, max_size=8))
    coord = st.one_of(st.just(0.0), st.floats(-2.0, 2.0, allow_nan=False))
    pts = np.array(data.draw(st.lists(st.lists(coord, min_size=m, max_size=m),
                                      min_size=1, max_size=6)))
    rho = PolynomialRho(n, terms)
    abs_terms = [(ex, abs(c)) for ex, c in rho.terms]
    for loop, got in ((_loop_value, rho(pts)), (_loop_gradient, rho.gradient(pts)),
                      (_loop_hessian, rho.hessian(pts))):
        want = np.array([loop(rho.terms, p) for p in pts])
        # sum of |term| bounds the rounding of either evaluation order;
        # below the smallest normal float only absolute accuracy is left
        scale = np.array([loop(abs_terms, np.abs(p)) for p in pts])
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * scale + np.finfo(float).tiny)
    p = pts[0]
    assert np.shape(rho(p)) == ()
    assert rho.gradient(p).shape == (m,)
    assert rho.hessian(p).shape == (m, m)
    assert rho.hessian(np.stack([pts, pts])).shape == (2, len(pts), m, m)


def test_power_table_memory_follows_distinct_exponents():
    e = 10**6
    df = make_domain(HUGE_EXPONENT_DOMAIN)
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(256, 4))
    pts[:, 0] = 1.0 - 1e-6 * pts[:, 0] ** 2     # keeps x_1^e of order 1
    tracemalloc.start()
    try:
        rho, grad, hess = df.rho(pts), df.grad(pts), df.hess(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    x = pts[:, 0]
    assert np.array_equal(rho, x**e)
    np.testing.assert_allclose(grad[:, 0], e * x ** (e - 1), rtol=1e-15)
    np.testing.assert_allclose(hess[:, 0, 0], e * (e - 1) * x ** (e - 2), rtol=1e-15)
    assert not np.any(grad[:, 1:]) and not np.any(hess[:, 1:]) and not np.any(hess[:, :, 1:])


# ---------------------------------------------------------------------------
# classification


def _sphere_samples(count=8):
    thetas = 2 * np.pi * np.arange(count) / count
    return [np.array([np.cos(t), 0.0, -np.sin(t), 0.0]) for t in thetas]


def test_classify_ball_strict(ball):
    rep = classify_pseudoconvexity(ball, _sphere_samples(), k=1)
    assert rep.classification == "strict"
    assert abs(rep.margin - 1.0) < 1e-12


def test_classify_weak(weak):
    thetas = 2 * np.pi * np.arange(8) / 8
    samples = [np.array([np.cos(t), -np.sin(t), 0.0, 0.0]) for t in thetas]
    rep = classify_pseudoconvexity(weak, samples, k=1)
    assert rep.classification == "weak"
    assert abs(rep.margin) < 1e-12


def test_classify_synthetic_c3(synthetic_c3):
    dom, f = synthetic_c3
    samples = list(f.boundary)
    rep1 = classify_pseudoconvexity(dom, samples, k=1)
    assert rep1.classification == "non"
    assert abs(rep1.margin + 1.0) < 1e-12
    rep2 = classify_pseudoconvexity(dom, samples, k=2)
    assert rep2.classification == "strict"
    assert abs(rep2.margin - 2.0) < 1e-12


def test_classify_invalid_k(ball):
    with pytest.raises(InvalidSubspaceError):
        classify_pseudoconvexity(ball, _sphere_samples(), k=2)  # n - 1 = 1


def test_classify_needs_samples(ball):
    with pytest.raises(ValueError):
        classify_pseudoconvexity(ball, [], k=1)


# ---------------------------------------------------------------------------
# Ky Fan: min over k-subspaces of the trace equals the sum of the k
# smallest eigenvalues. Oracle: projected gradient descent on orthonormal
# frames with random restarts, using only matrix products.


def _min_trace_subspace(lev, k, rng, restarts=6, iters=400, step=0.1):
    m = lev.shape[0]
    best = np.inf
    for _ in range(restarts):
        b = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        b, _ = np.linalg.qr(b)
        for _ in range(iters):
            grad = lev @ b
            b, _ = np.linalg.qr(b - step * grad)
        best = min(best, float(np.real(np.trace(b.conj().T @ lev @ b))))
    return best


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_ky_fan_trace_minimum(seed, m):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    lev = 0.5 * (a + a.conj().T)
    k = int(rng.integers(1, m + 1))
    eigs = np.linalg.eigvalsh(lev)
    oracle = _min_trace_subspace(lev, k, rng)
    assert abs(oracle - np.sum(eigs[:k])) < 1e-6


# ---------------------------------------------------------------------------
# domain construction


def test_make_domain_unknown_name():
    with pytest.raises(KeyError):
        make_domain("nope")


def test_make_domain_polynomial_roundtrip(ball):
    spec = {
        "n": 2,
        "terms": [
            {"exponents": [2, 0, 0, 0], "coef": 1.0},
            {"exponents": [0, 2, 0, 0], "coef": 1.0},
            {"exponents": [0, 0, 2, 0], "coef": 1.0},
            {"exponents": [0, 0, 0, 2], "coef": 1.0},
            {"exponents": [0, 0, 0, 0], "coef": -1.0},
        ],
    }
    df = make_domain(spec)
    p = np.array([0.25, -0.5, 0.75, 0.1])
    assert np.isclose(df.rho(p), ball.rho(p))
    assert np.allclose(df.grad(p), ball.grad(p))
    assert np.allclose(df.hess(p), ball.hess(p))
