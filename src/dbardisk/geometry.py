"""Complex-linear algebra on R^{2n} = C^n, defining functions, and Levi forms.

Conventions used package-wide:

* Real coordinates are ordered (x_1, .., x_n, y_1, .., y_n) with
  z_j = x_j + i y_j. The complex structure J sends the x_j direction to
  the y_j direction, so on stacked vectors J(a, b) = (-b, a).
* A domain is N = {rho < 0} for a defining function rho with nonvanishing
  gradient on {rho = 0}.
* The Levi form at a boundary point is the complex Hessian
  d^2 rho / dz_j dzbar_k restricted to the complex tangent space W_p and
  scaled by 2/|grad rho|, so that on the unit sphere it is the identity.
  The minimum of the trace of the second fundamental form over complex
  k-planes in W_p equals the sum of the k smallest Levi eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConstraintViolationError,
    DegenerateBoundaryError,
    EvaluationError,
    InvalidSubspaceError,
)

__all__ = [
    "DefiningFunction",
    "BoundaryPointData",
    "PseudoconvexityReport",
    "apply_j",
    "hermitian",
    "from_complex_coords",
    "complex_hessian",
    "boundary_data",
    "classify_pseudoconvexity",
    "make_domain",
    "DOMAIN_CATALOG",
]


def apply_j(v: np.ndarray) -> np.ndarray:
    """Multiply by the standard complex structure: J(a, b) = (-b, a)."""
    n = v.shape[-1] // 2
    out = np.empty_like(v)
    out[..., :n] = -v[..., n:]
    out[..., n:] = v[..., :n]
    return out


def hermitian(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hermitian pairing <<u, v>> = sum_c u_c conj(v_c) over the last axis."""
    return np.sum(u * np.conj(v), axis=-1)


def from_complex_coords(w: np.ndarray) -> np.ndarray:
    """C^n vector(s) -> real 2n layout (Re w, Im w)."""
    return np.concatenate([np.real(w), np.imag(w)], axis=-1)


# ---------------------------------------------------------------------------
# defining functions


def _fd_steps(p, fd_step):
    """Per-point step fd_step * max(1, |p|), shaped (..., 1)."""
    return fd_step * np.maximum(1.0, np.linalg.norm(p, axis=-1, keepdims=True))


def _fd_gradient(rho, p, fd_step):
    h = _fd_steps(p, fd_step)
    eye = np.eye(p.shape[-1])
    g = np.empty_like(p)
    for i in range(p.shape[-1]):
        e = h * eye[i]
        g[..., i] = (rho(p + e) - rho(p - e)) / (2.0 * h[..., 0])
    return g


def _fd_hessian(rho, p, fd_step):
    h = _fd_steps(p, fd_step)
    h2 = h[..., 0] ** 2
    m = p.shape[-1]
    eye = np.eye(m)
    hess = np.empty(p.shape + (m,))
    f0 = rho(p)
    for i in range(m):
        ei = h * eye[i]
        hess[..., i, i] = (rho(p + ei) - 2.0 * f0 + rho(p - ei)) / h2
        for j in range(i + 1, m):
            ej = h * eye[j]
            val = (
                rho(p + ei + ej) - rho(p + ei - ej) - rho(p - ei + ej) + rho(p - ei - ej)
            ) / (4.0 * h2)
            hess[..., i, j] = val
            hess[..., j, i] = val
    return 0.5 * (hess + np.swapaxes(hess, -1, -2))


@dataclass
class DefiningFunction:
    """A domain N = {rho < 0} with gradient and real-Hessian evaluators.

    rho, grad and hess take points of shape (..., 2n) and return arrays of
    shape (...), (..., 2n) and (..., 2n, 2n). provenance is "analytic"
    when grad/hess are exact closures and "finite-difference" when they
    come from central differences of rho (step fd_step * max(1, |p|) per
    point; the FD Hessian is symmetrized).
    """

    n: int
    rho: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]
    provenance: str = "analytic"
    fd_step: float | None = None
    name: str = "custom"

    @classmethod
    def from_scalar(cls, rho, n, fd_step=1e-5, name="custom-fd"):
        """Build the finite-difference provenance from rho alone."""

        def grad(p):
            return _fd_gradient(rho, np.asarray(p, dtype=float), fd_step)

        def hess(p):
            return _fd_hessian(rho, np.asarray(p, dtype=float), fd_step)

        return cls(
            n=n,
            rho=rho,
            grad=grad,
            hess=hess,
            provenance="finite-difference",
            fd_step=fd_step,
            name=name,
        )


def _differentiate(ex, coef):
    """Terms of the partial derivatives of a polynomial along every coordinate.

    ex (T, m) holds the exponents and coef (T, K) the coefficient of each
    term in K outputs. The result has K m outputs, output (k, i) being
    d/dx_i of output k; terms whose exponents coincide are merged.
    """
    m = ex.shape[1]
    term, axis = np.nonzero(ex)
    d_coef = np.zeros((term.size, coef.shape[1], m))
    d_coef[np.arange(term.size), :, axis] = coef[term] * ex[term, axis][:, None]
    d_ex, where = np.unique(ex[term] - np.eye(m, dtype=ex.dtype)[axis], axis=0,
                            return_inverse=True)
    merged = np.zeros((d_ex.shape[0], coef.shape[1] * m))
    np.add.at(merged, where.reshape(-1), d_coef.reshape(term.size, coef.shape[1] * m))
    return d_ex, merged


def _monomial_sum(p, ex, coef):
    """sum_t coef[t] prod_i p_i^ex[t, i] at points p (..., m): shape (..., K)."""
    p = np.asarray(p, dtype=float)
    powers = p[..., None] ** np.arange(ex.max(initial=0) + 1)
    monomials = np.prod(powers[..., np.arange(ex.shape[1]), ex], axis=-1)
    return monomials @ coef


class PolynomialRho:
    """Polynomial in the 2n real variables given as monomial terms.

    Each term is (exponents, coefficient) with exponents a length-2n tuple
    over (x_1..x_n, y_1..y_n). Value, gradient and Hessian are exact and
    take points of shape (..., 2n). The term list is differentiated once
    here, so all three are one monomial evaluation times a coefficient
    matrix.
    """

    def __init__(self, n: int, terms: Sequence[tuple]):
        self.n = n
        self.terms = [(tuple(int(e) for e in ex), float(c)) for ex, c in terms]
        for ex, c in self.terms:
            if len(ex) != 2 * n or any(e < 0 for e in ex):
                raise ValueError(f"bad monomial exponents {ex} for n={n}")
            if not np.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} for exponents {ex}")
        ex = np.array([ex for ex, _ in self.terms], dtype=np.int64).reshape(-1, 2 * n)
        coef = np.array([c for _, c in self.terms]).reshape(-1, 1)
        self._value_terms = (ex, coef)
        self._gradient_terms = _differentiate(ex, coef)
        self._hessian_terms = _differentiate(*self._gradient_terms)

    def __call__(self, p):
        return _monomial_sum(p, *self._value_terms)[..., 0]

    def gradient(self, p):
        return _monomial_sum(p, *self._gradient_terms)

    def hessian(self, p):
        hess = _monomial_sum(p, *self._hessian_terms)
        return hess.reshape(hess.shape[:-1] + (2 * self.n, 2 * self.n))

    def defining_function(self, name="custom"):
        return DefiningFunction(
            n=self.n,
            rho=self,
            grad=self.gradient,
            hess=self.hessian,
            provenance="analytic",
            name=name,
        )


def _ball4_terms():
    # |z|^2 - 1 on C^2
    terms = [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.0), ((0, 0, 2, 0), 1.0), ((0, 0, 0, 2), 1.0)]
    terms.append(((0, 0, 0, 0), -1.0))
    return terms


def _cylinder_x_terms():
    return [((2, 0, 0, 0), 1.0), ((0, 2, 0, 0), 1.0), ((0, 0, 0, 0), -1.0)]


def _weak_rank_one_terms():
    # (x1 - y2)^2 + (x2 + y1)^2 - 1 = |z1 + i z2|^2 - 1
    return [
        ((2, 0, 0, 0), 1.0),
        ((0, 0, 0, 2), 1.0),
        ((1, 0, 0, 1), -2.0),
        ((0, 2, 0, 0), 1.0),
        ((0, 0, 2, 0), 1.0),
        ((0, 1, 1, 0), 2.0),
        ((0, 0, 0, 0), -1.0),
    ]


DOMAIN_CATALOG = {
    "ball4": (2, _ball4_terms),
    "cylinder_x": (2, _cylinder_x_terms),
    "weak_rank_one": (2, _weak_rank_one_terms),
}


def make_domain(spec) -> DefiningFunction:
    """Build a DefiningFunction from a catalog name or a polynomial spec.

    Accepted specs:
      * a catalog name: "ball4", "cylinder_x", "weak_rank_one";
      * a dict {"n": n, "terms": [{"exponents": [..2n ints..], "coef": c}, ..]}
        describing rho as monomials in (x_1..x_n, y_1..y_n).
    """
    if isinstance(spec, str):
        if spec not in DOMAIN_CATALOG:
            raise KeyError(f"unknown domain {spec!r}; catalog: {sorted(DOMAIN_CATALOG)}")
        n, builder = DOMAIN_CATALOG[spec]
        return PolynomialRho(n, builder()).defining_function(name=spec)
    if isinstance(spec, dict):
        n = int(spec["n"])
        terms = [(t["exponents"], t["coef"]) for t in spec["terms"]]
        return PolynomialRho(n, terms).defining_function(name=spec.get("name", "custom"))
    raise TypeError(f"cannot build a domain from {type(spec).__name__}")


# ---------------------------------------------------------------------------
# complex Hessian / Levi form


def _complex_hessian(hess: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """L = ((H_xx + H_yy) + i (H_xy - H_yx)) / 4 from real Hessians (..., 2n, 2n)."""
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))[0]
        raise EvaluationError(
            f"non-finite Hessian entry at {p[tuple(bad[:-2])].tolist()}",
            coordinate=tuple(bad[-2:]),
        )
    hxx = hess[..., :n, :n]
    hyy = hess[..., n:, n:]
    hxy = hess[..., :n, n:]
    hyx = hess[..., n:, :n]
    lev = 0.25 * ((hxx + hyy) + 1j * (hxy - hyx))
    return 0.5 * (lev + np.conj(np.swapaxes(lev, -1, -2)))


def complex_hessian(df: DefiningFunction, p) -> np.ndarray:
    """Complex Hessian L_jk = d^2 rho / dz_j dzbar_k at points p (..., 2n):
    (..., n, n) Hermitian matrices assembled from the real Hessian blocks,

        L = ((H_xx + H_yy) + i (H_xy - H_yx)) / 4.
    """
    p = np.asarray(p, dtype=float)
    return _complex_hessian(np.asarray(df.hess(p), dtype=float), df.n, p)


@dataclass
class BoundaryPointData:
    """Unit normal, complex tangent basis and Levi form at boundary points.

    Every field keeps the leading axes of the points (..., 2n). wp_basis
    has shape (..., n, n-1): orthonormal columns (standard C^n Hermitian
    product) spanning W_p = {w : sum_j drho/dz_j w_j = 0}. levi is the
    (..., n-1, n-1) Hermitian matrix of the Levi form in that basis,
    normalized by 2/|grad rho| so that unit real tangent directions report
    the second fundamental form directly. hess is the real Hessian of rho.
    """

    point: np.ndarray
    nu: np.ndarray
    wp_basis: np.ndarray
    levi: np.ndarray
    grad_norm: np.ndarray
    hess: np.ndarray


def _complement_basis(a_hat: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal bases of the orthogonal complements of a_hat.

    a_hat has shape (..., n), the result (..., n, n-1). Modified
    Gram-Schmidt against a_hat over the identity columns, skipping the
    column where |a_hat| is largest. Depends only on a_hat, so it is
    invariant under rho -> c rho (c > 0).
    """
    n = a_hat.shape[-1]
    pivot = np.argmax(np.abs(a_hat), axis=-1)[..., None]
    cols = []
    for c in range(n - 1):
        j = c + (c >= pivot)
        v = (np.arange(n) == j) - a_hat * np.conj(np.take_along_axis(a_hat, j, axis=-1))
        for u in cols:
            v = v - u * np.sum(v * np.conj(u), axis=-1, keepdims=True)
        nrm = np.linalg.norm(v, axis=-1, keepdims=True)
        low = int(np.argmin(nrm))
        if not nrm.flat[low] >= 1e-13:
            raise DegenerateBoundaryError(
                f"failed to complete the complex tangent basis at node {low}"
            )
        cols.append(v / nrm)
    if not cols:
        return np.zeros(a_hat.shape + (0,), dtype=complex)
    return np.stack(cols, axis=-1)


def boundary_data(
    df: DefiningFunction,
    points,
    tol_boundary: float = 1e-9,
    tol_degenerate: float = 1e-12,
) -> BoundaryPointData:
    """Normal, complex tangent space and Levi form at points of {rho = 0}.

    points has shape (..., 2n); rho, its gradient and its Hessian are
    evaluated once for all of them. A point with |rho| > tol_boundary
    raises ConstraintViolationError and one with |grad rho| <
    tol_degenerate raises DegenerateBoundaryError; both name the worst
    node as a flat index over the leading axes.
    """
    p = np.asarray(points, dtype=float)
    rho = np.asarray(df.rho(p), dtype=float)
    worst = int(np.argmax(np.abs(rho)))
    if not abs(rho.flat[worst]) <= tol_boundary:
        raise ConstraintViolationError(
            f"boundary image off the hypersurface: |rho| = "
            f"{abs(rho.flat[worst]):.3e} at node {worst}",
            worst_node=worst,
            worst_value=float(rho.flat[worst]),
        )
    grad = np.asarray(df.grad(p), dtype=float)
    gnorm = np.linalg.norm(grad, axis=-1)
    low = int(np.argmin(gnorm))
    if not gnorm.flat[low] >= tol_degenerate:
        raise DegenerateBoundaryError(f"|grad rho| = {gnorm.flat[low]:.3e} at node {low}")
    nu = grad / gnorm[..., None]
    n = df.n
    # d rho / dz_j = (rho_xj - i rho_yj) / 2
    a = 0.5 * (grad[..., :n] - 1j * grad[..., n:])
    a_hat = a / np.linalg.norm(a, axis=-1, keepdims=True)
    # W_p = {w : sum_j a_j w_j = 0} is the Hermitian complement of conj(a)
    basis = _complement_basis(np.conj(a_hat))
    hess = np.asarray(df.hess(p), dtype=float)
    lev_full = _complex_hessian(hess, n, p)
    # Levi form sum L_jk w_j conj(w'_k) in that basis
    levi = np.swapaxes(basis, -1, -2) @ lev_full @ np.conj(basis)
    levi = levi * (2.0 / gnorm)[..., None, None]
    levi = 0.5 * (levi + np.conj(np.swapaxes(levi, -1, -2)))
    return BoundaryPointData(point=p, nu=nu, wp_basis=basis, levi=levi,
                             grad_norm=gnorm, hess=hess)


@dataclass
class PseudoconvexityReport:
    """Sampled (k-)pseudoconvexity classification of a domain boundary."""

    classification: str  # "strict" | "weak" | "non"
    margin: float  # min over samples of the sum of the k smallest Levi eigenvalues
    k: int
    eigenvalues: np.ndarray = field(repr=False)  # (num_samples, n-1), ascending

    def to_json_dict(self):
        return {
            "classification": self.classification,
            "margin": self.margin,
            "k": self.k,
            "levi_eigenvalues": [list(map(float, row)) for row in self.eigenvalues],
        }


def classify_pseudoconvexity(
    df: DefiningFunction,
    samples,
    k: int = 1,
    tol_pc: float = 1e-9,
    tol_boundary: float = 1e-9,
) -> PseudoconvexityReport:
    """Classify strict/weak/non k-pseudoconvexity at sampled points (..., 2n).

    For each sample the quantity s_k = lambda_1 + .. + lambda_k (sum of the
    k smallest Levi eigenvalues) is the minimum over complex k-planes
    U <= W_p of the trace of the second fundamental form on U. The domain
    is reported strict when min s_k > tol_pc, weak when |min s_k| <= tol_pc
    and non otherwise; margin = min s_k.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("need at least one boundary sample")
    if k < 1 or k > df.n - 1:
        raise InvalidSubspaceError(f"k must satisfy 1 <= k <= n-1 = {df.n - 1}, got {k}")
    eigs = np.linalg.eigvalsh(boundary_data(df, samples, tol_boundary=tol_boundary).levi)
    margin = float(np.min(np.sum(eigs[..., :k], axis=-1)))
    if margin > tol_pc:
        cls = "strict"
    elif abs(margin) <= tol_pc:
        cls = "weak"
    else:
        cls = "non"
    return PseudoconvexityReport(classification=cls, margin=margin, k=k, eigenvalues=eigs)
