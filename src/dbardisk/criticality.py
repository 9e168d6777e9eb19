"""Criticality diagnostics for the dbar-energy.

A smooth f: D -> N with f(dD) in dN is a critical point of the dbar-energy
iff it is harmonic and f_r + J f_theta = lambda nu along dD, nu the unit
outward normal of dN at the boundary image. Genuine critical points are in
addition weakly conformal with lambda >= 0; those two are reported as
warnings rather than failures since they are consequences, not criteria.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .diskmap import DiskGrid, DiskMap
from .geometry import DefiningFunction, apply_j, boundary_data

__all__ = [
    "BoundaryState",
    "boundary_state",
    "CriticalityReport",
    "harmonic_residual",
    "boundary_condition",
    "conformality",
    "is_critical",
]

# evaluation annulus for sampled second derivatives: one-sided stencils at
# the rim lose an order of accuracy, and polar differentiation noise is
# amplified like 1/r^2 at the innermost nodes
INTERIOR_RADIUS = 0.95
INNER_RADIUS = 0.05


def annulus(grid: DiskGrid) -> slice:
    """The radial index range of INNER_RADIUS <= r <= INTERIOR_RADIUS (r is sorted)."""
    return slice(int(np.searchsorted(grid.r, INNER_RADIUS)),
                 int(np.searchsorted(grid.r, INTERIOR_RADIUS, side="right")))


def harmonic_residual(f: DiskMap) -> float:
    """Sup norm of the componentwise Laplacian of f (``DiskMap.laplacian``).

    The exact Laplacian is used when the map carries an analytic evaluator
    (0.0 when it has no terms); otherwise repeated spectral differentiation
    restricted to the annulus 0.05 <= r <= 0.95.
    """
    lap = f.laplacian()
    if lap is None:
        return 0.0
    if f.analytic is None:
        lap = lap[annulus(f.grid)]
    return float(np.max(np.linalg.norm(lap, axis=-1)))


@dataclass
class BoundaryState:
    """Per-boundary-node geometry of a pair (f, df), shared by the criticality
    diagnostics and every index-form evaluation. The arrays are read-only."""

    nu: np.ndarray          # (n_theta, 2n)
    grad_norm: np.ndarray   # (n_theta,)
    lam: np.ndarray         # (n_theta,)
    hess: np.ndarray        # (n_theta, 2n, 2n)
    levi: np.ndarray        # (n_theta, n-1, n-1), Levi form on the complex tangent
    residual: float         # sup |f_r + J f_theta - lam nu|


def boundary_state(f: DiskMap, df: DefiningFunction) -> BoundaryState:
    """nu, |grad rho|, Hess rho and the Levi form at the boundary image,
    from one checked ``boundary_data`` evaluation, lambda =
    <f_r + J f_theta, nu> and the residual of the free-boundary condition.

    Cached on f like its derivatives, in one slot for the last domain asked
    about (compared by identity): another domain recomputes it, and a
    failed check raises without touching the slot.
    """
    cached = f._boundary_state
    if cached is not None and cached[0] is df:
        return cached[1]
    d = f.derivatives()
    b = d.boundary_f_r + apply_j(d.boundary_f_theta)
    bd = boundary_data(df, f.boundary)
    lam = np.sum(b * bd.nu, axis=-1)
    residual = float(np.max(np.linalg.norm(b - lam[:, None] * bd.nu, axis=-1)))
    for a in (bd.nu, bd.grad_norm, lam, bd.hess, bd.levi):
        a.flags.writeable = False
    state = BoundaryState(nu=bd.nu, grad_norm=bd.grad_norm, lam=lam, hess=bd.hess,
                          levi=bd.levi, residual=residual)
    f._boundary_state = (df, state)
    return state


def boundary_condition(f: DiskMap, df: DefiningFunction):
    """Free-boundary residual and the multiplier lambda(theta).

    At the boundary nodes takes nu = grad rho / |grad rho| at the image
    points (``boundary_state``), lambda = <f_r + J f_theta, nu> and the
    residual |f_r + J f_theta - lambda nu|. Returns (sup residual, lambda
    samples).
    """
    state = boundary_state(f, df)
    return state.residual, state.lam


def conformality(f: DiskMap) -> float:
    """Sup over the grid of |<f_x, f_y>| + ||f_x|^2 - |f_y|^2| = |Re phi| + |Im phi| / 2,
    phi = 4 <f_z, f_z> the Hopf differential: from its polar terms for an
    analytic map (``PolynomialMap.hopf``; 0.0 without terms), else in the polar
    frame, e^{-2 i theta} (|f_r|^2 - |f_theta|^2 / r^2 - 2 i <f_r, f_theta> / r)."""
    if f.analytic is not None:
        phi = f.analytic.hopf(f.grid)
        if phi is None:
            return 0.0
        re, im = phi[..., 0], phi[..., 1]
    else:
        d, inv_r, dot = f.derivatives(), f.grid.inv_r[:, None], "...k,...k"
        phi = (np.einsum(dot, d.f_r, d.f_r) - np.einsum(dot, d.f_theta, d.f_theta) * inv_r**2
               - 2j * np.einsum(dot, d.f_r, d.f_theta) * inv_r) * np.exp(-2j * f.grid.theta)
        re, im = phi.real, phi.imag
    return float(np.max(np.abs(re) + 0.5 * np.abs(im)))


@dataclass
class CriticalityReport:
    harmonic_residual: float
    boundary_residual: float
    lambda_values: np.ndarray = field(repr=False)
    lambda_min: float = 0.0
    conformality_defect: float = 0.0
    critical: bool = False
    warnings: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "harmonic_residual": self.harmonic_residual,
            "boundary_residual": self.boundary_residual,
            "lambda": self.lambda_values.tolist(),
            "lambda_min": self.lambda_min,
            "conformality_defect": self.conformality_defect,
            "critical": self.critical,
            "warnings": list(self.warnings),
        }


def is_critical(f: DiskMap, df: DefiningFunction, tol_h: float = 1e-7,
                tol_b: float = 1e-7):
    """Decide criticality by residual thresholds; returns (bool, report).

    critical <=> harmonic_residual < tol_h and boundary_residual < tol_b.
    lambda < 0 or a conformality defect on a certified critical point is
    recorded as a warning (both must hold for genuine critical points).
    """
    h_res = harmonic_residual(f)
    b_res, lam = boundary_condition(f, df)
    defect = conformality(f)
    lam_min = float(np.min(lam))
    critical = bool(h_res < tol_h and b_res < tol_b)
    warnings = []
    if critical and lam_min < -1e-8:
        warnings.append(f"lambda attains negative values (min {lam_min:.3e})")
    if critical and defect > 1e-8:
        warnings.append(f"critical map fails weak conformality (defect {defect:.3e})")
    report = CriticalityReport(
        harmonic_residual=h_res,
        boundary_residual=b_res,
        lambda_values=lam,
        lambda_min=lam_min,
        conformality_defect=defect,
        critical=critical,
        warnings=warnings,
    )
    return critical, report
