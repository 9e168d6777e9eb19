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

from .diskmap import DiskMap, derivatives
from .geometry import DefiningFunction, apply_j, boundary_data

__all__ = [
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


def harmonic_residual(f: DiskMap) -> float:
    """Sup norm of the componentwise Laplacian of f.

    Exact Laplacian closures are used when the map carries an analytic
    evaluator; otherwise repeated spectral differentiation restricted to
    the annulus 0.05 <= r <= 0.95.
    """
    grid = f.grid
    if f.analytic is not None:
        z = grid.r[:, None] * np.exp(1j * grid.theta)[None, :]
        lap = f.analytic.laplacian_map().evaluate(z)
        mags = np.sqrt(np.sum(np.abs(lap) ** 2, axis=-1))
        return float(np.max(mags))
    lap = grid.laplacian(f.values)
    mask = (grid.r <= INTERIOR_RADIUS) & (grid.r >= INNER_RADIUS)
    mags = np.linalg.norm(lap[mask], axis=-1)
    return float(np.max(mags))


def boundary_condition(f: DiskMap, df: DefiningFunction, tol_boundary: float = 1e-9,
                       tol_degenerate: float = 1e-12):
    """Free-boundary residual and the multiplier lambda(theta).

    At the boundary nodes takes nu = grad rho / |grad rho| at the image
    points from ``boundary_data`` (which checks |rho| <= tol_boundary and
    |grad rho| >= tol_degenerate), lambda = <f_r + J f_theta, nu> and the
    residual |f_r + J f_theta - lambda nu|. Returns (sup residual, lambda
    samples).
    """
    d = f.derivatives()
    b = d.boundary_f_r + apply_j(d.boundary_f_theta)
    nu = boundary_data(df, f.boundary, tol_boundary=tol_boundary,
                       tol_degenerate=tol_degenerate).nu
    lam = np.sum(b * nu, axis=-1)
    res = np.linalg.norm(b - lam[:, None] * nu, axis=-1)
    return float(np.max(res)), lam


def conformality(f: DiskMap) -> float:
    """Sup over the grid of |<f_x, f_y>| + ||f_x|^2 - |f_y|^2|."""
    d = f.derivatives()
    dot = np.sum(d.f_x * d.f_y, axis=-1)
    diff = np.sum(d.f_x**2, axis=-1) - np.sum(d.f_y**2, axis=-1)
    return float(np.max(np.abs(dot) + np.abs(diff)))


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
            "lambda": [float(v) for v in self.lambda_values],
            "lambda_min": self.lambda_min,
            "conformality_defect": self.conformality_defect,
            "critical": self.critical,
            "warnings": list(self.warnings),
        }


def is_critical(f: DiskMap, df: DefiningFunction, tol_h: float = 1e-7,
                tol_b: float = 1e-7, tol_boundary: float = 1e-9):
    """Decide criticality by residual thresholds; returns (bool, report).

    critical <=> harmonic_residual < tol_h and boundary_residual < tol_b.
    lambda < 0 or a conformality defect on a certified critical point is
    recorded as a warning (both must hold for genuine critical points).
    """
    h_res = harmonic_residual(f)
    b_res, lam = boundary_condition(f, df, tol_boundary=tol_boundary)
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
