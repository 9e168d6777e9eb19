"""Maps from the unit disk to R^{2n}: sampling grid, derivatives, energies.

The grid is a polar tensor product: Gauss-Legendre nodes mapped to (0, 1]
radially (so the coordinate singularity at r = 0 is never touched) and
uniform angles. Angular derivatives are Fourier-spectral per ring, radial
derivatives use barycentric Lagrange differentiation on the Legendre nodes,
so everything is exact on the polynomial catalog maps.

Energy convention (centralized here):

    E''(f) = int_D |f_x + J f_y|^2 / 4 dx dy      (dbar-energy)
    E'(f)  = int_D |f_x - J f_y|^2 / 4 dx dy
    E      = E' + E''  =  int_D (|f_x|^2 + |f_y|^2)/2
    int f*omega = int_D <J f_x, f_y> dx dy  =  E' - E''

With this normalization the three identities hold exactly pointwise. Some
computations are also quoted in the raw convention int |f_x + J f_y|^2,
which is DBAR_RAW_FACTOR times E''.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import InvalidVariationError, ResolutionError
from .geometry import apply_j

__all__ = [
    "DiskGrid",
    "DiskMap",
    "PolynomialMap",
    "EnergyReport",
    "DBAR_RAW_FACTOR",
    "derivatives",
    "energies",
    "homotopy_invariance_check",
    "make_map",
    "MAP_CATALOG",
]

# raw convention: densities |f_x + J f_y|^2 without the 1/4 normalization
DBAR_RAW_FACTOR = 4.0


def _differentiation_matrix(x):
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / np.prod(diff, axis=1)  # barycentric weights
    w = w / np.max(np.abs(w))
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


class DiskGrid:
    """Polar tensor grid on the unit disk with spectral operators.

    n_r Gauss-Legendre radial nodes on (0, 1) (quadrature carries the r dr
    measure) and n_theta uniform angular nodes with weight 2 pi / n_theta.
    """

    def __init__(self, n_r: int = 32, n_theta: int = 64):
        if n_r < 4 or n_theta < 8:
            raise ResolutionError(f"grid too small: n_r={n_r}, n_theta={n_theta}")
        if n_theta % 2:
            raise ResolutionError("n_theta must be even")
        self.n_r = n_r
        self.n_theta = n_theta
        x, w = np.polynomial.legendre.leggauss(n_r)
        self.r = 0.5 * (x + 1.0)
        self.w_r = 0.5 * w  # weights for int_0^1 . dr
        self.theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.w_theta = 2.0 * np.pi / n_theta
        self.cos_t = np.cos(self.theta)
        self.sin_t = np.sin(self.theta)
        self.inv_r = 1.0 / self.r
        # 2D weights for int_D . dx dy = int . r dr dtheta
        self.w_disk = (self.w_r * self.r)[:, None] * np.full(n_theta, self.w_theta)[None, :]
        self._d_r = _differentiation_matrix(self.r)
        # differentiation row at r = 1 over nodes [r_1..r_nr, 1]
        nodes = np.concatenate([self.r, [1.0]])
        d_aug = _differentiation_matrix(nodes)
        self._d1_row = d_aug[-1]
        k = np.fft.fftfreq(n_theta, d=1.0 / n_theta)
        self._ik = 1j * k
        self._ik_odd = self._ik.copy()
        self._ik_odd[n_theta // 2] = 0.0  # kill the Nyquist mode in odd derivatives

    # -- quadrature ---------------------------------------------------------

    def integrate_disk(self, density: np.ndarray) -> float:
        """Integrate a (n_r, n_theta) density over the disk (dx dy measure)."""
        return float(np.sum(self.w_disk * density))

    def integrate_boundary(self, g: np.ndarray) -> float:
        """Integrate (n_theta,) samples over the boundary circle (dtheta)."""
        return self.w_theta * np.sum(g, axis=0)

    # -- differentiation ----------------------------------------------------

    def theta_derivative(self, arr: np.ndarray, order: int = 1, axis: int = 1) -> np.ndarray:
        mult = self._ik_odd if order % 2 else self._ik
        mult = mult**order if order > 1 else mult
        shape = [1] * arr.ndim
        shape[axis] = self.n_theta
        spec = np.fft.fft(arr, axis=axis) * mult.reshape(shape)
        out = np.fft.ifft(spec, axis=axis)
        return out.real if np.isrealobj(arr) else out

    def radial_derivative(self, arr: np.ndarray) -> np.ndarray:
        """Differentiate along axis 0 (the radial axis)."""
        return np.tensordot(self._d_r, arr, axes=(1, 0))

    def boundary_radial_derivative(self, values: np.ndarray, trace: np.ndarray) -> np.ndarray:
        """d/dr at r = 1 from interior samples plus the boundary trace."""
        stacked = np.concatenate([values, trace[None]], axis=0)
        return np.tensordot(self._d1_row, stacked, axes=(0, 0))

    def cartesian_from_polar(self, fr: np.ndarray, ft: np.ndarray):
        """(f_r, f_theta) on the grid -> (f_x, f_y) by the polar chain rule."""
        if np.isrealobj(fr) and np.isrealobj(ft):
            return _kernels.polar_to_cartesian(fr, ft, self.inv_r, self.cos_t, self.sin_t)
        c = self.cos_t[None, :, None]
        s = self.sin_t[None, :, None]
        tor = ft * self.inv_r[:, None, None]
        return c * fr - s * tor, s * fr + c * tor

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """f_rr + f_r / r + f_tt / r^2 on the grid."""
        fr = self.radial_derivative(values)
        frr = self.radial_derivative(fr)
        ftt = self.theta_derivative(values, order=2)
        r = self.r[:, None, None]
        return frr + fr / r + ftt / r**2


# ---------------------------------------------------------------------------
# polynomial maps in z and zbar


class PolynomialMap:
    """f: D -> C^n with each coordinate a polynomial sum c z^p zbar^q.

    Carries exact closures for d/dz, d/dzbar and the Laplacian, used as the
    analytic evaluator of catalog maps.
    """

    def __init__(self, n: int, coords: Sequence[Sequence[tuple]]):
        if len(coords) != n:
            raise ValueError(f"need {n} coordinate polynomials, got {len(coords)}")
        self.n = n
        self.coords = [
            [(int(p), int(q), complex(c)) for (p, q, c) in coord] for coord in coords
        ]
        for coord in self.coords:
            for p, q, c in coord:
                if p < 0 or q < 0 or not np.isfinite(c):
                    raise ValueError(f"bad polynomial term (p={p}, q={q}, c={c})")

    def _eval_coord(self, terms, z, zbar):
        out = np.zeros_like(z, dtype=complex)
        for p, q, c in terms:
            t = np.full_like(z, c, dtype=complex)
            if p:
                t = t * z**p
            if q:
                t = t * zbar**q
            out += t
        return out

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """Values in C^n, stacked on the last axis."""
        zbar = np.conj(z)
        return np.stack([self._eval_coord(t, z, zbar) for t in self.coords], axis=-1)

    def d_z(self) -> "PolynomialMap":
        return PolynomialMap(
            self.n,
            [[(p - 1, q, c * p) for (p, q, c) in t if p] for t in self.coords],
        )

    def d_zbar(self) -> "PolynomialMap":
        return PolynomialMap(
            self.n,
            [[(p, q - 1, c * q) for (p, q, c) in t if q] for t in self.coords],
        )

    def laplacian_map(self) -> "PolynomialMap":
        return PolynomialMap(
            self.n,
            [
                [(p - 1, q - 1, 4.0 * c * p * q) for (p, q, c) in t if p and q]
                for t in self.coords
            ],
        )

    def rotate(self, alpha: float) -> "PolynomialMap":
        """Precompose with the disk rotation z -> e^{i alpha} z."""
        ph = np.exp(1j * alpha)
        return PolynomialMap(
            self.n,
            [
                [(p, q, c * ph**p * np.conj(ph) ** q) for (p, q, c) in t]
                for t in self.coords
            ],
        )


def _complex_to_real_vectors(w: np.ndarray) -> np.ndarray:
    return np.concatenate([w.real, w.imag], axis=-1)


MAP_CATALOG = {
    # z1 = Re z, z2 = Im z
    "f1": (2, [[(1, 0, 0.5), (0, 1, 0.5)], [(1, 0, -0.5j), (0, 1, 0.5j)]]),
    # z1 = z, z2 = -i z (holomorphic)
    "f2": (2, [[(1, 0, 1.0)], [(1, 0, -1.0j)]]),
    # z1 = zbar (anti-holomorphic)
    "f3": (2, [[(0, 1, 1.0)], []]),
    # z1 = Re z, z2 = -Im z
    "f4": (2, [[(1, 0, 0.5), (0, 1, 0.5)], [(1, 0, 0.5j), (0, 1, -0.5j)]]),
}


class DiskMap:
    """A map f: D -> R^{2n} sampled on a DiskGrid.

    values has shape (n_r, n_theta, 2n); boundary is the trace f(1, theta_m)
    of shape (n_theta, 2n). analytic, when present, is a PolynomialMap whose
    exact derivative closures take precedence over spectral differentiation.
    """

    def __init__(self, grid: DiskGrid, n: int, values: np.ndarray, boundary: np.ndarray,
                 analytic: Optional[PolynomialMap] = None, name: str = "sampled"):
        self.grid = grid
        self.n = n
        self.values = np.asarray(values, dtype=float)
        self.boundary = np.asarray(boundary, dtype=float)
        self.analytic = analytic
        self.name = name
        if self.values.shape != (grid.n_r, grid.n_theta, 2 * n):
            raise ValueError(f"values shape {self.values.shape} does not match grid/n")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("map values contain non-finite entries")
        self._derivs = None

    @classmethod
    def from_polynomial(cls, pm: PolynomialMap, grid: DiskGrid, name: str = "poly") -> "DiskMap":
        z = grid.r[:, None] * np.exp(1j * grid.theta)[None, :]
        zb = np.exp(1j * grid.theta)
        values = _complex_to_real_vectors(pm.evaluate(z))
        boundary = _complex_to_real_vectors(pm.evaluate(zb))
        return cls(grid, pm.n, values, boundary, analytic=pm, name=name)

    def derivatives(self) -> "Derivatives":
        if self._derivs is None:
            self._derivs = derivatives(self)
        return self._derivs

    def rotated(self, steps: int) -> "DiskMap":
        """Precompose with the rotation by steps grid angles (exact resample)."""
        return DiskMap(
            self.grid,
            self.n,
            np.roll(self.values, -steps, axis=1),
            np.roll(self.boundary, -steps, axis=0),
            analytic=None,
            name=f"{self.name}-rot{steps}",
        )


@dataclass
class Derivatives:
    """First-derivative fields of a DiskMap on the grid and its boundary."""

    f_x: np.ndarray
    f_y: np.ndarray
    f_r: np.ndarray
    f_theta: np.ndarray
    f_z: np.ndarray      # (f_x - J f_y)/2, stored as a real 2n-vector field
    f_zbar: np.ndarray   # (f_x + J f_y)/2
    boundary_f_r: np.ndarray
    boundary_f_theta: np.ndarray
    boundary_f_x: np.ndarray
    boundary_f_y: np.ndarray

    @property
    def boundary_f_zbar(self) -> np.ndarray:
        """Boundary trace of (f_x + J f_y)/2 (note: not (f_r + J f_theta)/2,
        which differs from it by the unit phase e^{-i theta})."""
        return 0.5 * (self.boundary_f_x + apply_j(self.boundary_f_y))


def derivatives(f: DiskMap) -> Derivatives:
    """First derivatives of f; analytic closures take precedence."""
    grid = f.grid
    if f.analytic is not None:
        z = grid.r[:, None] * np.exp(1j * grid.theta)[None, :]
        zb = np.exp(1j * grid.theta)
        dz = f.analytic.d_z()
        dzb = f.analytic.d_zbar()
        for pts, dest in ((z, "grid"), (zb, "bdry")):
            wz = dz.evaluate(pts)
            wzb = dzb.evaluate(pts)
            cx = wz + wzb            # df/dx in C^n
            cy = 1j * (wz - wzb)     # df/dy in C^n
            fx = _complex_to_real_vectors(cx)
            fy = _complex_to_real_vectors(cy)
            if dest == "grid":
                g_fx, g_fy = fx, fy
            else:
                b_fx, b_fy = fx, fy
        cos_t = grid.cos_t[:, None]
        sin_t = grid.sin_t[:, None]
        fr = grid.cos_t[None, :, None] * g_fx + grid.sin_t[None, :, None] * g_fy
        ft = grid.r[:, None, None] * (
            -grid.sin_t[None, :, None] * g_fx + grid.cos_t[None, :, None] * g_fy
        )
        b_fr = cos_t * b_fx + sin_t * b_fy
        b_ft = -sin_t * b_fx + cos_t * b_fy
        fx, fy = g_fx, g_fy
    else:
        fr = grid.radial_derivative(f.values)
        ft = grid.theta_derivative(f.values)
        fx, fy = grid.cartesian_from_polar(fr, ft)
        b_fr = grid.boundary_radial_derivative(f.values, f.boundary)
        b_ft = grid.theta_derivative(f.boundary, axis=0)
        cos_t = grid.cos_t[:, None]
        sin_t = grid.sin_t[:, None]
        # chain rule at r = 1
        b_fx = cos_t * b_fr - sin_t * b_ft
        b_fy = sin_t * b_fr + cos_t * b_ft
    f_zbar = 0.5 * (fx + apply_j(fy))
    f_z = 0.5 * (fx - apply_j(fy))
    return Derivatives(
        f_x=fx, f_y=fy, f_r=fr, f_theta=ft, f_z=f_z, f_zbar=f_zbar,
        boundary_f_r=b_fr, boundary_f_theta=b_ft,
        boundary_f_x=b_fx, boundary_f_y=b_fy,
    )


@dataclass
class EnergyReport:
    """The three energies and the pulled-back area form integral."""

    e_full: float
    e_del: float
    e_dbar: float
    kahler: float

    def to_json_dict(self):
        return {
            "e_full": self.e_full,
            "e_del": self.e_del,
            "e_dbar": self.e_dbar,
            "kahler": self.kahler,
        }


def energies(f: DiskMap) -> EnergyReport:
    d = f.derivatives()
    e_del, e_dbar, kahler, e_full = _kernels.energy_densities(d.f_x, d.f_y)
    grid = f.grid
    return EnergyReport(
        e_full=grid.integrate_disk(e_full),
        e_del=grid.integrate_disk(e_del),
        e_dbar=grid.integrate_disk(e_dbar),
        kahler=grid.integrate_disk(kahler),
    )


def dbar_density(f: DiskMap) -> np.ndarray:
    """Pointwise dbar-energy density |f_x + J f_y|^2 / 4 on the grid."""
    d = f.derivatives()
    _, e_dbar, _, _ = _kernels.energy_densities(d.f_x, d.f_y)
    return e_dbar


def homotopy_invariance_check(f: DiskMap, eta: DiskMap, steps: int = 8) -> float:
    """Max drift of E' - E'' along f + t eta for t in [0, 1].

    eta must have (numerically) zero boundary trace: the difference of the
    partial energies is the pulled-back area form integral, which is
    invariant under fixed-boundary deformations.
    """
    sup_trace = float(np.max(np.abs(eta.boundary)))
    if sup_trace > 1e-12:
        raise InvalidVariationError(
            f"eta has nonzero boundary trace (sup {sup_trace:.3e})"
        )
    ts = np.linspace(0.0, 1.0, steps + 1)
    vals = []
    for t in ts:
        g = DiskMap(
            f.grid, f.n, f.values + t * eta.values, f.boundary, analytic=None,
            name=f"{f.name}+t*eta",
        )
        rep = energies(g)
        vals.append(rep.e_del - rep.e_dbar)
    vals = np.asarray(vals)
    return float(np.max(np.abs(vals - vals[0])))


def make_map(spec, grid: DiskGrid) -> DiskMap:
    """Build a DiskMap from a catalog name or a polynomial spec.

    Accepted specs:
      * a catalog name: "f1", "f2", "f3", "f4";
      * a dict {"n": n, "coords": [[{"zp": p, "zq": q, "re": a, "im": b}, ..],
        .. n lists ..]} with coordinate polynomials sum c z^p zbar^q.
    """
    if isinstance(spec, str):
        if spec not in MAP_CATALOG:
            raise KeyError(f"unknown map {spec!r}; catalog: {sorted(MAP_CATALOG)}")
        n, coords = MAP_CATALOG[spec]
        return DiskMap.from_polynomial(PolynomialMap(n, coords), grid, name=spec)
    if isinstance(spec, dict):
        n = int(spec["n"])
        coords = [
            [(t["zp"], t["zq"], t.get("re", 0.0) + 1j * t.get("im", 0.0)) for t in coord]
            for coord in spec["coords"]
        ]
        return DiskMap.from_polynomial(
            PolynomialMap(n, coords), grid, name=spec.get("name", "custom")
        )
    raise TypeError(f"cannot build a map from {type(spec).__name__}")
