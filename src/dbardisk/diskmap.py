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
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .errors import (
    InvalidVariationError,
    ResolutionError,
    require_number,
    require_objects,
)
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
    # barycentric weights; scaling the differences by 4 = 1 / capacity of [0, 1]
    # keeps their products in range past 512 nodes and cancels exactly
    w = 1.0 / np.prod(4.0 * diff, axis=1)
    w = w / np.max(np.abs(w))
    d = (w[None, :] / w[:, None]) / diff
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


# largest grid: the radial nodes and operators are dense n_r x n_r matrices,
# and every sampled field holds n_r n_theta nodes
MAX_N_R = 1024
MAX_NODES = 2**20


@lru_cache(maxsize=4)
def _radial_rule(n_r: int):
    """Read-only Gauss-Legendre r on (0, 1), weights for int_0^1 . dr, d/dr and
    its row at r = 1 over [r, 1], shared by the grids of one n_r (8 MB at 1024)."""
    x, w = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (x + 1.0)
    rule = (r, 0.5 * w, _differentiation_matrix(r),
            _differentiation_matrix(np.concatenate([r, [1.0]]))[-1])
    for a in rule:
        a.flags.writeable = False
    return rule


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
        if n_r > MAX_N_R or n_r * n_theta > MAX_NODES:
            raise ResolutionError(
                f"grid too large: n_r={n_r}, n_theta={n_theta} (at most n_r = "
                f"{MAX_N_R} and {MAX_NODES} nodes)"
            )
        self.n_r = n_r
        self.n_theta = n_theta
        self.r, self.w_r, self._d_r, self._d1_row = _radial_rule(n_r)
        self.theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
        self.w_theta = 2.0 * np.pi / n_theta
        self.cos_t = np.cos(self.theta)
        self.sin_t = np.sin(self.theta)
        self.inv_r = 1.0 / self.r
        # 2D weights for int_D . dx dy = int . r dr dtheta
        self.w_disk = (self.w_r * self.r)[:, None] * np.full(n_theta, self.w_theta)[None, :]
        # i k over the full spectrum (complex input) and over the half
        # spectrum of rfft (real input); the Nyquist mode is last in the half
        # spectrum and at n_theta // 2 in the full one
        self._ik = 1j * np.fft.fftfreq(n_theta, d=1.0 / n_theta)
        self._ik_half = 1j * np.arange(n_theta // 2 + 1.0)

    # -- quadrature ---------------------------------------------------------

    def integrate_disk(self, density: np.ndarray) -> float:
        """Integrate a (n_r, n_theta) density over the disk (dx dy measure)."""
        return float(np.sum(self.w_disk * density))

    def integrate_boundary(self, g: np.ndarray) -> float:
        """Integrate (n_theta,) samples over the boundary circle (dtheta)."""
        return self.w_theta * np.sum(g, axis=0)

    # -- differentiation ----------------------------------------------------

    def theta_derivative(self, arr: np.ndarray, order: int = 1, axis: int = 1) -> np.ndarray:
        """order-th spectral d/dtheta along axis (length n_theta).

        Real input takes a real FFT pair and stays real; complex input a
        complex pair. Odd orders zero the Nyquist mode, even orders keep its
        real multiplier (i n_theta / 2)^order.
        """
        real = np.isrealobj(arr)
        mult = (self._ik_half if real else self._ik) ** order
        if order % 2:
            mult[self.n_theta // 2] = 0.0
        shape = [1] * arr.ndim
        shape[axis] = mult.size
        if real:
            spec = np.fft.rfft(arr, axis=axis)
            spec *= mult.reshape(shape)
            return np.fft.irfft(spec, n=self.n_theta, axis=axis)
        spec = np.fft.fft(arr, axis=axis)
        spec *= mult.reshape(shape)
        return np.fft.ifft(spec, axis=axis)

    def radial_derivative(self, arr: np.ndarray) -> np.ndarray:
        """Differentiate along axis 0 (the radial axis)."""
        return (self._d_r @ arr.reshape(self.n_r, -1)).reshape(arr.shape)

    def boundary_radial_derivative(self, values: np.ndarray, trace: np.ndarray) -> np.ndarray:
        """d/dr at r = 1 from interior samples plus the boundary trace."""
        interior = self._d1_row[:-1] @ values.reshape(self.n_r, -1)
        return interior.reshape(trace.shape) + self._d1_row[-1] * trace

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """f_rr + f_r / r + f_tt / r^2 on the grid."""
        r = self.r[:, None, None]
        fr = self.radial_derivative(values)
        lap = self.radial_derivative(fr)
        lap += np.divide(fr, r, out=fr)
        ftt = self.theta_derivative(values, order=2)
        lap += np.divide(ftt, r**2, out=ftt)
        return lap

    def dirichlet_energy(self, trace: np.ndarray) -> np.ndarray:
        """int_D |grad u|^2 per column of the harmonic extension u of rim samples
        (n_theta, ...): 2 pi sum_m |m| |u_m|^2 over the Fourier coefficients
        u_m, since r^|m| e^{i m theta} has energy 2 pi |m|."""
        spec = np.fft.fft(trace, axis=0) / self.n_theta
        return 2.0 * np.pi * (np.abs(self._ik) @ (spec.real**2 + spec.imag**2))


# ---------------------------------------------------------------------------
# polynomial maps in z and zbar, evaluated in polar form


def polar_sum(terms, r: np.ndarray, theta: np.ndarray, width: int) -> np.ndarray:
    """Sum of Re(c r^a e^{i k theta}) over terms (a, k, c, col), each into
    column col, on the tensor grid r x theta: a real (r.size, theta.size,
    width) array, 0.0 in columns without terms. The terms add up, in order,
    into radial coefficients R_k per distinct k (one power r^a per distinct
    a), and Re R_k cos k theta - Im R_k sin k theta over all k is one matrix
    product with the trig table, batched over r when width > 1."""
    powers = {a: r**a for a in {t[0] for t in terms}}
    freqs = list(dict.fromkeys(t[1] for t in terms))
    slot = {k: i for i, k in enumerate(freqs)}
    radial = np.zeros((r.size, len(freqs), width), dtype=complex)
    for a, k, c, col in terms:
        radial[:, slot[k], col] += c * powers[a]
    ang = np.multiply.outer(freqs, theta)
    trig = np.vstack([np.cos(ang), -np.sin(ang)])
    coef = np.concatenate([radial.real, radial.imag], axis=1)
    if width == 1:
        # one (r.size, 2K) x (2K, theta.size) product: a scalar function keeps
        # its last digits, which the f4 family's second differences amplify
        return (coef[..., 0] @ trig)[..., None]
    return np.matmul(trig.T, coef)


# polar terms (r-power, frequency, coefficient) of the fields of one term
# c z^p zbar^q = c r^(p+q) e^{i (p-q) theta}: d/dz and d/dzbar lower p and
# q, d/dx = d/dz + d/dzbar, d/dy = i (d/dz - d/dzbar) and the Laplacian is
# 4 d/dz d/dzbar. A vanishing coefficient drops its term.
_POLAR_TERMS = {
    "values": lambda p, q, c: [(p + q, p - q, c)],
    "f_r": lambda p, q, c: [(p + q - 1, p - q, (p + q) * c)],
    "f_theta": lambda p, q, c: [(p + q, p - q, 1j * (p - q) * c)],
    "f_x": lambda p, q, c: [(p + q - 1, p - q - 1, p * c), (p + q - 1, p - q + 1, q * c)],
    "f_y": lambda p, q, c: [(p + q - 1, p - q - 1, 1j * p * c), (p + q - 1, p - q + 1, -1j * q * c)],
    "f_z": lambda p, q, c: [(p + q - 1, p - q - 1, p * c)],
    "f_zbar": lambda p, q, c: [(p + q - 1, p - q + 1, q * c)],
    "laplacian": lambda p, q, c: [(p + q - 2, p - q, 4 * p * q * c)],
}


class PolynomialMap:
    """f: D -> C^n with each coordinate a polynomial sum c z^p zbar^q.

    ``sample`` evaluates the map, its first derivatives and its Laplacian
    exactly, as the analytic evaluator of catalog maps.
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

    def hopf(self, grid: DiskGrid) -> Optional[np.ndarray]:
        """phi = 4 sum_j (dw_j/dz)(d conj(w_j)/dz) on the grid as (Re phi, Im phi),
        (n_r, n_theta, 2), or None without terms: terms c z^p zbar^q, c' z^p' zbar^q'
        of w_j add 4 p q' c conj(c') r^(p+q+p'+q'-2) e^{i (p-q-p'+q'-2) theta}."""
        terms = [(p + q + p2 + q2 - 2, p - q - p2 + q2 - 2, d) for coord in self.coords
                 for p, q, c in coord for p2, q2, c2 in coord
                 if (d := 4 * p * q2 * c * c2.conjugate())]
        if not terms:
            return None
        terms = [(a, k, d, 0) for a, k, d in terms] + [
            (a, k, complex(d.imag, -d.real), 1) for a, k, d in terms]
        return polar_sum(terms, grid.r, grid.theta, 2)

    def sample(self, grid: DiskGrid, field: str = "values",
               boundary: bool = False) -> np.ndarray:
        """A field of _POLAR_TERMS as real 2n-vectors on the grid,
        (n_r, n_theta, 2n), or on the rim, (n_theta, 2n)."""
        n, derive = self.n, _POLAR_TERMS[field]
        terms = [(a, k, d, j) for j, coord in enumerate(self.coords)
                 for p, q, c in coord for a, k, d in derive(p, q, c) if d]
        if boundary:
            # at r = 1, term by term the complex product d e^{i k theta}: for
            # degree <= 1 exactly what complex arithmetic gives for d z or d zbar
            w = np.zeros((grid.n_theta, n), dtype=complex)
            for _, k, d, j in terms:
                w[:, j] += d * np.exp(1j * k * grid.theta)
            return np.concatenate([w.real, w.imag], axis=-1)
        # Re into x_j, and Im(d r^a e^{i k theta}) = Re(-i d r^a e^{i k theta}) into y_j
        terms += [(a, k, complex(d.imag, -d.real), n + j) for a, k, d, j in terms]
        return polar_sum(terms, grid.r, grid.theta, 2 * n)

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


def _finite(samples: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(samples)):
        raise ValueError("map values contain non-finite entries")
    return samples


class DiskMap:
    """A map f: D -> R^{2n} sampled on a DiskGrid.

    values has shape (n_r, n_theta, 2n); boundary is the trace f(1, theta_m)
    of shape (n_theta, 2n). analytic, when present, is a PolynomialMap whose
    exact derivatives take precedence over spectral differentiation; values
    None leaves the interior samples to it, formed and checked on first read.
    """

    def __init__(self, grid: DiskGrid, n: int, values: Optional[np.ndarray], boundary: np.ndarray,
                 analytic: Optional[PolynomialMap] = None, name: str = "sampled"):
        self.grid = grid
        self.n = n
        self.boundary = _finite(np.asarray(boundary, dtype=float))
        self.analytic = analytic
        self.name = name
        self._values = None if values is None else _finite(np.asarray(values, dtype=float))
        if values is not None and self._values.shape != (grid.n_r, grid.n_theta, 2 * n):
            raise ValueError(f"values shape {self._values.shape} does not match grid/n")
        self._derivs = self._laplacian = None
        self._boundary_state = None  # (df, state), cached by criticality.boundary_state

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = _finite(self.analytic.sample(self.grid))
        return self._values

    @classmethod
    def from_polynomial(cls, pm: PolynomialMap, grid: DiskGrid, name: str = "poly") -> "DiskMap":
        return cls(grid, pm.n, None, pm.sample(grid, boundary=True), analytic=pm, name=name)

    def derivatives(self) -> "Derivatives":
        if self._derivs is None:
            self._derivs = derivatives(self)
        return self._derivs

    def laplacian(self) -> Optional[np.ndarray]:
        """Componentwise Laplacian on the grid, read-only and cached: exact from
        the analytic evaluator, else ``DiskGrid.laplacian`` of the samples.
        None for a harmonic polynomial map: no term c z^p zbar^q has p q c != 0."""
        if self._laplacian is None:
            if self.analytic is not None and not any(
                    p * q * c for coord in self.analytic.coords for p, q, c in coord):
                return None
            self._laplacian = (self.grid.laplacian(self.values) if self.analytic is None
                               else self.analytic.sample(self.grid, "laplacian"))
            self._laplacian.flags.writeable = False
        return self._laplacian

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


class Derivatives:
    """First-derivative fields of a DiskMap as real 2n-vector arrays: f_r,
    f_theta, f_x, f_y, f_z = (f_x - J f_y)/2 and f_zbar = (f_x + J f_y)/2 on
    the grid, and their boundary traces boundary_f_r, ... (boundary_f_zbar is
    not (f_r + J f_theta)/2, which differs from it by the phase e^{-i theta}).

    Fields given at construction are stored, the others formed on first read
    and cached: from the polar terms of a map with an analytic evaluator, and
    for a sampled map from its spectral f_r and f_theta by the chain rule.
    """

    FIELDS = ("f_r", "f_theta", "f_x", "f_y", "f_z", "f_zbar")

    def __init__(self, grid: DiskGrid, analytic: Optional[PolynomialMap] = None, **fields):
        self.grid, self._analytic = grid, analytic
        vars(self).update(fields)

    def __getattr__(self, name):
        # reached only for a field not formed yet
        field = name.removeprefix("boundary_")
        if name.startswith("_") or field not in self.FIELDS:
            raise AttributeError(name)
        if self._analytic is not None:
            value = self._analytic.sample(self.grid, field, boundary=field != name)
        elif name in ("f_x", "f_y"):
            g = self.grid
            self.f_x, self.f_y = _kernels.polar_to_cartesian(self.f_r, self.f_theta,
                                                             g.inv_r, g.cos_t, g.sin_t)
            return getattr(self, name)
        else:
            x, y = (getattr(self, name.replace(field, xy)) for xy in ("f_x", "f_y"))
            value = 0.5 * (x - apply_j(y)) if field == "f_z" else 0.5 * (x + apply_j(y))
        setattr(self, name, value)
        return value

    def frame_pair(self):
        """The derivatives along an oriented orthonormal frame that the
        fields already hold: (f_x, f_y) of an analytic map, else
        (f_r, f_theta / r)."""
        if self._analytic is not None:
            return self.f_x, self.f_y
        return self.f_r, self.f_theta * self.grid.inv_r[:, None, None]


def derivatives(f: DiskMap) -> Derivatives:
    """First derivatives of f: exact from its analytic evaluator when it has
    one, else spectral. Either way the boundary traces are formed at once,
    and the chain rule at r = 1 takes (f_x, f_y) to (f_r, f_theta) or back."""
    grid = f.grid
    cos_t = grid.cos_t[:, None]
    sin_t = grid.sin_t[:, None]
    if f.analytic is not None:
        b_fx = f.analytic.sample(grid, "f_x", boundary=True)
        b_fy = f.analytic.sample(grid, "f_y", boundary=True)
        return Derivatives(grid, f.analytic, boundary_f_x=b_fx, boundary_f_y=b_fy,
                           boundary_f_r=cos_t * b_fx + sin_t * b_fy,
                           boundary_f_theta=-sin_t * b_fx + cos_t * b_fy)
    b_fr = grid.boundary_radial_derivative(f.values, f.boundary)
    b_ft = grid.theta_derivative(f.boundary, axis=0)
    return Derivatives(grid, f_r=grid.radial_derivative(f.values),
                       f_theta=grid.theta_derivative(f.values),
                       boundary_f_r=b_fr, boundary_f_theta=b_ft,
                       boundary_f_x=cos_t * b_fr - sin_t * b_ft,
                       boundary_f_y=sin_t * b_fr + cos_t * b_ft)


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
    e_del, e_dbar, kahler, e_full = _kernels.energy_densities(*f.derivatives().frame_pair())
    grid = f.grid
    return EnergyReport(
        e_full=grid.integrate_disk(e_full),
        e_del=grid.integrate_disk(e_del),
        e_dbar=grid.integrate_disk(e_dbar),
        kahler=grid.integrate_disk(kahler),
    )


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
        n = require_number("map n", spec.get("n"), integer=True, minimum=1)
        coords = spec.get("coords")
        if not isinstance(coords, list):
            raise ValueError(f"map coords must be a list, got {coords!r}")
        coords = [
            [(require_number("map zp", t.get("zp"), integer=True, minimum=0),
              require_number("map zq", t.get("zq"), integer=True, minimum=0),
              require_number("map re", t.get("re", 0.0))
              + 1j * require_number("map im", t.get("im", 0.0)))
             for t in require_objects("map coordinate", coord)]
            for coord in coords
        ]
        return DiskMap.from_polynomial(
            PolynomialMap(n, coords), grid, name=spec.get("name", "custom")
        )
    raise ValueError(f"cannot build a map from {type(spec).__name__}")
