"""Second variation of the dbar-energy: index forms, Gram spectra, oracles.

At a critical map f (harmonic, f_r + J f_theta = lambda nu on dD) the
second variation along an admissible field V is

    I(V, V) = 1/2 [ int_D ||grad V||^2 dx dy
                    + int_dD lambda <A, nu> dtheta
                    + int_dD <J dV/dtheta, V> dtheta ]

where A is the boundary acceleration of the deforming family. The flat
ambient curvature term is identically zero. Under the hypersurface policy
the family is confined to {rho = 0}, which forces

    <A, nu> = - Hess rho (V, V) / |grad rho|

pointwise on dD; only this normal component matters at a critical point.
I(V, V) is exactly the second t-derivative of E''(f_t) for any family with
velocity V whose boundary stays on the hypersurface, which is what
``fd_second_variation`` checks independently.

The complex (Hermitian) version for admissible sections V of the
complexified pullback bundle is

    I(V, V) = 2 int_D ||d V / dzbar||^2 dx dy
              + 1/2 int_dD lambda <<grad_V Vbar, nu>> dtheta
              - i/2 int_dD ( dV/dtheta + i J V, V ) dtheta

with (.,.) the complex-bilinear pairing; for holomorphic (1,0) sections
only the middle boundary term survives and is minus the Levi form paired
against lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .criticality import BoundaryState, boundary_state
from .diskmap import DiskGrid, DiskMap, polar_sum
from .errors import (
    AdmissibilityError,
    ConstraintViolationError,
    EmptyBasisError,
    InvalidVariationError,
    require_number,
    require_objects,
)
from .geometry import DefiningFunction, apply_j, hermitian

__all__ = [
    "VariationField",
    "GramSpectrum",
    "BoundaryState",
    "boundary_state",
    "admissibility",
    "index_form_real",
    "index_form_complex",
    "assemble_gram",
    "fd_second_variation",
    "FdSecondVariation",
    "hypersurface_family",
    "PolarPoly",
    "random_polar_poly",
    "f4_family",
    "f4_variation_field",
    "f4_closed_forms",
    "LogCutoff",
    "cutoff_stability_check",
    "admissible_basis",
    "interior_bumps",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class VariationField:
    """A section of the pullback tangent bundle sampled on the grid.

    values: (n_r, n_theta, 2n), real for ordinary variations or complex for
    (1,0) sections. boundary: trace on dD, (n_theta, 2n). The boundary
    acceleration of the index form always comes from the hypersurface
    policy, <A, nu> = -Hess rho (V, V) / |grad rho|.

    A field built by ``separable`` or ``constant`` is stored only as its
    factors, values[i, j, :] = profile(r_i) * angular[j, :]; values, angular
    and boundary are read-only, so the field always equals its factors. The
    cutoff machinery evaluates such a field on radii off the grid and Gram
    assembly factors its interior block. A field built from samples has no
    factors (profile and angular are None) and holds its values. Fields that
    their builders know in closed form (separable ones, the sections of
    ``holsec.build_U`` and their real and imaginary parts) compute values on
    each read, as a fresh read-only array, and never store them.
    """

    profile = None
    angular = None
    # interior terms that the field's structure gives, when it does: those of
    # index_form_complex(V) and of index_form_real on Re V and on Im V
    _interior = None

    def __init__(self, grid: DiskGrid, n: int, values: np.ndarray, boundary: np.ndarray,
                 label: str = "field"):
        expect = (grid.n_r, grid.n_theta, 2 * n)
        if values.shape != expect:
            raise ValueError(f"values shape {values.shape}, expected {expect}")
        self.grid, self.n, self._values, self.boundary = grid, n, values, boundary
        self.label = label

    @classmethod
    def _lazy(cls, grid, n, build, boundary, label, interior=None):
        """A field whose values build() forms on each read."""
        V = cls.__new__(cls)
        V.grid, V.n, V._values, V._build = grid, n, None, build
        V.boundary, V.label, V._interior = boundary, label, interior
        return V

    @classmethod
    def constant(cls, grid, n, vector, label="const"):
        angular = np.broadcast_to(np.asarray(vector), (grid.n_theta, 2 * n))
        return cls.separable(grid, n, np.polynomial.Polynomial([1.0]), angular, label)

    @classmethod
    def separable(cls, grid, n, profile, angular, label="separable"):
        angular, expect = _frozen(np.array(angular)), (grid.n_theta, 2 * n)
        if angular.shape != expect:
            raise ValueError(f"angular shape {angular.shape}, expected {expect}")
        V = cls._lazy(grid, n, lambda: profile(grid.r)[:, None, None] * angular[None, :, :],
                      _frozen(profile(1.0) * angular), label)
        V.profile, V.angular = profile, angular
        return V

    @property
    def values(self) -> np.ndarray:
        return self._values if self._values is not None else _frozen(self._build())

    def gradients(self):
        """(V_r, V_theta / r): the gradient in the orthonormal polar frame,
        so <grad V, grad W> = <V_r, W_r> + <V_theta, W_theta> / r^2."""
        values = self.values
        fr = self.grid.radial_derivative(values)
        ft = self.grid.theta_derivative(values)
        return fr, ft * self.grid.inv_r[:, None, None]

    def _part(self, take, slot, label):
        # a real field a has 1/2 |a_r + i a_theta / r|^2 = |grad a|^2 / 2
        g = None if self._interior is None else self._interior[slot]
        interior = None if g is None else (0.5 * g, g, 0.0)
        return VariationField._lazy(self.grid, self.n, lambda: take(self.values).copy(),
                                    take(self.boundary).copy(), label, interior)

    @property
    def real_part(self):
        return self._part(np.real, 1, f"Re({self.label})")

    @property
    def imag_part(self):
        return self._part(np.imag, 2, f"Im({self.label})")


# ---------------------------------------------------------------------------
# admissibility

# largest tangency defect sup |<V, nu>| (or sup |<<V, f_zbar>>|) of a field
# the index forms and the Gram assembly accept
TOL_ADM = 1e-7


@dataclass
class AdmissibilityCheck:
    real_sup: float
    complex_sup: float


def admissibility(V: VariationField, f: DiskMap,
                  df: DefiningFunction) -> AdmissibilityCheck:
    """Tangency diagnostics of a variation field along the boundary.

    real_sup is sup_theta |<V, nu>| (variations must keep f(dD) on dN).
    complex_sup is sup_theta |<<W, f_zbar>>| for W = V - i J V, the
    criterion for V and J V to be velocities of admissible deformations of
    a critical map. For a complex input V, W = V itself.
    """
    state = boundary_state(f, df)
    vb = V.boundary
    if np.iscomplexobj(vb):
        w = vb
        real_sup = float(np.max(np.abs(np.sum(vb.real * state.nu, axis=-1))))
    else:
        w = vb - 1j * apply_j(vb)
        real_sup = float(np.max(np.abs(np.sum(vb * state.nu, axis=-1))))
    g = f.derivatives().boundary_f_zbar
    complex_sup = float(np.max(np.abs(hermitian(w, g))))
    return AdmissibilityCheck(real_sup=real_sup, complex_sup=complex_sup)


def _tangent_traces(state: BoundaryState, fields) -> np.ndarray:
    """Stacked boundary traces (m, n_theta, 2n) of real fields, each with
    sup |<V_a, nu>| <= TOL_ADM.

    The first field past TOL_ADM raises AdmissibilityError carrying its own
    sup; a complex field raises TypeError.
    """
    if any(np.iscomplexobj(V.boundary) for V in fields):
        raise TypeError("real index forms take real fields; split complex "
                        "sections into real and imaginary parts")
    vb = np.array([V.boundary for V in fields], dtype=float)
    tangency = np.max(np.abs(np.sum(vb * state.nu, axis=-1)), axis=-1)
    bad = np.flatnonzero(tangency > TOL_ADM)
    if bad.size:
        V, sup = fields[bad[0]], float(tangency[bad[0]])
        raise AdmissibilityError(
            f"field {V.label!r} is not tangent to the boundary "
            f"(sup |<V, nu>| = {sup:.3e})",
            measured_sup=sup,
        )
    return vb


# ---------------------------------------------------------------------------
# index forms


def _hess_pair(state: BoundaryState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hess rho (a, b) per boundary node for (n_theta, 2n) real fields."""
    return np.einsum("mij,mi,mj->m", state.hess, a, b)


def index_form_real(f: DiskMap, df: DefiningFunction, V: VariationField,
                    Vb: Optional[VariationField] = None) -> float:
    """Polarized index form I(V, Vb) of the second variation at f.

    With the hypersurface acceleration policy the boundary term is
    - int lambda Hess rho (V, Vb) / |grad rho| dtheta. The circulation term
    is symmetrized over (V, Vb).
    """
    state = boundary_state(f, df)
    grid = f.grid
    diagonal = Vb is None or Vb is V
    W = V if diagonal else Vb
    vb, wb = _tangent_traces(state, [V] if diagonal else [V, W])[[0, -1]]

    if diagonal and V._interior is not None:
        interior = V._interior[1]
    else:
        vr, vt = V.gradients()
        wr, wt = (vr, vt) if diagonal else W.gradients()
        interior = grid.integrate_disk(np.sum(vr * wr + vt * wt, axis=-1))

    accn = -_hess_pair(state, vb, wb) / state.grad_norm
    acc_term = grid.integrate_boundary(state.lam * accn)

    vtb = grid.theta_derivative(vb, axis=0)
    circ = np.sum(apply_j(vtb) * wb, axis=-1)
    if not diagonal:
        wtb = grid.theta_derivative(wb, axis=0)
        circ = 0.5 * (circ + np.sum(apply_j(wtb) * vb, axis=-1))
    circ_term = grid.integrate_boundary(circ)

    return 0.5 * (interior + acc_term + circ_term)


def index_form_complex(f: DiskMap, df: DefiningFunction, V: VariationField) -> float:
    """Hermitian index form on complex sections (flat curvature term).

    For admissible holomorphic (1,0) sections the interior and circulation
    terms vanish and the value reduces to the boundary integral
    1/2 int lambda <<grad_V Vbar, nu>> dtheta, negative whenever the Levi
    form is positive along V and lambda > 0.
    """
    state = boundary_state(f, df)
    grid = f.grid
    chk = admissibility(V, f, df)
    if chk.complex_sup > TOL_ADM:
        raise AdmissibilityError(
            f"section {V.label!r} is not admissible "
            f"(sup |<<V, f_zbar>>| = {chk.complex_sup:.3e})",
            measured_sup=chk.complex_sup,
        )
    if V._interior is not None:
        t_interior = V._interior[0]
    else:
        # d/dzbar = e^{i theta} (d_r + (i / r) d_theta) / 2, so
        # 2 |dV/dzbar|^2 = |V_r + i V_theta / r|^2 / 2
        vr, vt = V.gradients()
        t_interior = 0.5 * grid.integrate_disk(np.sum(np.abs(vr + 1j * vt) ** 2, axis=-1))

    a = V.boundary.real
    b = V.boundary.imag
    herm_acc = -(
        _hess_pair(state, a, a)
        + _hess_pair(state, b, b)
        + 1j * (_hess_pair(state, b, a) - _hess_pair(state, a, b))
    ) / state.grad_norm
    t_acc = 0.5 * grid.integrate_boundary(state.lam * herm_acc)

    vtb = grid.theta_derivative(V.boundary.astype(complex), axis=0)
    jv = apply_j(V.boundary.astype(complex))
    bilinear = np.sum((vtb + 1j * jv) * V.boundary, axis=-1)  # no conjugation
    t_circ = -0.5j * grid.integrate_boundary(bilinear)

    total = t_interior + t_acc + t_circ
    return float(np.real(total))


# ---------------------------------------------------------------------------
# Gram assembly


@dataclass
class GramSpectrum:
    """Spectrum of the index form restricted to a finite variation basis."""

    matrix: np.ndarray
    eigenvalues: np.ndarray
    negative_count: int
    tol_neg: float
    basis: str
    labels: list

    def to_json_dict(self):
        return {
            "eigenvalues": self.eigenvalues.tolist(),
            "negative_count": self.negative_count,
            "tol_neg": self.tol_neg,
            "basis": self.basis,
            "labels": list(self.labels),
        }


def _separable_interior(grid: DiskGrid, basis):
    """int_D <grad V_a, grad V_b> dx dy for fields V_a = p_a(r) A_a(theta),
    and the theta-derivatives (m, n_theta, 2n) of their traces p_a(1) A_a.

    |grad V|^2 = |V_r|^2 + |V_theta|^2 / r^2, so the integral is
    w_theta (R1 o T1 + R2 o T2): radial Grams of p' (weight w_r r) and of p
    (weight w_r / r) times angular Grams of A and of A_theta, entrywise.
    """
    m = len(basis)
    # one evaluation per distinct profile; the basis builders share them
    profiles = {id(V.profile): V.profile for V in basis}
    on_r = {key: (prof(grid.r), prof(1.0)) for key, prof in profiles.items()}
    p, rim = map(np.array, zip(*(on_r[id(V.profile)] for V in basis)))
    ang = np.array([V.angular for V in basis])
    dp = p @ grid._d_r.T
    ang_t = grid.theta_derivative(ang, axis=1)
    a, a_t = ang.reshape(m, -1), ang_t.reshape(m, -1)
    r1 = (dp * (grid.w_r * grid.r)) @ dp.T
    r2 = (p * (grid.w_r * grid.inv_r)) @ p.T
    return grid.w_theta * (r1 * (a @ a.T) + r2 * (a_t @ a_t.T)), rim[:, None, None] * ang_t


def _boundary_blocks(state: BoundaryState, grid: DiskGrid, vb: np.ndarray, vb_t: np.ndarray):
    """Acceleration and symmetrized circulation blocks (m, m) of the index
    form over real traces vb (m, n_theta, 2n) with theta-derivatives vb_t."""
    m = len(vb)
    # acceleration block: -sum_m w lam/|grad| (V_a . Hess . V_b), Hess V_a per node
    hv = state.hess @ vb.transpose(1, 2, 0)
    hv *= (grid.w_theta * state.lam / state.grad_norm)[:, None, None]
    hv = np.ascontiguousarray(hv.transpose(2, 0, 1))
    acc = -hv.reshape(m, -1) @ vb.reshape(m, -1).T
    # circulation block, symmetrized
    jt = apply_j(vb_t)
    c1 = grid.w_theta * (jt.reshape(m, -1) @ vb.reshape(m, -1).T)
    return acc, 0.5 * (c1 + c1.T)


def assemble_gram(f: DiskMap, df: DefiningFunction, basis: Sequence[VariationField],
                  *, tol_neg_rel: float = 1e-8, description: str = "") -> GramSpectrum:
    """Gram matrix of polarized index-form values over a variation basis.

    negative_count uses the relative threshold tol_neg_rel * max |eigenvalue|;
    it certifies a lower bound for the Morse index (a finite basis can never
    certify an upper bound). When every field is separable the interior
    block comes from radial and angular factors, and the circulation block
    takes the traces' angular derivative from that of the factors;
    otherwise from the polar-frame gradients of all fields and an FFT of
    the traces.
    """
    basis = list(basis)
    if not basis:
        raise EmptyBasisError("need at least one variation field")
    state = boundary_state(f, df)
    m = len(basis)
    grid = f.grid
    vb = _tangent_traces(state, basis)
    if all(V.profile is not None for V in basis):
        interior, vb_t = _separable_interior(grid, basis)
    else:
        grads = np.empty((m, 2, grid.n_r, grid.n_theta, 2 * f.n))
        for i, V in enumerate(basis):
            grads[i, 0], grads[i, 1] = V.gradients()
        interior = _kernels.gram_interior(grads, grid.w_disk)
        vb_t = grid.theta_derivative(vb, axis=1)

    acc, circ = _boundary_blocks(state, grid, vb, vb_t)
    gram = 0.5 * (interior + acc + circ)
    gram = 0.5 * (gram + gram.T)
    eigs = np.linalg.eigvalsh(gram)
    scale = float(np.max(np.abs(eigs))) if m else 0.0
    tol_neg = tol_neg_rel * scale
    neg = int(np.sum(eigs < -tol_neg))
    return GramSpectrum(
        matrix=gram,
        eigenvalues=eigs,
        negative_count=neg,
        tol_neg=tol_neg,
        basis=description or f"user basis ({m} fields)",
        labels=[V.label for V in basis],
    )


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class FdSecondVariation:
    """Central-difference second derivative of E'' along a family.

    value is in the module convention (quarter-normalized density); raw
    multiplies by 4 for the |f_x + J f_y|^2 convention.
    """

    value: float
    raw: float
    coarse: float
    fine: float
    h: float


# largest |rho| a boundary point of an evaluated or projected family member
# may keep
PROJECTION_TOL = 1e-8
PROJECTION_STEPS = 3


def fd_second_variation(family: Callable[[float], DiskMap],
                        df: Optional[DefiningFunction] = None,
                        h: float = 0.02) -> FdSecondVariation:
    """Second derivative of t -> E''(F_t) at t = 0.

    Central second difference with one Richardson step (h, h/2). When df is
    given, the boundary trace of every evaluated map is checked to stay on
    {rho = 0} within PROJECTION_TOL.
    """

    def check(g: DiskMap, t: float):
        if df is None:
            return
        worst = float(np.max(np.abs(df.rho(g.boundary))))
        if worst > PROJECTION_TOL:
            raise ConstraintViolationError(
                f"family leaves the hypersurface at t={t:+.4f} "
                f"(max |rho| = {worst:.3e})",
                worst_value=worst,
            )

    def e_dbar(g: DiskMap) -> float:
        return g.grid.integrate_disk(_kernels.dbar_density(*g.derivatives().frame_pair()))

    e0 = e_dbar(family(0.0))

    def second_diff(hh: float) -> float:
        gp = family(hh)
        gm = family(-hh)
        check(gp, hh)
        check(gm, -hh)
        return (e_dbar(gp) - 2.0 * e0 + e_dbar(gm)) / hh**2

    coarse = second_diff(h)
    fine = second_diff(0.5 * h)
    value = (4.0 * fine - coarse) / 3.0
    return FdSecondVariation(value=value, raw=4.0 * value, coarse=coarse, fine=fine, h=h)


def _project_to_hypersurface(df: DefiningFunction, points: np.ndarray) -> np.ndarray:
    """PROJECTION_STEPS Newton steps along grad rho pulling points onto
    {rho = 0}.

    Raises ConstraintViolationError when some point still has
    |rho| > PROJECTION_TOL after the steps, so a far point is refused
    rather than returned off the hypersurface.
    """
    out = np.array(points, dtype=float)
    for _ in range(PROJECTION_STEPS):
        val = np.asarray(df.rho(out), dtype=float)[..., None]
        grad = np.asarray(df.grad(out), dtype=float)
        out = out - val * grad / np.sum(grad * grad, axis=-1, keepdims=True)
    rho = np.asarray(df.rho(out), dtype=float)
    worst = int(np.argmax(np.abs(rho)))
    if not abs(rho.flat[worst]) <= PROJECTION_TOL:
        raise ConstraintViolationError(
            f"{PROJECTION_STEPS} Newton steps leave |rho| = {abs(rho.flat[worst]):.3e} "
            f"at node {worst}",
            worst_node=worst,
            worst_value=float(rho.flat[worst]),
        )
    return out


def hypersurface_family(f: DiskMap, V: VariationField,
                        df: DefiningFunction) -> Callable[[float], DiskMap]:
    """A deformation family t -> f + t V with boundary projected onto dN.

    The straight-line boundary trace is pulled back onto {rho = 0} by
    Newton projection and the correction is blended into the interior with
    the profile r^4, so F_0 = f and dF/dt|_0 = V exactly while F_t(dD)
    stays on the hypersurface to projection accuracy.
    """
    grid = f.grid
    blend = (grid.r**4)[:, None, None]
    # read once per family: a field built from factors forms values per read
    f_values, v_values, v_boundary = f.values, V.values.real, V.boundary.real

    def family(t: float) -> DiskMap:
        straight_b = f.boundary + t * v_boundary
        projected = _project_to_hypersurface(df, straight_b)
        correction = projected - straight_b
        values = f_values + t * v_values + blend * correction[None, :, :]
        return DiskMap(grid, f.n, values, projected, analytic=None,
                       name=f"{f.name}+t*{V.label}")

    return family


# ---------------------------------------------------------------------------
# scalar functions on the disk as polar polynomials


class PolarPoly:
    """Real scalar function F(r, theta) = Re sum c r^p e^{i k theta}.

    Terms are (p, k, c) with integer p >= 0, integer k and complex c.
    Exact d/dr and d/dtheta closures; smooth representatives keep
    p >= |k| with p - |k| even.
    """

    def __init__(self, terms: Sequence[tuple]):
        self.terms = [(int(p), int(k), complex(c)) for (p, k, c) in terms]
        self._by_freq = {}
        for p, k, c in self.terms:
            self._by_freq.setdefault(k, []).append((p, c))

    def __call__(self, r, theta):
        """Sum over frequencies k of (sum_p c r^p) e^{i k theta}, real part;
        on a tensor grid (r a column, theta a row) one matrix product of the
        radial sums and the phases (``diskmap.polar_sum``)."""
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        if r.ndim == theta.ndim == 2 and r.shape[1] == theta.shape[0] == 1:
            return polar_sum([t + (0,) for t in self.terms], r[:, 0], theta[0], 1)[..., 0]
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for k, group in self._by_freq.items():
            radial = sum(c * r**p for p, c in group)
            out += radial * np.exp(1j * k * theta)
        return out.real

    def d_r(self) -> "PolarPoly":
        return PolarPoly([(p - 1, k, c * p) for (p, k, c) in self.terms if p])

    def d_theta(self) -> "PolarPoly":
        return PolarPoly([(p, k, 1j * k * c) for (p, k, c) in self.terms if k])

    def times_one_minus_r2(self) -> "PolarPoly":
        out = [(p, k, c) for (p, k, c) in self.terms]
        out += [(p + 2, k, -c) for (p, k, c) in self.terms]
        return PolarPoly(out)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def from_json(cls, spec) -> "PolarPoly":
        if not isinstance(spec, dict):
            raise ValueError(f"polar polynomial must be an object, got {spec!r}")
        return cls([(require_number("rpow", t.get("rpow"), integer=True, minimum=0),
                     require_number("freq", t.get("freq"), integer=True),
                     require_number("re", t.get("re", 0.0))
                     + 1j * require_number("im", t.get("im", 0.0)))
                    for t in require_objects("polar polynomial terms", spec.get("terms"))])


def random_polar_poly(rng, rim_zero: bool = False) -> PolarPoly:
    """A random smooth polar polynomial, optionally vanishing on the rim.

    Frequencies |k| <= 2 with powers p = |k|, |k| + 2, |k| + 4 and
    coefficients 0.5 (N(0, 1) + i N(0, 1)) / (1 + p + |k|).
    """
    terms = []
    for k in range(-2, 3):
        for m in range(3):
            p = abs(k) + 2 * m
            c = 0.5 * (rng.normal() + 1j * rng.normal()) / (1 + p + abs(k))
            terms.append((p, k, c))
    poly = PolarPoly(terms)
    return poly.times_one_minus_r2() if rim_zero else poly


# ---------------------------------------------------------------------------
# the explicit deformation family of the catalog map f4


def f4_family(sigma: PolarPoly, phi: PolarPoly, psi: PolarPoly, eta: PolarPoly,
              grid: DiskGrid):
    """Deformation family F_t of f4 driven by four scalar functions.

    sigma must vanish on the rim to 1e-10 (the family moves the boundary
    only inside dN = {(x1-y2)^2 + (x2+y1)^2 = 1}); phi rotates the angular
    phase, psi and eta translate along the flat tangent directions. Returns
    a callable t -> DiskMap whose boundary trace lies on the hypersurface
    exactly.
    """
    r = grid.r[:, None]
    t = grid.theta[None, :]
    sig = sigma(r, t)
    ph = phi(r, t)
    ps = psi(r, t)
    et = eta(r, t)
    sig_b = sigma(1.0, grid.theta)
    ph_b = phi(1.0, grid.theta)
    ps_b = psi(1.0, grid.theta)
    et_b = eta(1.0, grid.theta)
    if float(np.max(np.abs(sig_b))) > 1e-10:
        raise InvalidVariationError(
            f"sigma must vanish on the rim (sup {np.max(np.abs(sig_b)):.3e})"
        )

    def assemble(tt, rr, theta, sg, pp, pss, ett):
        a = 1.0 + tt * sg
        arg = theta - tt * pp
        ca = np.cos(arg)
        sa = np.sin(arg)
        ct = np.cos(theta)
        st = np.sin(theta)
        x1 = 0.5 * (a * rr * ca + rr * ct) + tt * pss
        x2 = 0.5 * (-a * rr * sa - rr * st) + tt * ett
        y1 = 0.5 * (-a * rr * sa + rr * st) - tt * ett
        y2 = 0.5 * (-a * rr * ca + rr * ct) + tt * pss
        return np.stack([x1, x2, y1, y2], axis=-1)

    def family(tt: float) -> DiskMap:
        values = assemble(tt, r, t, sig, ph, ps, et)
        boundary = assemble(tt, 1.0, grid.theta, 0.0 * sig_b, ph_b, ps_b, et_b)
        return DiskMap(grid, 2, values, boundary, analytic=None, name="f4-family")

    return family


def f4_variation_field(sigma, phi, psi, eta, grid: DiskGrid) -> VariationField:
    """First variation dF_t/dt|_0 of the f4 family:

        V = sigma/2 (x,-y,-y,-x) + phi/2 (y,x,x,-y) + psi (1,0,0,1)
            + eta (0,1,-1,0).
    """
    r = grid.r[:, None]
    t = grid.theta[None, :]

    def build(rr, theta, sg, pp, pss, ett):
        x = rr * np.cos(theta)
        y = rr * np.sin(theta)
        comp = [
            0.5 * sg * x + 0.5 * pp * y + pss,
            -0.5 * sg * y + 0.5 * pp * x + ett,
            -0.5 * sg * y + 0.5 * pp * x - ett,
            -0.5 * sg * x - 0.5 * pp * y + pss,
        ]
        return np.stack(comp, axis=-1)

    values = build(r, t, sigma(r, t), phi(r, t), psi(r, t), eta(r, t))
    boundary = build(1.0, grid.theta, sigma(1.0, grid.theta), phi(1.0, grid.theta),
                     psi(1.0, grid.theta), eta(1.0, grid.theta))
    return VariationField(grid, 2, values, boundary, label="f4-variation")


def f4_closed_forms(sigma, phi, psi, eta, grid: DiskGrid):
    """Closed-form second derivative of the raw dbar-energy of the f4 family.

    Returns (before, after): the same quantity evaluated from the two
    algebraically equivalent integrands

        before = int -8 sigma phi_t + (r phi_r + sigma_t)^2
                     + (r sigma_r - phi_t)^2 + 4(psi_x + eta_y)^2
                     + 4(eta_x - psi_y)^2
        after  = int (r phi_r - sigma_t)^2 + (r sigma_r + phi_t)^2
                     + 4(psi_x + eta_y)^2 + 4(eta_x - psi_y)^2

    (the -8 sigma phi_t term integrates by parts into the cross terms;
    ``after`` is manifestly a sum of squares). Both are in the raw
    convention, i.e. 4x the module E'' convention. The two flat terms are
    16 |d(psi - i eta)/dzbar|^2, evaluated in the polar frame as
    4 (psi_r + eta_theta / r)^2 + 4 (psi_theta / r - eta_r)^2.
    """
    r = grid.r[:, None]
    t = grid.theta[None, :]
    sig = sigma(r, t)
    sig_r = sigma.d_r()(r, t)
    sig_t = sigma.d_theta()(r, t)
    phi_r = phi.d_r()(r, t)
    phi_t = phi.d_theta()(r, t)
    psi_r = psi.d_r()(r, t)
    psi_t = psi.d_theta()(r, t) / r
    eta_r = eta.d_r()(r, t)
    eta_t = eta.d_theta()(r, t) / r

    flat = 4.0 * (psi_r + eta_t) ** 2 + 4.0 * (psi_t - eta_r) ** 2
    before = grid.integrate_disk(
        -8.0 * sig * phi_t + (r * phi_r + sig_t) ** 2 + (r * sig_r - phi_t) ** 2 + flat
    )
    after = grid.integrate_disk(
        (r * phi_r - sig_t) ** 2 + (r * sig_r + phi_t) ** 2 + flat
    )
    return before, after


# ---------------------------------------------------------------------------
# logarithmic cutoff


# width in u of each quadratic end of the cutoff ramp
RAMP_WIDTH = 0.05


@dataclass
class LogCutoff:
    """Radial cutoff vanishing on r <= eps^2, equal to 1 on r >= eps.

    In the log coordinate u = ln(r / eps^2) / |ln eps| the profile is a C^1
    ramp h(u) with |h'| <= c = 1/(1 - RAMP_WIDTH), so the radial derivative
    obeys |d/dr| <= c / (r |ln eps|), within the factor c <= 1.1 of the
    ideal log-cutoff bound (an exactly bounded smooth transition cannot
    reach 1; the Dirichlet integral keeps the 1/|ln eps| decay).
    """

    epsilon: float

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.exp(-1.0)):
            raise ValueError(f"epsilon must lie in (0, 1/e), got {self.epsilon}")
        self.c = 1.0 / (1.0 - RAMP_WIDTH)
        self.log_eps = abs(np.log(self.epsilon))

    def _u(self, r):
        r = np.asarray(r, dtype=float)
        return (np.log(np.maximum(r, 1e-300)) - 2.0 * np.log(self.epsilon)) / self.log_eps

    def _h(self, u):
        w, c = RAMP_WIDTH, self.c
        u = np.clip(u, 0.0, 1.0)
        ramp_lo = c * u**2 / (2.0 * w)
        mid = c * (u - 0.5 * w)
        ramp_hi = 1.0 - c * (1.0 - u) ** 2 / (2.0 * w)
        return np.where(u < w, ramp_lo, np.where(u <= 1.0 - w, mid, ramp_hi))

    def _h_prime(self, u):
        w, c = RAMP_WIDTH, self.c
        out = np.where(u < w, c * u / w, np.where(u <= 1.0 - w, c, c * (1.0 - u) / w))
        return np.where((u < 0.0) | (u > 1.0), 0.0, out)

    def __call__(self, r):
        return self._h(self._u(r))

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        u = self._u(r)
        inside = (u > 0.0) & (u < 1.0)
        with np.errstate(divide="ignore"):
            d = self._h_prime(u) / (r * self.log_eps)
        return np.where(inside, d, 0.0)

    @property
    def dirichlet_integral(self) -> float:
        """int_D |grad cutoff|^2 dx dy = 2 pi int_0^1 h'(u)^2 du / |ln eps|."""
        w, c = RAMP_WIDTH, self.c
        h2 = c**2 * (1.0 - 4.0 * w / 3.0)
        return 2.0 * np.pi * h2 / self.log_eps

    def derivative_bound_factor(self, r) -> float:
        """sup over the given radii of |d/dr| * r |ln eps| (should be <= 1.1)."""
        r = np.asarray(r, dtype=float)
        return float(np.max(np.abs(self.derivative(r)) * r * self.log_eps))


@lru_cache(maxsize=4)
def _leggauss(order: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panel(a: float, b: float, order: int = 48):
    x, w = _leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def cutoff_stability_check(f: DiskMap, df: DefiningFunction, V: VariationField,
                           eps_list: Sequence[float]):
    """Index-form transfer under the logarithmic cutoff.

    For a separable admissible field V computes I(cutoff * V, cutoff * V)
    exactly as I(V, V) plus a correction integral supported on r <= eps,
    evaluated on a log-radial Gauss panel (the default grid has no nodes in
    the transition annulus, whose width shrinks with eps). Returns one
    record per eps with the measured value and the lower bound
    I(V,V) - C (1/|ln eps| + eps/|ln eps|), where C is measured from
    sup |V| and sup |grad V|.
    """
    if V.profile is None:
        raise InvalidVariationError("cutoff transfer needs a separable field")
    grid = f.grid
    base = index_form_real(f, df, V)

    ang = V.angular
    ang_t = grid.theta_derivative(ang, axis=0)
    prof = V.profile
    dprof = prof.deriv()

    def field_stats():
        r = np.linspace(1e-6, 1.0, 512)
        vals = np.abs(prof(r))[:, None] * np.linalg.norm(ang, axis=-1)[None, :]
        g_r = np.abs(dprof(r))[:, None] * np.linalg.norm(ang, axis=-1)[None, :]
        g_t = (np.abs(prof(r)) / r)[:, None] * np.linalg.norm(ang_t, axis=-1)[None, :]
        return float(np.max(vals)), float(np.max(np.sqrt(g_r**2 + g_t**2)))

    sup_v, sup_dv = field_stats()
    c_meas = np.pi * (1.1 * sup_v**2 + 2.2 * sup_v * sup_dv + sup_dv**2)

    records = []
    for eps in eps_list:
        cut = LogCutoff(eps)
        # transition annulus, integrated in s = ln r
        s_nodes, s_w = _gauss_panel(2.0 * np.log(eps), np.log(eps), order=64)
        r_nodes = np.exp(s_nodes)
        rho_v = cut(r_nodes)
        rho_d = cut.derivative(r_nodes)
        pv = prof(r_nodes)
        pd = dprof(r_nodes)
        ang_sq = np.sum(ang**2, axis=-1)            # (n_theta,)
        ang_t_sq = np.sum(ang_t**2, axis=-1)
        # ||V||^2, <V, V_r>, ||grad V||^2 at (r_node, theta_m)
        v_sq = pv[:, None] ** 2 * ang_sq[None, :]
        v_vr = (pv * pd)[:, None] * ang_sq[None, :]
        gradv_sq = pd[:, None] ** 2 * ang_sq[None, :] + (
            (pv / r_nodes) ** 2
        )[:, None] * ang_t_sq[None, :]
        integrand = (
            rho_d[:, None] ** 2 * v_sq
            + 2.0 * (rho_v * rho_d)[:, None] * v_vr
            + (rho_v[:, None] ** 2 - 1.0) * gradv_sq
        )
        # measure r dr dtheta = e^{2s} ds dtheta
        annulus = grid.w_theta * np.sum(
            (s_w * np.exp(2.0 * s_nodes))[:, None] * integrand
        )
        # inner disk r <= eps^2 where the cutoff vanishes: -||grad V||^2
        r_in, w_in = _gauss_panel(0.0, eps**2, order=24)
        gradv_in = dprof(r_in)[:, None] ** 2 * ang_sq[None, :]
        safe_r = np.maximum(r_in, 1e-300)
        gradv_in = gradv_in + ((prof(r_in) / safe_r) ** 2)[:, None] * ang_t_sq[None, :]
        inner = -grid.w_theta * np.sum((w_in * r_in)[:, None] * gradv_in)
        value = base + 0.5 * (annulus + inner)
        log_e = abs(np.log(eps))
        bound = base - c_meas * (1.0 / log_e + eps / log_e)
        records.append(
            {
                "eps": eps,
                "value": value,
                "base": base,
                "lower_bound": bound,
                "dirichlet": cut.dirichlet_integral,
                "constant": c_meas,
            }
        )
    return records


# ---------------------------------------------------------------------------
# admissible basis generators

# largest angular frequency k of the generated fields
KMAX = 6


def interior_bumps(grid: DiskGrid, n: int, count: int):
    """Compactly-vanishing-at-the-rim fields (1 - r^2) r^k trig(k t) e_c, 26 n at most."""
    if count < 0:
        raise ValueError(f"bump count {count} is negative")
    if count > (available := 2 * (2 * KMAX + 1) * n):
        raise ValueError(f"bump count {count} exceeds the {available} bumps available at n = {n}")
    fields = []
    dim = 2 * n
    for k in range(KMAX + 1):
        trigs = [("cos", np.cos(k * grid.theta))]
        if k > 0:
            trigs.append(("sin", np.sin(k * grid.theta)))
        prof = np.polynomial.Polynomial([0.0] * k + [1.0, 0.0, -1.0])
        for tag, trig in trigs:
            for c in range(dim):
                if len(fields) >= count:
                    return fields
                ang = np.zeros((grid.n_theta, dim))
                ang[:, c] = trig
                fields.append(
                    VariationField.separable(
                        grid, n, prof, ang, label=f"bump-k{k}-{tag}-e{c}"
                    )
                )
    return fields


def admissible_basis(f: DiskMap, df: DefiningFunction, size: int):
    """Deterministic admissible basis: projected tangent frames plus bumps.

    Boundary-tangent fields are the coordinate directions projected along
    the unit normal at each boundary node, modulated by trig(k theta) and
    extended inward with the profile r^{k+2}; they are followed by interior
    bumps once the frame modes are exhausted: 52 n fields at most, reproducible
    from size.
    """
    if size < 1:
        raise ValueError(f"basis size {size} is below 1: a basis needs at least one field")
    if size > (available := 4 * (2 * KMAX + 1) * f.n):
        raise ValueError(f"basis size {size} exceeds the {available} fields available at n = {f.n}")
    state = boundary_state(f, df)
    grid = f.grid
    dim = 2 * f.n
    fields = []
    for k in range(KMAX + 1):
        trigs = [("cos", np.cos(k * grid.theta))]
        if k > 0:
            trigs.append(("sin", np.sin(k * grid.theta)))
        prof = np.polynomial.Polynomial([0.0] * (k + 2) + [1.0])
        for tag, trig in trigs:
            for c in range(dim):
                if len(fields) >= size:
                    return fields
                e = np.zeros(dim)
                e[c] = 1.0
                tangent = e[None, :] - state.nu * state.nu[:, c][:, None]
                ang = trig[:, None] * tangent
                fields.append(
                    VariationField.separable(
                        grid, f.n, prof, ang, label=f"frame-k{k}-{tag}-e{c}"
                    )
                )
    if len(fields) < size:
        fields.extend(interior_bumps(grid, f.n, size - len(fields)))
    return fields[:size]
