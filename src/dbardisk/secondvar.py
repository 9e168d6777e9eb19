"""Second variation of the dbar-energy: index forms, Gram spectra, oracles.

At a critical map f (harmonic, f_r + J f_theta = lambda nu on dD) the
second variation along an admissible field V is

    I(V, V) = 1/2 [ int_D ||grad V||^2 dx dy
                    + int_dD lambda <A, nu> dtheta
                    + int_dD <J dV/dtheta, V> dtheta ]

where A is the boundary acceleration of the deforming family. The flat
ambient curvature term is identically zero. Under the default hypersurface
policy the family is confined to {rho = 0}, which forces

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

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .diskmap import DiskGrid, DiskMap, energies
from .errors import (
    AdmissibilityError,
    ConstraintViolationError,
    EmptyBasisError,
    InvalidVariationError,
)
from .geometry import DefiningFunction, apply_j, boundary_data, hermitian

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
    "log_cutoff",
    "cutoff_stability_check",
    "admissible_basis",
    "interior_bumps",
]


@dataclass
class VariationField:
    """A section of the pullback tangent bundle sampled on the grid.

    values: (n_r, n_theta, 2n), real for ordinary variations or complex for
    (1,0) sections. boundary: trace on dD, (n_theta, 2n). acceleration:
    None selects the hypersurface policy for the boundary term of the index
    form; an explicit (n_theta,) array gives <A, nu> directly.

    profile/angular, when set, describe the field in separable closed form
    values[i, j, :] = profile(r_i) * angular[j, :], which lets the cutoff
    machinery evaluate the field on radii off the grid and Gram assembly
    factor its interior block (after checking the factors against values).
    """

    grid: DiskGrid
    n: int
    values: np.ndarray
    boundary: np.ndarray
    acceleration: Optional[np.ndarray] = None
    label: str = "field"
    profile: Optional[np.polynomial.Polynomial] = None
    angular: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        expect = (self.grid.n_r, self.grid.n_theta, 2 * self.n)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape}, expected {expect}")

    @classmethod
    def constant(cls, grid, n, vector, label="const"):
        vector = np.asarray(vector)
        values = np.broadcast_to(vector, (grid.n_r, grid.n_theta, 2 * n)).copy()
        boundary = np.broadcast_to(vector, (grid.n_theta, 2 * n)).copy()
        return cls(
            grid, n, values, boundary, label=label,
            profile=np.polynomial.Polynomial([1.0]), angular=boundary.copy(),
        )

    @classmethod
    def separable(cls, grid, n, profile, angular, label="separable"):
        prof_r = profile(grid.r)
        values = prof_r[:, None, None] * angular[None, :, :]
        boundary = profile(1.0) * angular
        return cls(grid, n, values, boundary, label=label, profile=profile,
                   angular=np.asarray(angular))

    def scaled(self, c):
        return VariationField(
            self.grid, self.n, c * self.values, c * self.boundary,
            acceleration=None if self.acceleration is None else c**2 * self.acceleration,
            label=f"{c}*{self.label}",
            profile=None if self.profile is None else c * self.profile,
            angular=self.angular,
        )

    def gradients(self, polar=False):
        """(V_x, V_y), or with polar=True (V_r, V_theta / r).

        Both frames are orthonormal, so either gives <grad V, grad W>.
        """
        fr = self.grid.radial_derivative(self.values)
        ft = self.grid.theta_derivative(self.values)
        if polar:
            return fr, ft * self.grid.inv_r[:, None, None]
        return self.grid.cartesian_from_polar(fr, ft)

    @property
    def real_part(self):
        return VariationField(self.grid, self.n, self.values.real.copy(),
                              self.boundary.real.copy(), label=f"Re({self.label})")

    @property
    def imag_part(self):
        return VariationField(self.grid, self.n, self.values.imag.copy(),
                              self.boundary.imag.copy(), label=f"Im({self.label})")


# ---------------------------------------------------------------------------
# boundary state of a critical pair (f, df)


@dataclass
class BoundaryState:
    """Per-boundary-node geometry shared by all index-form evaluations."""

    nu: np.ndarray          # (n_theta, 2n)
    grad_norm: np.ndarray   # (n_theta,)
    lam: np.ndarray         # (n_theta,)
    hess: np.ndarray        # (n_theta, 2n, 2n)


def boundary_state(f: DiskMap, df: DefiningFunction) -> BoundaryState:
    """nu, |grad rho| and Hess rho at the boundary image, from one checked
    ``boundary_data`` evaluation, and lambda = <f_r + J f_theta, nu>."""
    d = f.derivatives()
    b = d.boundary_f_r + apply_j(d.boundary_f_theta)
    bd = boundary_data(df, f.boundary)
    return BoundaryState(nu=bd.nu, grad_norm=bd.grad_norm,
                         lam=np.sum(b * bd.nu, axis=-1), hess=bd.hess)


# ---------------------------------------------------------------------------
# admissibility


@dataclass
class AdmissibilityCheck:
    real_sup: float
    complex_sup: float


def admissibility(V: VariationField, f: DiskMap, df: DefiningFunction,
                  state: Optional[BoundaryState] = None) -> AdmissibilityCheck:
    """Tangency diagnostics of a variation field along the boundary.

    real_sup is sup_theta |<V, nu>| (variations must keep f(dD) on dN).
    complex_sup is sup_theta |<<W, f_zbar>>| for W = V - i J V, the
    criterion for V and J V to be velocities of admissible deformations of
    a critical map. For a complex input V, W = V itself.
    """
    state = state or boundary_state(f, df)
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


def _require_admissible(V, f, df, state, tol_adm):
    chk = admissibility(V, f, df, state=state)
    if chk.real_sup > tol_adm:
        raise AdmissibilityError(
            f"field {V.label!r} is not tangent to the boundary "
            f"(sup |<V, nu>| = {chk.real_sup:.3e})",
            measured_sup=chk.real_sup,
        )


# ---------------------------------------------------------------------------
# index forms


def _hess_pair(state: BoundaryState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hess rho (a, b) per boundary node for (n_theta, 2n) real fields."""
    return np.einsum("mij,mi,mj->m", state.hess, a, b)


def index_form_real(f: DiskMap, df: DefiningFunction, V: VariationField,
                    Vb: Optional[VariationField] = None, *,
                    state: Optional[BoundaryState] = None,
                    check_admissibility: bool = True,
                    tol_adm: float = 1e-7) -> float:
    """Polarized index form I(V, Vb) of the second variation at f.

    With the hypersurface acceleration policy the boundary term is
    - int lambda Hess rho (V, Vb) / |grad rho| dtheta; an explicit
    acceleration array on V is honored for the diagonal I(V, V). The
    circulation term is symmetrized over (V, Vb).
    """
    state = state or boundary_state(f, df)
    grid = f.grid
    diagonal = Vb is None or Vb is V
    if np.iscomplexobj(V.values) or (not diagonal and np.iscomplexobj(Vb.values)):
        raise TypeError("index_form_real takes real fields; use index_form_complex")
    if check_admissibility:
        _require_admissible(V, f, df, state, tol_adm)
        if not diagonal:
            _require_admissible(Vb, f, df, state, tol_adm)
    W = V if diagonal else Vb

    vx, vy = V.gradients()
    wx, wy = (vx, vy) if diagonal else W.gradients()
    interior = grid.integrate_disk(np.sum(vx * wx + vy * wy, axis=-1))

    if diagonal and V.acceleration is not None:
        accn = V.acceleration
    else:
        accn = -_hess_pair(state, V.boundary, W.boundary) / state.grad_norm
    acc_term = grid.integrate_boundary(state.lam * accn)

    vtb = grid.theta_derivative(V.boundary, axis=0)
    circ = np.sum(apply_j(vtb) * W.boundary, axis=-1)
    if not diagonal:
        wtb = grid.theta_derivative(W.boundary, axis=0)
        circ = 0.5 * (circ + np.sum(apply_j(wtb) * V.boundary, axis=-1))
    circ_term = grid.integrate_boundary(circ)

    return 0.5 * (interior + acc_term + circ_term)


def index_form_complex(f: DiskMap, df: DefiningFunction, V: VariationField, *,
                       state: Optional[BoundaryState] = None,
                       tol_adm: float = 1e-7,
                       check_admissibility: bool = True) -> float:
    """Hermitian index form on complex sections (flat curvature term).

    For admissible holomorphic (1,0) sections the interior and circulation
    terms vanish and the value reduces to the boundary integral
    1/2 int lambda <<grad_V Vbar, nu>> dtheta, negative whenever the Levi
    form is positive along V and lambda > 0.
    """
    state = state or boundary_state(f, df)
    grid = f.grid
    if check_admissibility:
        chk = admissibility(V, f, df, state=state)
        if chk.complex_sup > tol_adm:
            raise AdmissibilityError(
                f"section {V.label!r} is not admissible "
                f"(sup |<<V, f_zbar>>| = {chk.complex_sup:.3e})",
                measured_sup=chk.complex_sup,
            )
    vals = V.values.astype(complex)
    fr = grid.radial_derivative(vals)
    ft = grid.theta_derivative(vals)
    vx, vy = grid.cartesian_from_polar(fr, ft)
    dzbar = 0.5 * (vx + 1j * vy)
    t_interior = 2.0 * grid.integrate_disk(np.sum(np.abs(dzbar) ** 2, axis=-1))

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
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "negative_count": self.negative_count,
            "tol_neg": self.tol_neg,
            "basis": self.basis,
            "labels": list(self.labels),
        }


def _separable_factors(V: VariationField):
    """(profile(r), angular) when V.values equals their product to 1e-12
    relative, else None. values is a public array that may have changed
    since construction, so the stored factors are checked, not trusted.
    """
    ang = V.angular
    if V.profile is None or ang is None or np.iscomplexobj(ang):
        return None
    prof = np.asarray(V.profile(V.grid.r), dtype=float)
    if prof.shape != V.values.shape[:1] or np.shape(ang) != V.values.shape[1:]:
        return None
    gap = prof[:, None, None] * ang
    gap -= V.values
    scale = max(V.values.max(), -V.values.min())
    if not max(gap.max(), -gap.min()) <= 1e-12 * scale:
        return None
    return prof, ang


def _separable_interior(grid: DiskGrid, factors) -> np.ndarray:
    """int_D <grad V_a, grad V_b> dx dy for fields V_a = p_a(r) A_a(theta).

    |grad V|^2 = |V_r|^2 + |V_theta|^2 / r^2, so the integral is
    w_theta (R1 o T1 + R2 o T2): radial Grams of p' (weight w_r r) and of p
    (weight w_r / r) times angular Grams of A and of A_theta, entrywise.
    """
    m = len(factors)
    p = np.array([prof for prof, _ in factors])
    ang = np.array([a for _, a in factors])
    dp = p @ grid._d_r.T
    ang_t = grid.theta_derivative(ang, axis=1).reshape(m, -1)
    ang = ang.reshape(m, -1)
    r1 = (dp * (grid.w_r * grid.r)) @ dp.T
    r2 = (p * (grid.w_r * grid.inv_r)) @ p.T
    return grid.w_theta * (r1 * (ang @ ang.T) + r2 * (ang_t @ ang_t.T))


def assemble_gram(f: DiskMap, df: DefiningFunction, basis: Sequence[VariationField],
                  *, tol_neg_rel: float = 1e-8, tol_adm: float = 1e-7,
                  description: str = "", state: Optional[BoundaryState] = None
                  ) -> GramSpectrum:
    """Gram matrix of polarized index-form values over a variation basis.

    negative_count uses the relative threshold tol_neg_rel * max |eigenvalue|;
    it certifies a lower bound for the Morse index (a finite basis can never
    certify an upper bound). When every field is verified separable the
    interior block comes from radial and angular factors; otherwise from
    the polar-frame gradients of all fields.
    """
    basis = list(basis)
    if not basis:
        raise EmptyBasisError("need at least one variation field")
    state = state or boundary_state(f, df)
    for V in basis:
        if np.iscomplexobj(V.values):
            raise TypeError(
                f"Gram basis must be real fields (got complex {V.label!r}); "
                "split sections into real and imaginary parts"
            )
        _require_admissible(V, f, df, state, tol_adm)

    m = len(basis)
    grid = f.grid
    vb = np.array([V.boundary for V in basis], dtype=float)
    factors = [_separable_factors(V) for V in basis]
    if all(fac is not None for fac in factors):
        interior = _separable_interior(grid, factors)
    else:
        grads = np.empty((m, 2, grid.n_r, grid.n_theta, 2 * f.n))
        for i, V in enumerate(basis):
            grads[i, 0], grads[i, 1] = V.gradients(polar=True)
        interior = _kernels.gram_interior(grads, grid.w_disk)

    # acceleration block: -sum_m w lam/|grad| (V_i . Hess . V_j)
    hv = np.einsum("mij,amj->ami", state.hess, vb)
    wfac = grid.w_theta * state.lam / state.grad_norm
    acc = -(hv * wfac[:, None]).reshape(m, -1) @ vb.reshape(m, -1).T

    # circulation block, symmetrized
    jt = apply_j(grid.theta_derivative(vb, axis=1))
    c1 = grid.w_theta * np.einsum("ami,bmi->ab", jt, vb)
    circ = 0.5 * (c1 + c1.T)

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


def fd_second_variation(family: Callable[[float], DiskMap],
                        df: Optional[DefiningFunction] = None,
                        h: float = 0.02,
                        tol_constraint: float = 1e-8) -> FdSecondVariation:
    """Second derivative of t -> E''(F_t) at t = 0.

    Central second difference with one Richardson step (h, h/2). When df is
    given, the boundary trace of every evaluated map is checked to stay on
    {rho = 0} within tol_constraint.
    """

    def check(g: DiskMap, t: float):
        if df is None:
            return
        worst = float(np.max(np.abs(df.rho(g.boundary))))
        if worst > tol_constraint:
            raise ConstraintViolationError(
                f"family leaves the hypersurface at t={t:+.4f} "
                f"(max |rho| = {worst:.3e})",
                worst_value=worst,
            )

    e0 = energies(family(0.0)).e_dbar

    def second_diff(hh: float) -> float:
        gp = family(hh)
        gm = family(-hh)
        check(gp, hh)
        check(gm, -hh)
        return (energies(gp).e_dbar - 2.0 * e0 + energies(gm).e_dbar) / hh**2

    coarse = second_diff(h)
    fine = second_diff(0.5 * h)
    value = (4.0 * fine - coarse) / 3.0
    return FdSecondVariation(value=value, raw=4.0 * value, coarse=coarse, fine=fine, h=h)


def _project_to_hypersurface(df: DefiningFunction, points: np.ndarray,
                             iterations: int = 3) -> np.ndarray:
    """Newton steps along grad rho pulling points onto {rho = 0}."""
    out = np.array(points, dtype=float)
    for _ in range(iterations):
        val = np.asarray(df.rho(out), dtype=float)[..., None]
        grad = np.asarray(df.grad(out), dtype=float)
        out = out - val * grad / np.sum(grad * grad, axis=-1, keepdims=True)
    return out


def hypersurface_family(f: DiskMap, V: VariationField, df: DefiningFunction,
                        blend_power: int = 4) -> Callable[[float], DiskMap]:
    """A deformation family t -> f + t V with boundary projected onto dN.

    The straight-line boundary trace is pulled back onto {rho = 0} by
    Newton projection and the correction is blended into the interior with
    the profile r^blend_power, so F_0 = f and dF/dt|_0 = V exactly while
    F_t(dD) stays on the hypersurface to projection accuracy.
    """
    grid = f.grid
    blend = (grid.r**blend_power)[:, None, None]

    def family(t: float) -> DiskMap:
        straight_b = f.boundary + t * V.boundary.real
        projected = _project_to_hypersurface(df, straight_b)
        correction = projected - straight_b
        values = f.values + t * V.values.real + blend * correction[None, :, :]
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

    def __call__(self, r, theta):
        r = np.asarray(r, dtype=float)
        theta = np.asarray(theta, dtype=float)
        out = np.zeros(np.broadcast(r, theta).shape, dtype=complex)
        for p, k, c in self.terms:
            out += c * r**p * np.exp(1j * k * theta)
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
        return cls([(t["rpow"], t["freq"], t.get("re", 0.0) + 1j * t.get("im", 0.0))
                    for t in spec["terms"]])

    def to_json(self):
        return {"terms": [{"rpow": p, "freq": k, "re": c.real, "im": c.imag}
                          for (p, k, c) in self.terms]}


def random_polar_poly(rng, kmax: int = 2, extra: int = 2, scale: float = 0.5,
                      rim_zero: bool = False) -> PolarPoly:
    """A random smooth polar polynomial, optionally vanishing on the rim."""
    terms = []
    for k in range(-kmax, kmax + 1):
        for m in range(extra + 1):
            p = abs(k) + 2 * m
            c = scale * (rng.normal() + 1j * rng.normal()) / (1 + p + abs(k))
            terms.append((p, k, c))
    poly = PolarPoly(terms)
    return poly.times_one_minus_r2() if rim_zero else poly


def _cartesian_gradient(poly: PolarPoly, grid: DiskGrid):
    r = grid.r[:, None]
    t = grid.theta[None, :]
    fr = poly.d_r()(r, t)
    ft = poly.d_theta()(r, t)
    c = grid.cos_t[None, :]
    s = grid.sin_t[None, :]
    tor = ft / grid.r[:, None]
    return c * fr - s * tor, s * fr + c * tor


# ---------------------------------------------------------------------------
# the explicit deformation family of the catalog map f4


def f4_family(sigma: PolarPoly, phi: PolarPoly, psi: PolarPoly, eta: PolarPoly,
              grid: DiskGrid, tol_rim: float = 1e-10):
    """Deformation family F_t of f4 driven by four scalar functions.

    sigma must vanish on the rim (the family moves the boundary only inside
    dN = {(x1-y2)^2 + (x2+y1)^2 = 1}); phi rotates the angular phase, psi
    and eta translate along the flat tangent directions. Returns a callable
    t -> DiskMap whose boundary trace lies on the hypersurface exactly.
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
    if float(np.max(np.abs(sig_b))) > tol_rim:
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
    convention, i.e. 4x the module E'' convention.
    """
    r = grid.r[:, None]
    t = grid.theta[None, :]
    sig = sigma(r, t)
    sig_r = sigma.d_r()(r, t)
    sig_t = sigma.d_theta()(r, t)
    phi_r = phi.d_r()(r, t)
    phi_t = phi.d_theta()(r, t)
    psi_x, psi_y = _cartesian_gradient(psi, grid)
    eta_x, eta_y = _cartesian_gradient(eta, grid)

    flat = 4.0 * (psi_x + eta_y) ** 2 + 4.0 * (eta_x - psi_y) ** 2
    before = grid.integrate_disk(
        -8.0 * sig * phi_t + (r * phi_r + sig_t) ** 2 + (r * sig_r - phi_t) ** 2 + flat
    )
    after = grid.integrate_disk(
        (r * phi_r - sig_t) ** 2 + (r * sig_r + phi_t) ** 2 + flat
    )
    return before, after


# ---------------------------------------------------------------------------
# logarithmic cutoff


@dataclass
class LogCutoff:
    """Radial cutoff vanishing on r <= eps^2, equal to 1 on r >= eps.

    In the log coordinate u = ln(r / eps^2) / |ln eps| the profile is a C^1
    ramp h(u) with |h'| <= c = 1/(1 - ramp_width), so the radial derivative
    obeys |d/dr| <= c / (r |ln eps|), within the factor c <= 1.1 of the
    ideal log-cutoff bound (an exactly bounded smooth transition cannot
    reach 1; the Dirichlet integral keeps the 1/|ln eps| decay).
    """

    epsilon: float
    ramp_width: float = 0.05

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.exp(-1.0)):
            raise ValueError(f"epsilon must lie in (0, 1/e), got {self.epsilon}")
        self.c = 1.0 / (1.0 - self.ramp_width)
        self.log_eps = abs(np.log(self.epsilon))

    def _u(self, r):
        r = np.asarray(r, dtype=float)
        return (np.log(np.maximum(r, 1e-300)) - 2.0 * np.log(self.epsilon)) / self.log_eps

    def _h(self, u):
        w, c = self.ramp_width, self.c
        u = np.clip(u, 0.0, 1.0)
        ramp_lo = c * u**2 / (2.0 * w)
        mid = c * (u - 0.5 * w)
        ramp_hi = 1.0 - c * (1.0 - u) ** 2 / (2.0 * w)
        return np.where(u < w, ramp_lo, np.where(u <= 1.0 - w, mid, ramp_hi))

    def _h_prime(self, u):
        w, c = self.ramp_width, self.c
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
        w, c = self.ramp_width, self.c
        h2 = c**2 * (1.0 - 4.0 * w / 3.0)
        return 2.0 * np.pi * h2 / self.log_eps

    def derivative_bound_factor(self, r) -> float:
        """sup over the given radii of |d/dr| * r |ln eps| (should be <= 1.1)."""
        r = np.asarray(r, dtype=float)
        return float(np.max(np.abs(self.derivative(r)) * r * self.log_eps))


def log_cutoff(epsilon: float, ramp_width: float = 0.05) -> LogCutoff:
    return LogCutoff(epsilon=epsilon, ramp_width=ramp_width)


def _gauss_panel(a: float, b: float, order: int = 48):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def cutoff_stability_check(f: DiskMap, df: DefiningFunction, V: VariationField,
                           eps_list: Sequence[float], *,
                           state: Optional[BoundaryState] = None):
    """Index-form transfer under the logarithmic cutoff.

    For a separable admissible field V computes I(cutoff * V, cutoff * V)
    exactly as I(V, V) plus a correction integral supported on r <= eps,
    evaluated on a log-radial Gauss panel (the default grid has no nodes in
    the transition annulus, whose width shrinks with eps). Returns one
    record per eps with the measured value and the lower bound
    I(V,V) - C (1/|ln eps| + eps/|ln eps|), where C is measured from
    sup |V| and sup |grad V|.
    """
    if V.profile is None or V.angular is None:
        raise InvalidVariationError("cutoff transfer needs a separable field")
    state = state or boundary_state(f, df)
    grid = f.grid
    base = index_form_real(f, df, V, state=state)

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
        cut = log_cutoff(eps)
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


def interior_bumps(grid: DiskGrid, n: int, count: int, kmax: int = 4):
    """Compactly-vanishing-at-the-rim fields (1 - r^2) r^k trig(k t) e_c."""
    fields = []
    dim = 2 * n
    for k in range(kmax + 1):
        trigs = [("cos", lambda t, k=k: np.cos(k * t))]
        if k > 0:
            trigs.append(("sin", lambda t, k=k: np.sin(k * t)))
        for tag, trig in trigs:
            for c in range(dim):
                if len(fields) >= count:
                    return fields
                prof = np.polynomial.Polynomial([0.0] * k + [1.0]) * np.polynomial.Polynomial([1.0, 0.0, -1.0])
                ang = np.zeros((grid.n_theta, dim))
                ang[:, c] = trig(grid.theta)
                fields.append(
                    VariationField.separable(
                        grid, n, prof, ang, label=f"bump-k{k}-{tag}-e{c}"
                    )
                )
    if len(fields) < count:
        raise ValueError(f"kmax={kmax} yields only {len(fields)} bumps < {count}")
    return fields


def admissible_basis(f: DiskMap, df: DefiningFunction, size: int, *,
                     kmax: int = 6, state: Optional[BoundaryState] = None):
    """Deterministic admissible basis: projected tangent frames plus bumps.

    Boundary-tangent fields are the coordinate directions projected along
    the unit normal at each boundary node, modulated by trig(k theta) and
    extended inward with the profile r^{k+2}; they are followed by interior
    bumps once the frame modes are exhausted. Reproducible from
    (size, kmax).
    """
    state = state or boundary_state(f, df)
    grid = f.grid
    dim = 2 * f.n
    fields = []
    for k in range(kmax + 1):
        trigs = [("cos", np.cos(k * grid.theta))]
        if k > 0:
            trigs.append(("sin", np.sin(k * grid.theta)))
        for tag, trig in trigs:
            for c in range(dim):
                if len(fields) >= size:
                    return fields
                e = np.zeros(dim)
                e[c] = 1.0
                tangent = e[None, :] - state.nu * state.nu[:, c][:, None]
                ang = trig[:, None] * tangent
                prof = np.polynomial.Polynomial([0.0] * (k + 2) + [1.0])
                fields.append(
                    VariationField.separable(
                        grid, f.n, prof, ang, label=f"frame-k{k}-{tag}-e{c}"
                    )
                )
    if len(fields) < size:
        fields.extend(interior_bumps(grid, f.n, size - len(fields), kmax=kmax))
    return fields[:size]
