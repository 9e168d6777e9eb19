"""Holomorphic sections real on the boundary and Morse-index certificates.

In the flat trivialization the kernel of the boundary problem

    dbar W = 0 on D,   Im W = 0 on dD

consists of the real constant sections: dimension 2n over R, which
``dbar_kernel_dimension`` recovers numerically as the SVD null space of the
discretized operator. From the standard frame one builds the (1,0)
sections V_j = e_{x_j} - i e_{y_j}; pairing them against f_zbar gives
holomorphic coefficient functions (f harmonic), and the combinations

    U_j = <<V_k, f_zbar>> V_j - <<V_j, f_zbar>> V_k     (j != k)

are admissible holomorphic (1,0) sections orthogonal to f_zbar. Their
index-form values reduce to boundary integrals of -lambda times the Levi
form, which are negative on strictly pseudoconvex domains: each certifies
a negative direction, giving the Morse-index lower bound n - 1 (and n - k
under strict k-pseudoconvexity via subset sums).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .criticality import INNER_RADIUS, INTERIOR_RADIUS, is_critical
from .diskmap import DiskMap, dbar_density
from .errors import (
    DegeneratePivotError,
    Refusal,
    ResolutionError,
    VacuousCertificateError,
)
from .geometry import DefiningFunction, classify_pseudoconvexity, hermitian
from .secondvar import (
    VariationField,
    boundary_state,
    index_form_complex,
    index_form_real,
)

__all__ = [
    "HolomorphicFrame",
    "USections",
    "Certificate",
    "dbar_kernel_dimension",
    "build_frame",
    "build_U",
    "certify_index",
]


# ---------------------------------------------------------------------------
# Fredholm kernel of the dbar boundary problem


def _monomial_scale(p, q):
    # L^2(D) norm of z^p zbar^q is sqrt(pi / (p + q + 1))
    return np.sqrt((p + q + 1) / np.pi)


def dbar_kernel_dimension(n: int, degree: int = 6,
                          n_boundary: Optional[int] = None,
                          connection: Optional[dict] = None,
                          svd_threshold: float = 1e-8,
                          return_details: bool = False):
    """Numerical kernel dimension of (A f)_i = dbar f^i + sum_j a_ji f^j
    with the boundary condition Im f = 0.

    The 2n complex component functions are expanded in monomials z^p zbar^q
    of total degree <= degree; the boundary condition is collocated at
    n_boundary uniform angles. connection maps (j, i) to {(p, q): coeff}
    polynomial coefficients of the (0,1)-form entries a_ji (default zero,
    the flat trivialization). Kernel dimension counts real dimensions via
    an SVD with the given relative threshold; in the flat case it is 2n
    (the real constants).
    """
    if degree < 1:
        raise ResolutionError("polynomial degree must be >= 1")
    if n_boundary is None:
        n_boundary = 4 * degree + 8
    if n_boundary < 4 * degree + 4:
        raise ResolutionError(
            f"need at least {4 * degree + 4} boundary samples for degree {degree}"
        )
    dim = 2 * n
    monos = [(p, q) for tot in range(degree + 1) for p in range(tot + 1)
             for q in [tot - p]]
    n_mono = len(monos)
    mono_index = {pq: a for a, pq in enumerate(monos)}
    deg_a = 0
    conn = {}
    if connection:
        for (j, i), poly in connection.items():
            conn[(j, i)] = {(int(p), int(q)): complex(c) for (p, q), c in poly.items()}
            for p, q in poly:
                deg_a = max(deg_a, p + q)
    out_monos = [(p, q) for tot in range(degree + deg_a + 1) for p in range(tot + 1)
                 for q in [tot - p]]
    out_index = {pq: a for a, pq in enumerate(out_monos)}

    n_cols = dim * n_mono            # complex unknowns
    n_dbar = dim * len(out_monos)    # complex equations
    a_c = np.zeros((n_dbar, n_cols), dtype=complex)
    for i in range(dim):
        for a, (p, q) in enumerate(monos):
            col = i * n_mono + a
            scale = _monomial_scale(p, q)
            if q >= 1:
                row = i * len(out_monos) + out_index[(p, q - 1)]
                a_c[row, col] += q / scale
    # connection term: a_ji multiplies f^j and feeds output component i
    for (j, i), poly in conn.items():
        for a, (p, q) in enumerate(monos):
            col = j * n_mono + a
            scale = _monomial_scale(p, q)
            for (pa, qa), c in poly.items():
                row = i * len(out_monos) + out_index[(p + pa, q + qa)]
                a_c[row, col] += c / scale
    # boundary collocation of Im f^i at uniform angles
    thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
    zb = np.exp(1j * thetas)
    n_bnd = dim * n_boundary
    b_c = np.zeros((n_bnd, n_cols), dtype=complex)
    for i in range(dim):
        for a, (p, q) in enumerate(monos):
            col = i * n_mono + a
            vals = zb ** (p - q) / _monomial_scale(p, q)
            rows = i * n_boundary + np.arange(n_boundary)
            b_c[rows, col] = vals

    # real form: unknown x = (Re a, Im a)
    top = np.block([[a_c.real, -a_c.imag], [a_c.imag, a_c.real]])
    bnd = np.sqrt(2.0 * np.pi / n_boundary) * np.block([[b_c.imag, b_c.real]])
    full = np.vstack([top, bnd])
    svals = np.linalg.svd(full, compute_uv=False)
    rank = int(np.sum(svals > svd_threshold * svals[0]))
    kdim = full.shape[1] - rank
    if return_details:
        return kdim, svals
    return kdim


# ---------------------------------------------------------------------------
# frames and the U sections


@dataclass
class HolomorphicFrame:
    """Flat-case kernel frame: real constants and the (1,0) combinations."""

    n: int
    W: list                      # 2n constant real sections (VariationField)
    selected: list               # indices i_1..i_n with {W, JW} orthonormal
    V: list                      # V_j = W_{i_j} - i J W_{i_j}
    gram_error: float = 0.0      # deviation of the {W, JW} Gram from identity
    pairing_variation: float = 0.0  # sup variation of (W_i, W_j) over the disk


def build_frame(f: DiskMap, df: DefiningFunction) -> HolomorphicFrame:
    """Standard-basis frame; in the flat trivialization the selection
    {e_{x_j}} already makes {W_{i_j}, J W_{i_j}} orthonormal on dD."""
    n = f.n
    grid = f.grid
    dim = 2 * n
    W = []
    for c in range(dim):
        e = np.zeros(dim)
        e[c] = 1.0
        W.append(VariationField.constant(grid, n, e, label=f"W{c}"))
    selected = list(range(n))
    V = []
    for j in selected:
        vec = np.zeros(dim, dtype=complex)
        vec[j] = 1.0
        vec[n + j] = -1.0j
        V.append(VariationField.constant(grid, n, vec, label=f"V{j}"))
    # verify orthonormality of {W_sel, J W_sel} on the boundary
    frame = []
    for j in selected:
        frame.append(W[j].boundary[0])
        e = np.zeros(dim)
        e[n + j] = 1.0
        frame.append(e)
    gram = np.array([[u @ v for v in frame] for u in frame])
    gram_error = float(np.max(np.abs(gram - np.eye(dim))))
    # (W_i, W_j) is constant over the disk for constant sections
    pair_var = 0.0
    for wi in W:
        for wj in W:
            pairing = hermitian(wi.values, wj.values)
            pair_var = max(pair_var, float(np.max(np.abs(pairing - pairing.flat[0]))))
    return HolomorphicFrame(n=n, W=W, selected=selected, V=V,
                            gram_error=gram_error, pairing_variation=pair_var)


@dataclass
class USections:
    """The admissible holomorphic sections U_j and their diagnostics."""

    sections: list               # n-1 complex VariationFields
    pivot: int
    coefficients: np.ndarray = field(repr=False)  # (n_r, n_theta, n) complex
    dbar_coefficient_sup: float = 0.0
    orthogonality_sup: float = 0.0
    min_boundary_norm: float = 0.0


def build_U(frame: HolomorphicFrame, f: DiskMap, tol_holo: float = 1e-8) -> USections:
    """Pivoted combinations of the frame sections orthogonal to f_zbar.

    Refuses when the map is holomorphic (sup dbar-energy density below
    tol_holo): the instability certificate would be vacuous.
    """
    grid = f.grid
    n = f.n
    density = dbar_density(f)
    if float(np.max(density)) <= tol_holo:
        raise VacuousCertificateError(
            f"map {f.name!r} is holomorphic within {tol_holo:.1e}: "
            "no instability certificate applies"
        )
    d = f.derivatives()
    g = d.f_zbar
    g_b = d.boundary_f_zbar
    # c_j = <<V_j, f_zbar>> = G_{x_j} - i G_{y_j}
    coeff = g[..., :n] - 1j * g[..., n:]
    coeff_b = g_b[..., :n] - 1j * g_b[..., n:]
    sups = np.max(np.abs(coeff.reshape(-1, n)), axis=0)
    pivot = int(np.argmax(sups))
    if sups[pivot] < 1e-14:
        raise DegeneratePivotError("all frame pairings vanish identically")
    # each coefficient must be holomorphic (f harmonic). dbar c_j is
    # conj(Laplacian f_j) / 4, so the sup is taken on the annulus that
    # harmonic_residual uses, away from the noise at the centre and the rim
    cr = grid.radial_derivative(coeff)
    ct = grid.theta_derivative(coeff)
    cx, cy = grid.cartesian_from_polar(cr, ct)
    dbar_c = 0.5 * (cx + 1j * cy)
    annulus = (grid.r >= INNER_RADIUS) & (grid.r <= INTERIOR_RADIUS)
    dbar_sup = float(np.max(np.abs(dbar_c[annulus])))

    sections = []
    orth_sup = 0.0
    min_bnorm = np.inf
    for j in range(n):
        if j == pivot:
            continue
        vals = (
            coeff[..., pivot, None] * frame.V[j].values
            - coeff[..., j, None] * frame.V[pivot].values
        )
        bvals = (
            coeff_b[..., pivot, None] * frame.V[j].boundary
            - coeff_b[..., j, None] * frame.V[pivot].boundary
        )
        U = VariationField(grid, n, vals, bvals, label=f"U{j}")
        orth = float(np.max(np.abs(hermitian(bvals, g_b))))
        orth_sup = max(orth_sup, orth)
        min_bnorm = min(min_bnorm, float(np.min(np.linalg.norm(bvals, axis=-1))))
        sections.append(U)
    return USections(
        sections=sections,
        pivot=pivot,
        coefficients=coeff,
        dbar_coefficient_sup=dbar_sup,
        orthogonality_sup=orth_sup,
        min_boundary_norm=min_bnorm,
    )


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    """Certified Morse-index lower bound from holomorphic variations."""

    mode: str                    # "pc" or "kpc"
    k: int
    pivot: int
    values: list                 # I(U_j, U_j)
    certified_bound: int
    domain_classification: dict
    tolerances: dict
    real_crosscheck: list        # per section: (I(Re U), I(Im U))
    diagnostics: dict

    def to_json_dict(self):
        return {
            "mode": self.mode,
            "k": self.k,
            "pivot": self.pivot,
            "values": [float(v) for v in self.values],
            "certified_bound": self.certified_bound,
            "domain_classification": self.domain_classification,
            "tolerances": self.tolerances,
            "real_crosscheck": [[float(a), float(b)] for a, b in self.real_crosscheck],
            "diagnostics": self.diagnostics,
        }


def certify_index(f: DiskMap, df: DefiningFunction, k: int = 1, *,
                  tol_holo: float = 1e-8, tol_h: float = 1e-7, tol_b: float = 1e-7,
                  tol_pc: float = 1e-9) -> Certificate:
    """Morse-index lower-bound certificate for a critical non-holomorphic map.

    k = 1 certifies the bound n - 1 on a strictly pseudoconvex domain
    (every I(U_j, U_j) < 0 counts); k >= 2 requires strict
    k-pseudoconvexity at the sampled boundary image, verifies that every
    k-subset of the values sums negative, and certifies n - k by
    pigeonhole. Refuses with the failing diagnostic when a precondition is
    not met.
    """
    mode = "pc" if k == 1 else "kpc"
    critical, report = is_critical(f, df, tol_h=tol_h, tol_b=tol_b)
    if not critical:
        raise Refusal(
            f"map {f.name!r} is not a critical point: harmonic residual "
            f"{report.harmonic_residual:.3e}, boundary residual "
            f"{report.boundary_residual:.3e}"
        )
    classification = classify_pseudoconvexity(df, f.boundary, k=k, tol_pc=tol_pc)
    if classification.classification != "strict":
        raise Refusal(
            f"domain {df.name!r} is not strictly "
            f"{'pseudoconvex' if k == 1 else f'{k}-pseudoconvex'} on the sampled "
            f"boundary image (classified {classification.classification}, "
            f"margin {classification.margin:.3e})"
        )
    frame = build_frame(f, df)
    us = build_U(frame, f, tol_holo=tol_holo)
    if us.dbar_coefficient_sup > 1e-8:
        raise Refusal(
            "holomorphic pairing coefficients fail the dbar check "
            f"(sup {us.dbar_coefficient_sup:.3e}); is the map harmonic?"
        )
    state = boundary_state(f, df)
    values = [index_form_complex(f, df, U, state=state) for U in us.sections]
    tol_cert = 1e-8 * max(1.0, max(abs(v) for v in values))

    crosscheck = []
    for U in us.sections:
        rr = index_form_real(f, df, U.real_part, state=state)
        ri = index_form_real(f, df, U.imag_part, state=state)
        crosscheck.append((rr, ri))

    if mode == "pc":
        certified = sum(1 for v in values if v < -tol_cert)
    else:
        from itertools import combinations

        for subset in combinations(range(len(values)), k):
            s = sum(values[j] for j in subset)
            if not s < -tol_cert:
                raise Refusal(
                    f"k-subset sum {s:.3e} for sections {list(subset)} is not "
                    "negative: the pigeonhole bound does not apply"
                )
        certified = (f.n - 1) - (k - 1)

    diag = {
        "pairing_dbar_sup": us.dbar_coefficient_sup,
        "orthogonality_sup": us.orthogonality_sup,
        "min_boundary_norm": us.min_boundary_norm,
        "complex_vs_real_gap": max(
            abs(v - (a + b)) / max(1.0, abs(v))
            for v, (a, b) in zip(values, crosscheck)
        ),
        "negative_direction_found": all(min(a, b) < 0 for a, b in crosscheck),
    }
    return Certificate(
        mode=mode,
        k=k,
        pivot=us.pivot,
        values=values,
        certified_bound=certified,
        domain_classification=classification.to_json_dict(),
        tolerances={"tol_holo": tol_holo, "tol_cert": tol_cert, "tol_pc": tol_pc},
        real_crosscheck=crosscheck,
        diagnostics=diag,
    )
