"""Holomorphic sections real on the boundary and Morse-index certificates.

In the flat trivialization the kernel of the boundary problem

    dbar W = 0 on D,   Im W = 0 on dD

consists of the real constant sections: dimension 2n over R, which
``dbar_kernel_dimension`` recovers numerically as the null space of the
discretized operator. It never forms that operator whole. dbar sends
z^p zbar^q to z^p zbar^(q - 1), of frequency p - q + 1 on the circle, and
Im f = 0 pairs frequency m with -m, so for a component that no connection
entry touches (a flat one) the normal matrix is block-diagonal over
|p - q|: its spectrum is the union of one small SVD per |p - q|, the same
for every flat component. The components that connection entries a_ji
touch form one block together, also when the entries split them into
independent groups: per-group solves would make the cost depend cubically
on how a connection happens to split, so that two connections touching the
same components could differ fourfold. That block is kept only as the
(row, column, value) triples of its real operator, and its Gram matrix is
summed from the pairs of entries that share a row. Its spectrum comes from
the eigenvalues of the Gram matrix, with the values near the kernel
recomputed by a Ritz pass (``_operator_spectrum``). dbar moves the
frequency by 1 and a connection term z^p_a zbar^q_a by p_a - q_a, so with
S the spread of those shifts the Gram matrix couples two unknowns only if
their |p - q| differ by at most S. Ordered by |p - q| // S it is block
tridiagonal, and the Ritz pass
solves with it band by band, eliminating band 0 last: it holds
frequency 0 and with it the near-kernel, so that the nearly singular pivot
block is the last one solved. The rank is cut against the largest singular
value of all blocks.
The constant (1,0) vectors V_j = e_{x_j} - i e_{y_j}
need no frame object: pairing them against f_zbar gives holomorphic
coefficient functions c_j = <<V_j, f_zbar>> (f harmonic), checked through
dbar c_j = conj(Laplacian w_j) / 4 for w_j = x_j + i y_j, and the combinations

    U_j = c_k V_j - c_j V_k     (j != k)

are admissible holomorphic (1,0) sections orthogonal to f_zbar. The
interior terms of their index forms are the Dirichlet energies of the rim
traces of the c_j and integrals of the Laplacian of f. Their index-form
values reduce to boundary integrals of -lambda times the Levi
form, which are negative on strictly pseudoconvex domains: each certifies
a negative direction, giving the Morse-index lower bound n - 1 (and n - k
under strict k-pseudoconvexity via subset sums).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .criticality import annulus, boundary_state, is_critical
from .diskmap import DiskMap
from .errors import (
    DegeneratePivotError,
    Refusal,
    ResolutionError,
    VacuousCertificateError,
    require_number,
)
from .geometry import DefiningFunction, classify_levi, hermitian
from .secondvar import VariationField, index_form_complex, index_form_real

__all__ = [
    "USections",
    "Certificate",
    "dbar_kernel_dimension",
    "build_U",
    "certify_index",
]


# ---------------------------------------------------------------------------
# Fredholm kernel of the dbar boundary problem


def _monomials(degree):
    """Exponents (p, q) of z^p zbar^q with p + q <= degree, ordered by total
    degree, then p; (p, q) sits at _mono_index(p, q)."""
    tot = np.repeat(np.arange(degree + 1), np.arange(1, degree + 2))
    p = np.arange(tot.size) - tot * (tot + 1) // 2
    return p, tot - p


def _mono_index(p, q):
    tot = p + q
    return tot * (tot + 1) // 2 + p


def _monomial_scale(p, q):
    # L^2(D) norm of z^p zbar^q is sqrt(pi / (p + q + 1))
    return np.sqrt((p + q + 1) / np.pi)


def _checked_connection(connection, dim):
    """The connection with int components and exponents and complex
    coefficients; ValueError names the offending key."""
    if connection is None:
        connection = {}
    if not isinstance(connection, dict):
        raise ValueError(f"connection must be a dict or None, got {connection!r}")
    conn = {}
    for key, poly in connection.items():
        try:
            if not (isinstance(key, tuple) and len(key) == 2 and isinstance(poly, dict)):
                raise ValueError("not a pair (j, i) mapped to a dict of monomials")
            j, i = (require_number("component", c, integer=True, minimum=0) for c in key)
            if max(j, i) >= dim:
                raise ValueError(f"component out of [0, {dim})")
            terms = {}
            for pq, c in poly.items():
                if not (isinstance(pq, tuple) and len(pq) == 2):
                    raise ValueError(f"exponent {pq!r} is not a pair (p, q)")
                pa, qa = (require_number("exponent", e, integer=True, minimum=0)
                          for e in pq)
                if not (isinstance(c, numbers.Number) and np.isfinite(complex(c))):
                    raise ValueError(f"coefficient {c!r} of {pq!r} is not a finite number")
                terms[pa, qa] = complex(c)
        except ValueError as exc:
            raise ValueError(f"connection entry {key!r}: {exc}") from None
        conn[j, i] = terms
    return conn


def _real_operator(comps, conn, degree):
    """The real operator f -> (dbar f + a f, Im f on the circle) on the
    listed components as (row, col, val) triples, with the band of every
    column. The real unknowns are the real parts, then the imaginary parts,
    of the coefficients of the L^2-normalised monomials of degree <= degree;
    the rows are realify(A) = [[Re A, -Im A], [Im A, Re A]] of the complex
    interior operator A, then the real boundary rows.

    dbar z^p zbar^q = q z^p zbar^(q - 1), and the entry a_ji term
    (p_a, q_a) sends z^p zbar^q of component j to z^(p + p_a) zbar^(q + q_a)
    of component i. The boundary rows are the Fourier coefficients of Im f:
    for k = |p - q| the cosine row takes Im a and the sine row
    sign(p - q) Re a, weighted so that their Gram matrix equals that of
    Im f collocated at any number N > 2 degree of uniform angles.

    The band of z^p zbar^q is |p - q| // S, S the spread of the frequency
    shifts {1} u {p_a - q_a} (at least 1): two unknowns share a row only if
    their bands differ by at most 1.
    """
    p, q = _monomials(degree)
    g, n_mono = len(comps), p.size
    local = {c: l for l, c in enumerate(comps)}
    inv_s = 1.0 / _monomial_scale(p, q)
    mono = np.arange(n_mono)
    comp = np.arange(g)[:, None]
    # complex operator as (row, column, value): dbar on every component,
    # then each connection term (j, i, p_a, q_a, c) inside the group
    terms = np.array([(local[j], local[i], pa, qa, c.real, c.imag)
                      for (j, i), poly in conn.items()
                      for (pa, qa), c in poly.items()]).reshape(-1, 6)
    tj, ti, tp, tq = (terms[:, k, None].astype(int) for k in range(4))
    deg_out = degree + int(np.max(tp + tq, initial=0))
    n_out = (deg_out + 1) * (deg_out + 2) // 2
    has_q = q >= 1
    rows = np.concatenate([(comp * n_out + _mono_index(p, q - 1)[has_q]).ravel(),
                           (ti * n_out + _mono_index(p + tp, q + tq)).ravel()])
    cols = np.concatenate([(comp * n_mono + mono[has_q]).ravel(),
                           (tj * n_mono + mono).ravel()])
    vals = np.concatenate([np.tile(q[has_q] * inv_s[has_q], g),
                           ((terms[:, 4] + 1j * terms[:, 5])[:, None] * inv_s).ravel()])
    n_int, m = g * n_out, g * n_mono
    row = [rows, rows + n_int, rows, rows + n_int]
    col = [cols, cols, cols + m, cols + m]
    val = [vals.real, vals.imag, -vals.imag, vals.real]

    n_freq = 2 * degree + 1
    freq = np.abs(p - q)
    bcol = (comp * n_mono + mono).ravel()
    brow = 2 * n_int + (comp * n_freq + freq).ravel()
    sin = np.tile(freq > 0, g)
    row += [brow, brow[sin] + degree]
    col += [bcol + m, bcol[sin]]
    val += [np.tile(np.where(freq == 0, np.sqrt(2.0 * np.pi), np.sqrt(np.pi)) * inv_s, g),
            np.tile(np.sqrt(np.pi) * np.sign(p - q) * inv_s, g)[sin]]
    row, col, val = (np.concatenate(x) for x in (row, col, val))
    keep = val != 0.0
    spread = int(np.ptp(np.append(tp - tq, 1)))
    band = np.tile(freq // max(1, spread), 2 * g)
    return row[keep], col[keep], val[keep], band


def _gram(row, col, val, size):
    """M^T M of the operator M with size columns and entries val at
    (row, col): every ordered pair of entries in one row adds its product
    at (col_a, col_b), and one bincount sums them all."""
    order = np.argsort(row, kind="stable")
    row, col, val = row[order], col[order], val[order]
    count = np.bincount(row)
    per = count[row]                       # entries sharing each entry's row
    a = np.repeat(np.arange(row.size), per)
    b = np.repeat(np.cumsum(count)[row] - per, per)
    b += np.arange(a.size) - np.repeat(np.cumsum(per) - per, per)
    return np.bincount(col[a] * size + col[b], weights=val[a] * val[b],
                       minlength=size * size).reshape(size, size)


# singular values below REFINE_CUT sigma_0 come from the Ritz pass; its
# subspace also holds those up to GUARD REFINE_CUT sigma_0, so the directions
# it leaves out shrink by (1 / GUARD)^2 or faster per inverse iteration
REFINE_CUT = 1e-3
GUARD = 10.0
RITZ_TOL = 1e-14
MAX_RITZ_ITERATIONS = 10


def _operator_spectrum(row, col, val, band):
    """Singular values, descending, of the real operator with entries val at
    (row, col), whose column c lies in band band[c].

    The unknowns are ordered by band, so that the Gram matrix M^T M
    (``_gram``) is block tridiagonal, and one values-only eigensolve of it
    gives every singular value as sqrt(lambda), with an error of about
    eps sigma_0^2 / sigma. That is too coarse near the kernel, so the
    values below REFINE_CUT sigma_0 are recomputed by _ritz_values.
    """
    order = np.argsort(band, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    col = position[col]
    edges = np.searchsorted(band[order], np.arange(band.max() + 2))
    gram = _gram(row, col, val, band.size)
    lam = np.linalg.eigvalsh(gram)
    svals = np.sqrt(np.maximum(lam, 0.0))
    refine = int(np.searchsorted(svals, REFINE_CUT * svals[-1]))
    if refine:
        width = int(np.searchsorted(svals, GUARD * REFINE_CUT * svals[-1]))
        svals[:refine] = _ritz_values(row, col, val, gram, edges, lam, refine, width)
    return svals[::-1]


def _band_solver(gram, edges):
    """x -> gram^-1 x for a block-tridiagonal gram whose band b holds the
    unknowns edges[b]:edges[b + 1]; the diagonal blocks of gram are
    overwritten with their Schur complements.

    The bands are eliminated from the last one down to band 0, which holds
    frequency 0 and with it the near-kernel. The Schur complements met on
    the way are those of blocks without it and stay well conditioned; the
    nearly singular one is band 0's, solved last. The Schur complements S_b
    and the couplings S_b^-1 E_(b-1)^T, E_b the block of bands (b, b + 1),
    are formed once; a solve then takes one np.linalg.solve per band, none
    wider than the widest band.
    """
    bands = [slice(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
    schur = [gram[b, b] for b in bands]
    upper = [gram[lo, hi] for lo, hi in zip(bands[:-1], bands[1:])]
    coupling = [None] * len(bands)
    for b in range(len(bands) - 1, 0, -1):
        coupling[b] = np.linalg.solve(schur[b], upper[b - 1].T)
        schur[b - 1] -= upper[b - 1] @ coupling[b]

    def solve(rhs):
        z = [None] * len(bands)
        y = rhs[bands[-1]]
        for b in range(len(bands) - 1, 0, -1):
            z[b] = np.linalg.solve(schur[b], y)
            y = rhs[bands[b - 1]] - upper[b - 1] @ z[b]
        x = np.empty_like(rhs)
        x[bands[0]] = np.linalg.solve(schur[0], y)
        for b in range(1, len(bands)):
            x[bands[b]] = z[b] - coupling[b] @ x[bands[b - 1]]
        return x

    return solve


def _ritz_values(row, col, val, gram, edges, lam, count, width):
    """The count smallest singular values, ascending, of the operator M with
    entries val at (row, col): those of M on an orthonormal basis V of the
    eigenvectors of its Gram matrix for the width smallest eigenvalues lam
    (ascending).

    V comes from inverse subspace iteration on gram + mu I, mu = eps
    lambda_max, solved band by band (``_band_solver``; gram is overwritten),
    from a fixed pseudo-random start; each pass forms
    M V from the triples and takes the values of that thin product. A pass
    shrinks the rest of the spectrum by
    rate = (lam[count - 1] + mu) / (lam[width] + mu) against the values
    wanted, so the iteration stops once the last change, times
    rate / (1 - rate), is below RITZ_TOL sigma_0.
    """
    mu = np.finfo(float).eps * lam[-1]
    gram[np.diag_indices_from(gram)] += mu
    solve = _band_solver(gram, edges)
    rate = (max(lam[count - 1], 0.0) + mu) / (lam[width] + mu)
    tol = RITZ_TOL * np.sqrt(lam[-1]) * (1.0 - rate) / rate
    n_rows = int(row.max()) + 1
    v = np.random.default_rng(0).standard_normal((gram.shape[0], width))
    theta = None
    for _ in range(MAX_RITZ_ITERATIONS):
        v = np.linalg.qr(solve(v))[0]
        mv = np.stack([np.bincount(row, val * v[col, j], n_rows) for j in range(width)],
                      axis=1)
        last, theta = theta, np.linalg.svd(mv, compute_uv=False)[::-1][:count]
        if last is not None and np.max(np.abs(theta - last)) <= tol:
            break
    return theta


def dbar_kernel_dimension(n: int, degree: int = 6,
                          connection: Optional[dict] = None,
                          svd_threshold: float = 1e-8,
                          return_details: bool = False):
    """Numerical kernel dimension of (A f)_i = dbar f^i + sum_j a_ji f^j
    with the boundary condition Im f = 0.

    The 2n complex component functions are expanded in monomials z^p zbar^q
    of total degree <= degree; the boundary condition enters as the
    Fourier coefficients of Im f on the circle. connection maps (j, i) to
    {(p, q): coeff} polynomial coefficients of the (0,1)-form entries a_ji
    (default zero, the flat trivialization). Kernel dimension counts real
    dimensions: the singular values at or below svd_threshold times the
    largest one; in the flat case it is 2n (the real constants). With
    return_details, also all 2 * 2n * (degree + 1)(degree + 2) / 2 singular
    values, descending.

    The spectrum is assembled block by block (see the module docstring):
    one Gram eigensolve and a Ritz pass for the components the connection
    touches, and for the flat components one small SVD per |p - q|, shared
    by all of them.
    """
    require_number("n", n, integer=True, minimum=1)
    require_number("degree", degree, integer=True)
    if degree < 1:
        raise ResolutionError("polynomial degree must be >= 1")
    if not 0.0 < require_number("svd_threshold", svd_threshold) < 1.0:
        raise ValueError(f"svd_threshold must lie in (0, 1), got {svd_threshold!r}")
    dim = 2 * n
    conn = _checked_connection(connection, dim)
    coupled = sorted({c for key in conn for c in key})
    spectra = []
    if coupled:
        spectra.append(_operator_spectrum(*_real_operator(coupled, conn, degree)))
    n_flat = dim - len(coupled)
    if n_flat:
        row, col, val, band = _real_operator([0], {}, degree)
        flat = np.zeros((row.max() + 1, band.size))
        np.add.at(flat, (row, col), val)
        blocks = [np.linalg.svd(flat[:, band == k], compute_uv=False)
                  for k in range(degree + 1)]
        spectra += [np.concatenate(blocks)] * n_flat
    svals = np.sort(np.concatenate(spectra))[::-1]
    rank = int(np.sum(svals > svd_threshold * svals[0]))
    kdim = svals.size - rank
    if return_details:
        return kdim, svals
    return kdim


# ---------------------------------------------------------------------------
# the U sections


@dataclass
class USections:
    """The admissible holomorphic sections U_j and their diagnostics."""

    sections: list               # n-1 complex VariationFields
    pivot: int
    dbar_coefficient_sup: float = 0.0
    orthogonality_sup: float = 0.0
    min_boundary_norm: float = 0.0


def build_U(f: DiskMap, tol_holo: float = 1e-8) -> USections:
    """The sections U_j = c_p V_j - c_j V_p (j != p) orthogonal to f_zbar.

    V_j = e_{x_j} - i e_{y_j} are the constant (1,0) vectors and
    c_j = <<V_j, f_zbar>> the pairing coefficients. f is assumed harmonic
    (``certify_index`` checks it first), so the c_j are holomorphic and
    |f_zbar|^2 = sum |c_j|^2 and each |c_j| peak on the rim. There the map
    is refused as holomorphic (sup |f_zbar|^2 at most tol_holo: the
    instability certificate would be vacuous) and the pivot p, the
    coefficient with the largest sup, is chosen. Nothing is differentiated.
    """
    grid, n = f.grid, f.n
    d = f.derivatives()
    g_b = d.boundary_f_zbar
    if float(np.max(np.sum(g_b**2, axis=-1))) <= tol_holo:
        raise VacuousCertificateError(
            f"map {f.name!r} is holomorphic within {tol_holo:.1e}: "
            "no instability certificate applies"
        )
    # c_j = <<V_j, f_zbar>> = G_{x_j} - i G_{y_j}
    coeff_b = g_b[:, :n] - 1j * g_b[:, n:]
    sups = np.max(np.abs(coeff_b), axis=0)
    pivot = int(np.argmax(sups))
    if sups[pivot] < 1e-14:
        raise DegeneratePivotError("all pairing coefficients vanish identically")
    # each coefficient must be holomorphic (f harmonic). With w_j = x_j + i y_j,
    # c_j = conj(dw_j/dzbar) and |dbar c_j| = |Laplacian w_j| / 4, from the
    # map's cached Laplacian (None, all 0, for a harmonic polynomial map); the
    # sup is taken on the annulus that harmonic_residual uses, away from the
    # noise at the centre and the rim
    dbar_sup, dbar2, lap = 0.0, np.zeros(n), f.laplacian()
    if lap is not None:
        lap2 = lap**2
        lap2 = lap2[..., :n] + lap2[..., n:]
        dbar_sup = 0.25 * float(np.sqrt(np.max(lap2[annulus(grid)])))
        dbar2 = 0.25 * (grid.w_disk.ravel() @ lap2.reshape(-1, n))
    # per coefficient: D_k = int |2 dbar c_k|^2 = int |Laplacian w_k|^2 / 4, and
    # G_k = int |grad c_k|^2 the Dirichlet energy of the rim trace of c_k
    grad2 = grid.dirichlet_energy(coeff_b)

    def section(g, j):
        """U_j = c_p V_j - c_j V_p from f_zbar samples g (..., 2n): (..., 2n)."""
        c = g[..., :n] - 1j * g[..., n:]
        u = np.zeros(c.shape[:-1] + (2 * n,), dtype=complex)
        u[..., j], u[..., n + j] = c[..., pivot], -1j * c[..., pivot]
        u[..., pivot], u[..., n + pivot] = -c[..., j], 1j * c[..., j]
        return u

    # U_j is (c_p, -i c_p, -c_j, i c_j) on (x_j, y_j, x_p, y_p): Re U_j and
    # Im U_j each carry G_p + G_j, and the complex form's interior term
    # 1/2 int |U_r + i U_theta / r|^2 = 2 int |dU/dzbar|^2 is D_p + D_j
    others = [j for j in range(n) if j != pivot]
    sections = [
        VariationField._lazy(grid, n, lambda j=j: section(d.f_zbar, j), section(g_b, j),
                             f"U{j}", (dbar2[pivot] + dbar2[j], grad2[pivot] + grad2[j],
                                       grad2[pivot] + grad2[j]))
        for j in others]
    bvals = np.array([U.boundary for U in sections])
    return USections(
        sections=sections,
        pivot=pivot,
        dbar_coefficient_sup=dbar_sup,
        orthogonality_sup=float(np.max(np.abs(hermitian(bvals, g_b)), initial=0.0)),
        min_boundary_norm=float(np.min(np.linalg.norm(bvals, axis=-1), initial=np.inf)),
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
            "values": np.array(self.values, dtype=float).tolist(),
            "certified_bound": self.certified_bound,
            "domain_classification": self.domain_classification,
            "tolerances": self.tolerances,
            "real_crosscheck": np.array(self.real_crosscheck, dtype=float).tolist(),
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
    classification = classify_levi(boundary_state(f, df).levi, k=k, tol_pc=tol_pc)
    if classification.classification != "strict":
        raise Refusal(
            f"domain {df.name!r} is not strictly "
            f"{'pseudoconvex' if k == 1 else f'{k}-pseudoconvex'} on the sampled "
            f"boundary image (classified {classification.classification}, "
            f"margin {classification.margin:.3e})"
        )
    us = build_U(f, tol_holo=tol_holo)
    if us.dbar_coefficient_sup > 1e-8:
        raise Refusal(
            "holomorphic pairing coefficients fail the dbar check "
            f"(sup {us.dbar_coefficient_sup:.3e}); is the map harmonic?"
        )
    values = [index_form_complex(f, df, U) for U in us.sections]
    tol_cert = 1e-8 * max(1.0, max(abs(v) for v in values))

    crosscheck = []
    for U in us.sections:
        rr = index_form_real(f, df, U.real_part)
        ri = index_form_real(f, df, U.imag_part)
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
