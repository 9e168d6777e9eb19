"""Reference values and output checks, computed apart from dbardisk.

Nothing in this module imports the program. Each check takes one output
as plain numbers (parsed back from the JSON text or CSV the program wrote,
or returned by a library call) and returns a list of failure messages; an
empty list means the output is right.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations

import numpy as np

FOUR_PI = 4.0 * math.pi
KMAX = 6                 # mode cap of dbardisk's admissible_basis
SVD_THRESHOLD = 1e-8     # relative rank cut of dbar_kernel_dimension
NEG_REL = 1e-8           # relative negativity cutoff of the Gram spectrum


def strict_json(text: str):
    """Parse JSON, refusing the NaN / Infinity tokens that strict JSON lacks."""

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


# ---------------------------------------------------------------------------
# Gram spectra of the index form


def frame_count(n: int) -> int:
    """Projected tangent frames before the first interior bump: 2n per
    (k, cos/sin) mode, k = 0..KMAX, with no sin mode at k = 0."""
    return 2 * n * (2 * KMAX + 1)


def bump_modes(n: int):
    """(k, tag, component) of the interior bumps, in basis order."""
    for k in range(KMAX + 1):
        for tag in (("cos",) if k == 0 else ("cos", "sin")):
            for c in range(2 * n):
                yield k, tag, c


def _poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


def _integrate_01(poly: dict) -> Fraction:
    """int_0^1 of sum c r^e dr, exactly (all e >= 0)."""
    return sum((Fraction(c) / (e + 1) for e, c in poly.items()), Fraction(0))


def bump_gram_entry(k: int) -> float:
    """Diagonal Gram entry of the bump p(r) trig(k theta) e_c, p = r^k (1 - r^2).

    The bump vanishes on the rim, so only the interior term survives:
    1/2 int_theta int_0^1 (p'^2 + k^2 p^2 / r^2) r dr, with
    int_theta = 2 pi for k = 0 and pi otherwise.
    """
    p = {k: 1, k + 2: -1}
    dp = {e - 1: e * c for e, c in p.items() if e}
    radial = _integrate_01({e + 1: c for e, c in _poly_mul(dp, dp).items()})
    if k:
        # k^2 p^2 / r: every exponent of p^2 is >= 2k >= 2
        radial += k * k * _integrate_01({e - 1: c for e, c in _poly_mul(p, p).items()})
    angular = 2.0 * math.pi if k == 0 else math.pi
    return 0.5 * angular * float(radial)


def check_gram(matrix, labels, report_gram: dict, n: int, stable: bool) -> list:
    """Gram matrix from gram.csv plus the gram section of report.json.

    stable=True: the map is f4 on weak_rank_one, whose index form is
    non-negative. stable=False: a conjugate disk in a ball of C^n, whose
    index is at least n - 1.
    """
    bad = []
    g = np.asarray(matrix, dtype=float)
    m = g.shape[0]
    if g.shape != (m, m) or list(labels) != list(report_gram["labels"]):
        return [f"gram.csv shape {g.shape} or labels disagree with report.json"]
    scale = float(np.max(np.abs(g)))
    asym = float(np.max(np.abs(g - g.T)))
    if not asym <= 1e-12 * scale:
        bad.append(f"Gram matrix not symmetric: max |G - G^T| = {asym:.3e}")
    eigs = np.linalg.eigvalsh(0.5 * (g + g.T))
    reported = np.asarray(report_gram["eigenvalues"], dtype=float)
    top = float(np.max(np.abs(eigs)))
    if reported.shape != eigs.shape or not np.allclose(reported, eigs, rtol=0,
                                                       atol=1e-10 * top):
        bad.append("reported eigenvalues differ from the spectrum of the matrix")
    tol_neg = NEG_REL * top
    negative = int(np.sum(eigs < -tol_neg))
    if report_gram["negative_count"] != negative:
        bad.append(f"negative_count {report_gram['negative_count']} != {negative}")
    if stable and eigs[0] < -tol_neg:
        bad.append(f"stable map has eigenvalue {eigs[0]:.3e} < -{tol_neg:.3e}")
    if not stable and negative < n - 1:
        bad.append(f"negative_count {negative} < n - 1 = {n - 1}")
    first = frame_count(n)
    modes = list(bump_modes(n))[: max(0, m - first)]
    idx = np.arange(first, first + len(modes))
    for i, (k, tag, c) in zip(idx, modes):
        if labels[i] != f"bump-k{k}-{tag}-e{c}":
            bad.append(f"basis entry {i} is {labels[i]!r}, expected bump k={k} {tag} e{c}")
            return bad
    if len(idx):
        block = g[np.ix_(idx, idx)]
        expect = np.array([bump_gram_entry(k) for k, _, _ in modes])
        diag_err = float(np.max(np.abs(np.diag(block) - expect) / expect))
        off = float(np.max(np.abs(block - np.diag(np.diag(block)))))
        if not diag_err <= 1e-10:
            bad.append(f"bump Gram diagonal off the closed form by {diag_err:.3e} (rel)")
        if not off <= 1e-10 * float(np.max(expect)):
            bad.append(f"bump Gram entries between different modes reach {off:.3e}")
    return bad


# ---------------------------------------------------------------------------
# Fredholm kernel of the dbar boundary problem


def kernel_unknowns(n: int, degree: int) -> int:
    """Real unknowns: 2n complex components, monomials of degree <= degree."""
    return 2 * (2 * n) * ((degree + 1) * (degree + 2) // 2)


def check_kernel(kdim: int, svals, n: int, degree: int) -> list:
    """Kernel dimension 2n (the real constants), with a clean rank cut: the
    gap (sigma_{r-1} - sigma_r) / sigma_0 is at least 1e6 * SVD_THRESHOLD."""
    bad = []
    s = np.asarray(svals, dtype=float)
    if s.size != kernel_unknowns(n, degree):
        return [f"{s.size} singular values, expected {kernel_unknowns(n, degree)}"]
    if kdim != 2 * n:
        bad.append(f"kernel dimension {kdim}, expected 2n = {2 * n}")
    if np.any(np.diff(s) > 0) or s[0] <= 0:
        return bad + ["singular values not positive and descending"]
    rank = s.size - 2 * n
    gap = (s[rank - 1] - s[rank]) / s[0]
    if not gap >= 1e6 * SVD_THRESHOLD:
        bad.append(f"singular-value gap {gap:.3e} at the rank cut is below "
                   f"1e6 x threshold = {1e6 * SVD_THRESHOLD:.1e}")
    return bad


# ---------------------------------------------------------------------------
# certificates, criticality, Levi forms, energies, cutoffs


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def check_ball_certificate(cert: dict, n: int) -> list:
    """Conjugate disk in the unit ball of C^n: n - 1 values, each -4 pi."""
    bad = []
    values = cert["values"]
    if len(values) != n - 1 or not all(_close(v, -FOUR_PI, 1e-9) for v in values):
        bad.append(f"certificate values {values} are not n - 1 = {n - 1} copies of -4 pi")
    if cert["certified_bound"] != n - 1:
        bad.append(f"certified bound {cert['certified_bound']} != n - 1 = {n - 1}")
    return bad


def check_kpc_certificate(cert: dict, k: int, bound: int, expected_values) -> list:
    """k-pseudoconvex certificate: every k-subset sum negative, the bound
    n - k, and the values -4 pi times the Levi eigenvalues at the image."""
    bad = []
    values = cert["values"]
    for subset in combinations(values, k):
        if not sum(subset) < 0:
            bad.append(f"k-subset sum {sum(subset):.6g} is not negative")
    if cert["certified_bound"] != bound:
        bad.append(f"certified bound {cert['certified_bound']} != {bound}")
    if len(values) != len(expected_values) or not all(
            _close(a, b, 1e-9) for a, b in zip(sorted(values), sorted(expected_values))):
        bad.append(f"certificate values {values} != {sorted(expected_values)}")
    return bad


def check_critical(crit: dict, lam=None) -> list:
    """The map is reported critical; lam, when given, is the exact multiplier."""
    bad = []
    if crit["critical"] is not True:
        bad.append("critical map not reported critical")
    if lam is not None:
        worst = max(abs(v - lam) for v in crit["lambda"])
        if not worst <= 1e-9:
            bad.append(f"lambda differs from {lam} by up to {worst:.3e}")
    return bad


def check_levi(levi: dict, margin: float, classification: str) -> list:
    bad = []
    if not abs(levi["margin"] - margin) <= 1e-9:
        bad.append(f"Levi margin {levi['margin']:.12g}, expected {margin}")
    if levi["classification"] != classification:
        bad.append(f"classified {levi['classification']!r}, expected {classification!r}")
    return bad


def _monomial_inner(a: int, b: int, a2: int, b2: int) -> float:
    """int_D z^a zbar^b conj(z^a2 zbar^b2) dx dy."""
    if a - b != a2 - b2:
        return 0.0
    return 2.0 * math.pi / (a + b + a2 + b2 + 2)


def _l2_squared(terms) -> float:
    """int_D |sum c z^p zbar^q|^2 dx dy for terms (p, q, c)."""
    total = 0.0
    for p, q, c in terms:
        for p2, q2, c2 in terms:
            total += (c * np.conj(c2)).real * _monomial_inner(p, q, p2, q2)
    return total


def polynomial_energies(coords) -> dict:
    """Closed-form energies of w_j = sum c z^p zbar^q, coords[j] = [(p, q, c)].

    E'' = sum_j int |dw_j/dzbar|^2, E' = sum_j int |dw_j/dz|^2,
    E = E' + E'', and int f*omega = E' - E''.
    """
    e_dbar = sum(_l2_squared([(p, q - 1, c * q) for p, q, c in t if q]) for t in coords)
    e_del = sum(_l2_squared([(p - 1, q, c * p) for p, q, c in t if p]) for t in coords)
    return {"e_dbar": e_dbar, "e_del": e_del, "e_full": e_del + e_dbar,
            "kahler": e_del - e_dbar}


def check_energy(energy: dict, expected: dict) -> list:
    bad = []
    scale = max(1.0, abs(energy["e_full"]))
    if not abs(energy["e_full"] - energy["e_del"] - energy["e_dbar"]) <= 1e-12 * scale:
        bad.append("E != E' + E''")
    for key, want in expected.items():
        if not abs(energy[key] - want) <= 1e-10 * max(1.0, abs(want)):
            bad.append(f"{key} = {energy[key]:.15g}, closed form {want:.15g}")
    return bad


def check_cutoff(cutoff: list, transfer: list, eps_list) -> list:
    bad = []
    if [c["eps"] for c in cutoff] != list(eps_list):
        return [f"cutoff report covers eps {[c['eps'] for c in cutoff]}"]
    for rec in cutoff:
        limit = 2.2 * math.pi / abs(math.log(rec["eps"]))
        if not rec["dirichlet_integral"] <= limit:
            bad.append(f"Dirichlet integral {rec['dirichlet_integral']:.6g} > "
                       f"2.2 pi / |ln eps| = {limit:.6g} at eps {rec['eps']}")
        if not rec["derivative_bound_factor"] <= 1.1:
            bad.append(f"derivative bound factor {rec['derivative_bound_factor']:.6g} > 1.1")
    if len(transfer) != len(cutoff):
        bad.append("cutoff transfer does not cover every eps")
    for rec in transfer:
        if not rec["value"] >= rec["lower_bound"]:
            bad.append(f"cutoff value {rec['value']:.6g} below its lower bound "
                       f"{rec['lower_bound']:.6g} at eps {rec['eps']}")
    return bad


# ---------------------------------------------------------------------------
# maps given only as samples


def check_rotated_certificate(value: float) -> list:
    """Rotation invariance: the rotated conjugate disk still gives -4 pi."""
    if _close(value, -FOUR_PI, 1e-9):
        return []
    return [f"rotated certificate value {value:.15g} != -4 pi"]


def check_f4_family(result: dict) -> list:
    """The four routes to the f4 second variation agree to 1e-9, and the
    sum-of-squares closed form is non-negative."""
    bad = []
    vals = result["values"]
    scale = max(abs(v) for v in vals.values())
    for a, b in combinations(sorted(vals), 2):
        gap = abs(vals[a] - vals[b]) / max(scale, 1e-300)
        if not gap <= 1e-9:
            bad.append(f"routes {a} and {b} differ by {gap:.3e} (rel)")
    if not vals["closed_form_post_ibp"] >= -1e-12 * scale:
        bad.append("sum-of-squares closed form is negative")
    return bad


def check_fd_vs_index(fd_value: float, direct: float) -> list:
    gap = abs(fd_value - direct) / abs(direct)
    if gap <= 1e-6:
        return []
    return [f"finite-difference second variation {fd_value:.12g} vs index form "
            f"{direct:.12g}: rel gap {gap:.3e} > 1e-6"]
