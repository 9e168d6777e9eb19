"""The benchmark's four workloads: set-up, operations and their checks.

Each workload has a ``setup`` that imports dbardisk and builds what the
workload reuses (timed as ``setup_s``), and an ``operations`` function that
turns the seed's random generator into a fixed list of operations. An
operation's ``call`` is the timed work through dbardisk's public functions;
its ``check`` compares the output with values computed apart from the
program (``checks.py``) and returns failure messages. Inputs are generated
once per run, before timing, so every pass repeats the same operations.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    setup: Callable[[], dict]
    operations: Callable[[dict, np.random.Generator, str], list]
    largest: str      # name of the top-rung operation


# ---------------------------------------------------------------------------
# input specs, in the JSON form that harness.run and the CLI accept


def ball_spec(n: int) -> dict:
    """|z|^2 - 1 on C^n."""
    terms = []
    for i in range(2 * n):
        ex = [0] * (2 * n)
        ex[i] = 2
        terms.append({"exponents": ex, "coef": 1.0})
    terms.append({"exponents": [0] * (2 * n), "coef": -1.0})
    return {"n": n, "name": f"ball{2 * n}", "terms": terms}


def map_spec(coords, name: str) -> dict:
    """coords[j] = [(p, q, c)] for w_j = sum c z^p zbar^q."""
    return {"n": len(coords), "name": name, "coords": [
        [{"zp": p, "zq": q, "re": float(c.real), "im": float(c.imag)} for p, q, c in t]
        for t in coords]}


def conj_disk(n: int, slot: int, phase: float):
    """w_slot = e^{i phase} zbar, other coordinates 0: a critical
    non-holomorphic disk in the unit ball of C^n (lambda = 2)."""
    coords = [[] for _ in range(n)]
    coords[slot] = [(0, 1, complex(math.cos(phase), math.sin(phase)))]
    return coords


def rotated_f4(alpha: float):
    """f4 = (Re z, -Im z) precomposed with z -> e^{i alpha} z."""
    u = complex(math.cos(alpha), math.sin(alpha))
    return [[(1, 0, 0.5 * u), (0, 1, 0.5 * u.conjugate())],
            [(1, 0, 0.5j * u), (0, 1, -0.5j * u.conjugate())]]


F1 = [[(1, 0, 0.5), (0, 1, 0.5)], [(1, 0, -0.5j), (0, 1, 0.5j)]]

# |z1|^2 - |z2|^2 + 3 |z3|^2 - 1: at the image of w1 = e^{i a} zbar the Levi
# eigenvalues are (-1, 3), so the two k = 2 certificate values are
# -4 pi times them
SYNTHETIC_C3 = {"n": 3, "name": "synthetic_c3", "terms": [
    {"exponents": [2, 0, 0, 0, 0, 0], "coef": 1.0},
    {"exponents": [0, 0, 0, 2, 0, 0], "coef": 1.0},
    {"exponents": [0, 2, 0, 0, 0, 0], "coef": -1.0},
    {"exponents": [0, 0, 0, 0, 2, 0], "coef": -1.0},
    {"exponents": [0, 0, 2, 0, 0, 0], "coef": 3.0},
    {"exponents": [0, 0, 0, 0, 0, 2], "coef": 3.0},
    {"exponents": [0, 0, 0, 0, 0, 0], "coef": -1.0},
]}


def random_polynomial_map(rng, n: int):
    """Three terms c z^p zbar^q per coordinate, p, q <= 3."""
    return [[(int(rng.integers(4)), int(rng.integers(4)), complex(*rng.normal(size=2)) / 2)
             for _ in range(3)] for _ in range(n)]


def _angle(rng) -> float:
    return float(rng.uniform(0.0, TWO_PI))


def _import_only() -> dict:
    """Set-up of a workload that reuses nothing: the import alone."""
    import dbardisk  # noqa: F401
    return {}


# ---------------------------------------------------------------------------
# gram_ladder: index action + emit (report.json, gram.csv)

# (map, n, grid, basis size); the last rung is the largest
GRAM_LADDER = [
    ("f4", 2, (32, 64), 52),
    ("conj", 2, (64, 128), 80),
    ("f4", 2, (64, 128), 104),
    ("conj", 3, (64, 128), 150),
    ("conj", 2, (128, 256), 104),
]


def _read_gram(where: str):
    with open(os.path.join(where, "report.json"), encoding="utf-8") as fh:
        report = checks.strict_json(fh.read())
    with open(os.path.join(where, "gram.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    matrix = np.array([[float(v) for v in row] for row in rows[1:]])
    return report["results"]["gram"], rows[0], matrix


def _gram_ops(ctx, rng, out_dir) -> list:
    from dbardisk import harness

    ops = []
    for i, (kind, n, grid, size) in enumerate(GRAM_LADDER):
        if kind == "f4":
            spec, domain = map_spec(rotated_f4(_angle(rng)), "f4-rot"), "weak_rank_one"
        else:
            spec = map_spec(conj_disk(n, int(rng.integers(n)), _angle(rng)), "conj")
            domain = ball_spec(n)
        config = harness.ScenarioConfig.from_dict(
            {"action": "index", "map": spec, "domain": domain, "grid": list(grid),
             "basis_size": size})
        where = os.path.join(out_dir, f"gram{i}")

        def call(config=config, where=where):
            harness.emit(harness.run(config), where)
            return where

        def check(where, n=n, stable=(kind == "f4")):
            gram, labels, matrix = _read_gram(where)
            return checks.check_gram(matrix, labels, gram, n, stable)

        ops.append(Op(f"index-{kind}-n{n}-{grid[0]}x{grid[1]}-m{size}", call, check))
    return ops


# ---------------------------------------------------------------------------
# fredholm_ladder: dbar_kernel_dimension, flat and with a small connection

# (n, degree); each flat and connected; the last connected rung is the largest
FREDHOLM_LADDER = [(1, 6), (1, 16), (2, 6), (2, 11), (3, 6), (3, 13)]
CONNECTION_RADIUS = 1e-3


def seeded_connection(rng, n: int) -> dict:
    """One (0,1)-form entry a_ji per output component i, with constant and
    linear terms of modulus at most CONNECTION_RADIUS: small enough that the
    truncated kernel keeps dimension 2n for every draw."""
    dim = 2 * n
    out = {}
    for i in range(dim):
        j = int(rng.integers(dim))
        poly = {}
        for pq in ((0, 0), (1, 0), (0, 1)):
            r, a = CONNECTION_RADIUS * math.sqrt(rng.uniform()), _angle(rng)
            poly[pq] = complex(r * math.cos(a), r * math.sin(a))
        out[(j, i)] = poly
    return out


def _fredholm_ops(ctx, rng, out_dir) -> list:
    from dbardisk import holsec

    ops = []
    for n, degree in FREDHOLM_LADDER:
        for connection in (None, seeded_connection(rng, n)):
            def call(n=n, degree=degree, connection=connection):
                return holsec.dbar_kernel_dimension(
                    n, degree=degree, connection=connection, return_details=True)

            def check(out, n=n, degree=degree):
                return checks.check_kernel(out[0], out[1], n, degree)

            tag = "flat" if connection is None else "connected"
            ops.append(Op(f"kernel-n{n}-d{degree}-{tag}", call, check))
    return ops


# ---------------------------------------------------------------------------
# certify_sweep: critical, certify, levi, cutoff and energy actions


def _certify_ops(ctx, rng, out_dir) -> list:
    from dbardisk import harness

    ops = []

    def add(name, cfg, check):
        config = harness.ScenarioConfig.from_dict(cfg)

        def call():
            # serialized as the CLI would
            return harness.to_json_text(harness.run(config).to_json_dict())

        ops.append(Op(name, call, lambda text: check(checks.strict_json(text)["results"])))

    for n, cert_grid in ((2, [32, 256]), (3, [32, 512]), (4, [32, 512])):
        coords = conj_disk(n, int(rng.integers(n)), _angle(rng))
        spec, ball = map_spec(coords, f"conj{n}"), ball_spec(n)
        base = {"map": spec, "domain": ball, "grid": [32, 256]}
        add(f"critical-ball-n{n}", {**base, "action": "critical"},
            lambda r: checks.check_critical(r["criticality"], lam=2.0))
        add(f"levi-ball-n{n}", {**base, "action": "levi"},
            lambda r: checks.check_levi(r["levi"], 1.0, "strict"))
        want = checks.polynomial_energies(coords)
        add(f"energy-conj-n{n}", {**base, "action": "energy"},
            lambda r, want=want: checks.check_energy(r["energy"], want))
        add(f"certify-ball-n{n}-32x{cert_grid[1]}",
            {**base, "action": "certify", "grid": cert_grid},
            lambda r, n=n: checks.check_ball_certificate(r["certificate"], n))

    add("certify-synthetic-c3-k2",
        {"action": "certify", "k": 2, "grid": [32, 512], "domain": SYNTHETIC_C3,
         "map": map_spec(conj_disk(3, 0, _angle(rng)), "conj3")},
        lambda r: checks.check_kpc_certificate(
            r["certificate"], 2, 1, [-4.0 * math.pi * 3.0, 4.0 * math.pi]))

    f4 = {"map": map_spec(rotated_f4(_angle(rng)), "f4-rot"), "domain": "weak_rank_one"}
    add("critical-f4-weak", {**f4, "action": "critical", "grid": [32, 512]},
        lambda r: checks.check_critical(r["criticality"]))
    add("levi-f4-weak", {**f4, "action": "levi", "grid": [32, 512]},
        lambda r: checks.check_levi(r["levi"], 0.0, "weak"))
    eps = sorted((float(10.0 ** rng.uniform(-6.0, -2.0)) for _ in range(3)), reverse=True)
    add("cutoff-f4-weak", {**f4, "action": "cutoff", "grid": [32, 256], "eps_list": eps},
        lambda r: checks.check_cutoff(r["cutoff"], r["cutoff_transfer"], eps))

    add("energy-f1", {"action": "energy", "map": map_spec(F1, "f1"), "grid": [32, 256]},
        lambda r: checks.check_energy(r["energy"], {"e_dbar": math.pi / 2}))
    coords = random_polynomial_map(rng, 3)
    want = checks.polynomial_energies(coords)
    add("energy-random-n3", {"action": "energy", "map": map_spec(coords, "random"),
                             "grid": [32, 256]},
        lambda r, want=want: checks.check_energy(r["energy"], want))
    return ops


# ---------------------------------------------------------------------------
# sampled_oracles: library calls on maps given only as samples

SAMPLED_GRID = (64, 128)
SAMPLED_TOP_GRID = (32, 512)   # n_r >= 96 trips the 1e-8 dbar check in certify_index
FD_STEP = 0.0025          # Richardson error ~h^4: 1e-6 relative needs h <= 0.005
FD_BASIS = 24
REPEATS = 4


def _sampled_setup() -> dict:
    from dbardisk import diskmap, geometry, secondvar

    grid = diskmap.DiskGrid(*SAMPLED_GRID)
    top = diskmap.DiskGrid(*SAMPLED_TOP_GRID)
    ball = geometry.make_domain("ball4")
    f3 = diskmap.make_map("f3", grid)
    return {
        "grid": grid, "ball": ball, "f3": f3, "f3_top": diskmap.make_map("f3", top),
        "basis": secondvar.admissible_basis(f3, ball, FD_BASIS),
    }


def random_polar_terms(rng, rim_zero=False):
    """Terms (p, k, c) of a smooth polar polynomial Re sum c r^p e^{ik theta},
    |k| <= 2, p = |k| + 2m with m <= 2; rim_zero multiplies it by (1 - r^2)."""
    terms = []
    for k in range(-2, 3):
        for m in range(3):
            p = abs(k) + 2 * m
            c = 0.5 * complex(*rng.normal(size=2)) / (1 + p + abs(k))
            terms.append((p, k, c))
            if rim_zero:
                terms.append((p + 2, k, -c))
    return terms


def _sampled_ops(ctx, rng, out_dir) -> list:
    from dbardisk import harness, holsec, secondvar

    ball, f3, grid = ctx["ball"], ctx["f3"], ctx["grid"]
    ops = []

    def add_certificate(name, base):
        steps = int(rng.integers(1, base.grid.n_theta))

        def call():
            return holsec.certify_index(base.rotated(steps), ball).values[0]

        ops.append(Op(name, call, checks.check_rotated_certificate))

    add_certificate("certify-f3-rotated-64x128", f3)
    for i in range(REPEATS):
        polys = [secondvar.PolarPoly(random_polar_terms(rng, rim_zero=(j == 0)))
                 for j in range(4)]
        ops.append(Op(f"f4-family-{i}",
                      lambda polys=polys: harness.f4_family_experiment(*polys, grid),
                      checks.check_f4_family))
    for i in range(REPEATS):
        steps = int(rng.integers(1, grid.n_theta))
        a = rng.normal(size=FD_BASIS)
        a /= np.linalg.norm(a)
        values = sum(ai * b.values for ai, b in zip(a, ctx["basis"]))
        bdry = sum(ai * b.boundary for ai, b in zip(a, ctx["basis"]))
        # the field follows the map around the rotation
        V = secondvar.VariationField(grid, 2, np.roll(values, -steps, axis=1),
                                     np.roll(bdry, -steps, axis=0), label=f"combo{i}")

        def call(V=V, steps=steps):
            f = f3.rotated(steps)
            family = secondvar.hypersurface_family(f, V, ball)
            fd = secondvar.fd_second_variation(family, df=ball, h=FD_STEP)
            return fd.value, secondvar.index_form_real(f, ball, V)

        ops.append(Op(f"fd-vs-index-{i}", call, lambda out: checks.check_fd_vs_index(*out)))
    add_certificate("certify-f3-rotated-32x512", ctx["f3_top"])
    return ops


WORKLOADS = {w.name: w for w in (
    Workload("gram_ladder", _import_only, _gram_ops,
             "index-conj-n2-128x256-m104"),
    Workload("fredholm_ladder", _import_only, _fredholm_ops,
             "kernel-n3-d13-connected"),
    Workload("certify_sweep", _import_only, _certify_ops,
             "certify-ball-n4-32x512"),
    Workload("sampled_oracles", _sampled_setup, _sampled_ops,
             "certify-f3-rotated-32x512"),
)}
