"""Each benchmark check accepts the program's output and rejects a perturbed one.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from dbardisk import harness, holsec  # noqa: E402

PI = math.pi


def run_report(cfg):
    text = harness.to_json_text(harness.run(harness.ScenarioConfig.from_dict(cfg)).to_json_dict())
    return checks.strict_json(text)["results"]


# ---------------------------------------------------------------------------
# Gram spectra


def test_bump_entry_closed_form():
    # k = 0: p' = -2r, 1/2 * 2 pi * int 4 r^3 dr = pi
    assert checks.bump_gram_entry(0) == pytest.approx(PI, rel=1e-15)
    # k = 1: int p'^2 r dr = 1/2, int p^2 / r dr = 1/6, so 1/2 * pi * 2/3
    assert checks.bump_gram_entry(1) == pytest.approx(PI / 3, rel=1e-15)


def emitted_gram(tmp_path, kind, n, size):
    coords = workloads.rotated_f4(0.3) if kind == "f4" else workloads.conj_disk(n, n - 1, 0.3)
    cfg = {"action": "index", "map": workloads.map_spec(coords, kind), "grid": [32, 64],
           "domain": "weak_rank_one" if kind == "f4" else workloads.ball_spec(n),
           "basis_size": size}
    harness.emit(harness.run(harness.ScenarioConfig.from_dict(cfg)), str(tmp_path))
    return workloads._read_gram(str(tmp_path))


def with_spectrum(gram, matrix):
    """A report consistent with a changed matrix."""
    out = copy.deepcopy(gram)
    eigs = np.linalg.eigvalsh(matrix)
    out["eigenvalues"] = eigs.tolist()
    out["negative_count"] = int(np.sum(eigs < -checks.NEG_REL * np.max(np.abs(eigs))))
    return out


@pytest.fixture(scope="module")
def f4_gram(tmp_path_factory):
    return emitted_gram(tmp_path_factory.mktemp("f4"), "f4", 2, 60)


@pytest.fixture(scope="module")
def ball_gram(tmp_path_factory):
    return emitted_gram(tmp_path_factory.mktemp("ball"), "conj", 3, 84)


def test_gram_accepts_program_output(f4_gram, ball_gram):
    assert checks.check_gram(f4_gram[2], f4_gram[1], f4_gram[0], 2, stable=True) == []
    assert checks.check_gram(ball_gram[2], ball_gram[1], ball_gram[0], 3, stable=False) == []


def test_gram_rejects_shifted_eigenvalue(f4_gram):
    gram, labels, matrix = f4_gram
    bad = copy.deepcopy(gram)
    bad["eigenvalues"][3] += 1e-6
    assert checks.check_gram(matrix, labels, bad, 2, stable=True)


def test_gram_rejects_asymmetry(f4_gram):
    gram, labels, matrix = f4_gram
    m = matrix.copy()
    m[0, 1] += 1e-9
    assert checks.check_gram(m, labels, with_spectrum(gram, m), 2, stable=True)


def test_gram_rejects_wrong_bump_entry(f4_gram):
    gram, labels, matrix = f4_gram
    i = checks.frame_count(2) + 5
    m = matrix.copy()
    m[i, i] *= 1.0 + 1e-8
    assert checks.check_gram(m, labels, with_spectrum(gram, m), 2, stable=True)
    m = matrix.copy()
    m[i, i + 1] = m[i + 1, i] = 1e-6
    assert checks.check_gram(m, labels, with_spectrum(gram, m), 2, stable=True)


def test_gram_rejects_negative_direction_of_stable_map(f4_gram):
    gram, labels, matrix = f4_gram
    m = matrix.copy()
    m[0, 0] -= 100.0
    assert checks.check_gram(m, labels, with_spectrum(gram, m), 2, stable=True)


def test_gram_rejects_missing_index(ball_gram):
    gram, labels, matrix = ball_gram
    bad = copy.deepcopy(gram)
    bad["negative_count"] = 1
    assert checks.check_gram(matrix, labels, bad, 3, stable=False)
    m = matrix + 100.0 * np.eye(matrix.shape[0])
    assert checks.check_gram(m, labels, with_spectrum(gram, m), 3, stable=False)


# ---------------------------------------------------------------------------
# Fredholm kernel


def test_kernel_check():
    kdim, svals = holsec.dbar_kernel_dimension(2, degree=6, return_details=True)
    assert checks.check_kernel(kdim, svals, 2, 6) == []
    assert checks.check_kernel(kdim + 1, svals, 2, 6)
    closed = svals.copy()
    closed[closed.size - 5] = 1e-9 * closed[0]
    assert checks.check_kernel(kdim, closed, 2, 6)
    assert checks.check_kernel(kdim, svals[1:], 2, 6)


def test_kernel_check_with_seeded_connection():
    conn = workloads.seeded_connection(np.random.default_rng(3), 1)
    kdim, svals = holsec.dbar_kernel_dimension(1, degree=6, connection=conn,
                                               return_details=True)
    assert checks.check_kernel(kdim, svals, 1, 6) == []


# ---------------------------------------------------------------------------
# certificates, criticality, Levi forms, energies, cutoffs


@pytest.fixture(scope="module")
def ball3():
    base = {"map": workloads.map_spec(workloads.conj_disk(3, 1, 1.0), "c"),
            "domain": workloads.ball_spec(3), "grid": [32, 64]}
    return {a: run_report({**base, "action": a}) for a in ("critical", "certify", "levi")}


def test_ball_certificate(ball3):
    cert = ball3["certify"]["certificate"]
    assert checks.check_ball_certificate(cert, 3) == []
    assert checks.check_ball_certificate({**cert, "values": [-v for v in cert["values"]]}, 3)
    assert checks.check_ball_certificate({**cert, "certified_bound": 1}, 3)


def test_kpc_certificate():
    cfg = {"action": "certify", "k": 2, "grid": [32, 64], "domain": workloads.SYNTHETIC_C3,
           "map": workloads.map_spec(workloads.conj_disk(3, 0, 2.0), "c")}
    cert = run_report(cfg)["certificate"]
    want = [-12.0 * PI, 4.0 * PI]
    assert checks.check_kpc_certificate(cert, 2, 1, want) == []
    assert checks.check_kpc_certificate({**cert, "values": [-12.0 * PI, 13.0 * PI]}, 2, 1,
                                        [-12.0 * PI, 13.0 * PI])
    assert checks.check_kpc_certificate({**cert, "certified_bound": 2}, 2, 1, want)


def test_critical_and_levi(ball3):
    crit, levi = ball3["critical"]["criticality"], ball3["levi"]["levi"]
    assert checks.check_critical(crit, lam=2.0) == []
    assert checks.check_critical({**crit, "lambda": [2.0 + 1e-6] + crit["lambda"][1:]}, lam=2.0)
    assert checks.check_critical({**crit, "critical": False})
    assert checks.check_levi(levi, 1.0, "strict") == []
    assert checks.check_levi({**levi, "margin": 1.0 + 1e-6}, 1.0, "strict")
    assert checks.check_levi(levi, 0.0, "weak")


def test_energy_closed_forms():
    assert checks.polynomial_energies(workloads.F1)["e_dbar"] == pytest.approx(PI / 2)
    coords = workloads.random_polynomial_map(np.random.default_rng(0), 3)
    energy = run_report({"action": "energy", "map": workloads.map_spec(coords, "r"),
                         "grid": [32, 64]})["energy"]
    want = checks.polynomial_energies(coords)
    assert checks.check_energy(energy, want) == []
    assert checks.check_energy({**energy, "e_dbar": energy["e_dbar"] * (1 + 1e-8)}, want)
    assert checks.check_energy({**energy, "e_full": energy["e_full"] + 1e-6}, {})


def test_cutoff():
    eps = [1e-2, 1e-4]
    r = run_report({"action": "cutoff", "map": "f4", "domain": "weak_rank_one",
                    "grid": [32, 64], "eps_list": eps})
    assert checks.check_cutoff(r["cutoff"], r["cutoff_transfer"], eps) == []
    low = [dict(rec, value=rec["lower_bound"] - 1e-9) for rec in r["cutoff_transfer"]]
    assert checks.check_cutoff(r["cutoff"], low, eps)
    wide = [dict(rec, dirichlet_integral=2.3 * PI / abs(math.log(rec["eps"])))
            for rec in r["cutoff"]]
    assert checks.check_cutoff(wide, r["cutoff_transfer"], eps)


# ---------------------------------------------------------------------------
# sampled maps


def test_sampled_oracle_checks():
    assert checks.check_rotated_certificate(-4.0 * PI) == []
    assert checks.check_rotated_certificate(4.0 * PI)
    values = {"fd_raw": 2.0, "closed_form_pre_ibp": 2.0, "closed_form_post_ibp": 2.0,
              "index_form_raw": 2.0}
    assert checks.check_f4_family({"values": values}) == []
    assert checks.check_f4_family({"values": {**values, "fd_raw": 2.0 + 1e-6}})
    assert checks.check_fd_vs_index(1.0 + 1e-7, 1.0) == []
    assert checks.check_fd_vs_index(1.0 + 1e-5, 1.0)


def test_workload_operations_pass_their_checks():
    """Every sampled-map operation passes on one seed (the cheapest workload)."""
    wl = workloads.WORKLOADS["sampled_oracles"]
    ops = wl.operations(wl.setup(), np.random.default_rng(11), "unused")
    assert wl.largest in [op.name for op in ops]
    for op in ops:
        assert op.check(op.call()) == [], op.name


def test_strict_json_refuses_nan():
    with pytest.raises(ValueError):
        checks.strict_json('{"x": NaN}')
    assert checks.strict_json(json.dumps({"x": 1.5})) == {"x": 1.5}
