import json
import os

import numpy as np
import pytest

from dbardisk.cli import main
from dbardisk.errors import NonFiniteValueError, Refusal
from dbardisk.harness import ScenarioConfig, emit, run, to_json_text
from conftest import SYNTHETIC_C3_DOMAIN, SYNTHETIC_C3_MAP


def test_run_energy_f1():
    rep = run(ScenarioConfig(action="energy", map="f1"))
    e = rep.results["energy"]
    assert abs(e["e_del"] - np.pi / 2) < 1e-12
    assert abs(e["e_dbar"] - np.pi / 2) < 1e-12


def test_run_critical_f1_cylinder():
    rep = run(ScenarioConfig(action="critical", domain="cylinder_x", map="f1"))
    assert rep.results["criticality"]["critical"] is False


def test_run_certify_f3_ball():
    rep = run(ScenarioConfig(action="certify", domain="ball4", map="f3"))
    cert = rep.results["certificate"]
    assert cert["certified_bound"] == 1
    assert len(cert["values"]) == 1  # n - 1 sections


def test_run_certify_refusal():
    with pytest.raises(Refusal):
        run(ScenarioConfig(action="certify", domain="weak_rank_one", map="f4"))


def test_run_index_f4_weak_stable():
    rep = run(ScenarioConfig(action="index", domain="weak_rank_one", map="f4",
                             basis_size=52))
    gram = rep.results["gram"]
    assert gram["negative_count"] == 0
    labels, matrix = rep.matrices["gram"]
    assert len(labels) == 52
    assert np.asarray(matrix).shape == (52, 52)


def test_run_levi_synthetic_c3():
    cfg = ScenarioConfig(action="levi", domain=SYNTHETIC_C3_DOMAIN,
                         map=SYNTHETIC_C3_MAP, k=2)
    rep = run(cfg)
    assert rep.results["levi"]["classification"] == "strict"
    assert abs(rep.results["levi"]["margin"] - 2.0) < 1e-9


def test_run_f4_family_action():
    cfg = ScenarioConfig(
        action="f4_family",
        family={
            "sigma": {"terms": [{"rpow": 0, "freq": 0, "re": 1.0},
                                {"rpow": 2, "freq": 0, "re": -1.0}]},
            "phi": None, "psi": None, "eta": None,
        },
    )
    rep = run(cfg)
    vals = rep.results["f4_family"]["values"]
    assert abs(vals["closed_form_post_ibp"] - 4 * np.pi / 3) < 1e-10
    gaps = rep.results["f4_family"]["pairwise_relative_gaps"]
    assert max(gaps.values()) < 1e-4


def test_run_f4_family_random_seeds():
    for seed in range(5):
        rep = run(ScenarioConfig(action="f4_family", seed=seed))
        vals = rep.results["f4_family"]["values"]
        assert vals["closed_form_post_ibp"] >= -1e-10
        gaps = rep.results["f4_family"]["pairwise_relative_gaps"]
        assert max(gaps.values()) < 1e-4


def test_run_cutoff_action():
    rep = run(ScenarioConfig(action="cutoff", domain="weak_rank_one", map="f4"))
    suite = rep.results["cutoff"]
    assert [rec["eps"] for rec in suite] == [1e-2, 1e-3, 1e-4]
    for rec in suite:
        assert rec["dirichlet_integral"] <= 2.2 * np.pi / abs(np.log(rec["eps"]))
    transfer = rep.results["cutoff_transfer"]
    for rec in transfer:
        assert rec["value"] >= rec["lower_bound"]


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(action="explode")
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"action": "energy", "bogus_key": 1})
    with pytest.raises(KeyError):
        run(ScenarioConfig(action="energy", map="f9"))


# ---------------------------------------------------------------------------
# serialization and determinism


def test_json_float_formatting():
    text = to_json_text({"a": np.pi, "b": [1.0, 2], "c": {"d": True, "e": None}})
    parsed = json.loads(text)
    assert parsed["a"] == np.pi  # 17 significant digits round-trips doubles
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -np.inf, np.float64("nan")])
def test_json_refuses_non_finite(bad, tmp_path):
    with pytest.raises(NonFiniteValueError, match=r"\$\.a\.b\[1\]"):
        to_json_text({"a": {"b": [1.0, bad]}})
    rep = run(ScenarioConfig(action="energy", map="f1"))
    rep.results["energy"]["e_dbar"] = bad
    with pytest.raises(NonFiniteValueError):
        emit(rep, tmp_path)
    assert not (tmp_path / "report.json").exists()


def test_deterministic_reports_are_byte_identical(tmp_path):
    cfg = dict(action="index", domain="ball4", map="f3", basis_size=12,
               seed=3, deterministic=True)
    texts = []
    for sub in ("one", "two"):
        rep = run(ScenarioConfig.from_dict(dict(cfg)))
        out = tmp_path / sub
        emit(rep, out)
        texts.append((out / "report.json").read_bytes())
    assert texts[0] == texts[1]


def test_emit_csv_layout(tmp_path):
    rep = run(ScenarioConfig(action="index", domain="ball4", map="f3",
                             basis_size=8))
    paths = emit(rep, tmp_path / "out")
    assert any(p.endswith("gram.csv") for p in paths)
    csv_path = [p for p in paths if p.endswith("gram.csv")][0]
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 9  # header + 8 rows
    assert len(lines[0].split(",")) == 8


def test_report_schema_golden():
    rep = run(ScenarioConfig(action="energy", map="f1", deterministic=True))
    doc = json.loads(to_json_text(rep.to_json_dict()))
    assert sorted(doc) == ["config", "results", "schema_version", "version",
                           "wall_clock_sec"]
    assert doc["schema_version"] == 1
    assert doc["wall_clock_sec"] == 0.0
    energy = doc["results"]["energy"]
    assert sorted(energy) == ["e_dbar", "e_del", "e_full", "kahler"]
    assert abs(energy["e_full"] - np.pi) < 1e-10


# ---------------------------------------------------------------------------
# CLI


def test_cli_energy_stdout(capsys):
    assert main(["energy", "--map", "f1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["results"]["energy"]["e_dbar"] - np.pi / 2) < 1e-10


def test_cli_refusal_exit_code(capsys):
    assert main(["certify", "--map", "f4", "--domain", "weak_rank_one"]) == 2
    assert "refusal" in capsys.readouterr().err


def test_cli_error_exit_code(capsys):
    assert main(["energy", "--map", "f9"]) == 1


def test_cli_config_file_and_out(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "f3", "domain": "ball4"}))
    out_dir = tmp_path / "run"
    code = main(["certify", "--config", str(cfg_path), "--out", str(out_dir),
                 "--deterministic"])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["results"]["certificate"]["certified_bound"] == 1


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("out", [False, True])
def test_cli_overflowing_map_is_an_error(tmp_path, capsys, out):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": {"n": 2, "coords": [
        [{"zp": 1, "zq": 0, "re": 1e200}], [{"zp": 0, "zq": 1, "re": 1.0}]]}}))
    argv = ["energy", "--config", str(cfg_path)]
    if out:
        argv += ["--out", str(tmp_path / "run")]
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == "" or _strict_json(captured.out)
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_index_refuses_off_surface_map(tmp_path, capsys):
    # the boundary image of f2 is off the sphere: an error, not a spectrum
    out_dir = tmp_path / "run"
    code = main(["index", "--map", "f2", "--domain", "ball4", "--grid", "32,64",
                 "--basis-size", "20", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert not (out_dir / "report.json").exists()


def test_cli_grid_flag(capsys):
    assert main(["energy", "--map", "f2", "--grid", "16,32"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["grid"] == [16, 32]


def test_catalog_scenarios_under_a_minute():
    import time

    scenarios = [
        ScenarioConfig(action="energy", map="f2"),
        ScenarioConfig(action="critical", domain="ball4", map="f3"),
        ScenarioConfig(action="certify", domain="ball4", map="f3"),
        ScenarioConfig(action="levi", domain="weak_rank_one", map="f4"),
        ScenarioConfig(action="index", domain="weak_rank_one", map="f4"),
        ScenarioConfig(action="f4_family", seed=1),
        ScenarioConfig(action="cutoff", domain="weak_rank_one", map="f4"),
    ]
    for cfg in scenarios:
        t0 = time.perf_counter()
        run(cfg)
        assert time.perf_counter() - t0 < 60.0, cfg.action
