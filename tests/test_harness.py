import contextlib
import copy
import csv
import io
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbardisk import geometry
from dbardisk.cli import main
from dbardisk.errors import NonFiniteValueError, Refusal
from dbardisk.harness import ACTIONS, ScenarioConfig, emit, run, to_json_text
from conftest import HUGE_EXPONENT_DOMAIN, SYNTHETIC_C3_DOMAIN, SYNTHETIC_C3_MAP


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


@pytest.mark.parametrize("action, passes", [("index", 1), ("critical", 1),
                                             ("cutoff", 1), ("certify", 1)])
def test_boundary_pass_runs_once_per_map_and_domain(action, passes, monkeypatch):
    # certify classifies the domain from the Levi form of the cached state
    original, calls = geometry.boundary_data, []

    def spy(*args):
        calls.append(args)
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dbardisk") and vars(mod).get("boundary_data") is original:
            monkeypatch.setattr(mod, "boundary_data", spy)
    run(ScenarioConfig(action=action, domain="ball4", map="f3"))
    assert len(calls) == passes


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


def test_index_results_do_not_depend_on_the_seed():
    # the basis is deterministic; the seed reaches only the f4 family
    texts = [to_json_text(run(ScenarioConfig(action="index", domain="ball4", map="f3",
                                             basis_size=12, seed=seed)).results)
             for seed in (0, 5)]
    assert texts[0] == texts[1]


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


def test_json_path_of_a_non_finite_value_nested_in_lists_and_dicts():
    doc = {"a": [{"b": 1.0}, {"c": [0.0, 2.0, np.float64("-inf")]}], "z": 1.0}
    with pytest.raises(NonFiniteValueError,
                       match=r"^report value \$\.a\[1\]\.c\[2\] is -inf, not a finite number$"):
        to_json_text(doc)
    with pytest.raises(NonFiniteValueError, match=r"^report value \$ is nan,"):
        to_json_text(float("nan"))


def _per_element_json(obj):
    """Serialization one element at a time: the definition that the fast
    paths for floats and lists of floats must reproduce byte for byte."""
    if obj is None or isinstance(obj, bool) or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, np.ndarray):
        return _per_element_json(obj.tolist())
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {_per_element_json(v)}"
                               for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))) + "}"
    return "[" + ", ".join(map(_per_element_json, obj)) + "]"


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17, 1e-5, 123456789.0, -2.5]


def test_json_fast_paths_match_per_element_serialization():
    rng = np.random.default_rng(3)
    bits = rng.integers(-2**63, 2**63 - 1, size=4000, dtype=np.int64).view(float)
    random_floats = bits[np.isfinite(bits)].tolist()
    docs = [
        EDGE_FLOATS,
        random_floats,
        [1, 2, -3, True, False, 0.5, -0.0],
        [np.float64(-0.0), 0.5, np.float64(1e308), np.int64(7), np.float32(0.1)],
        (1.0, -0.0, 5e-324),
        {"a": EDGE_FLOATS, "b": [[0.25, -0.0], [1e308, 5e-324]], "c": np.array(EDGE_FLOATS),
         "d": [], "e": [[]], "f": {"g": [None, "x", 1.5]}, 3: -0.0},
        -0.0, 5e-324, 1e308, np.float64(-0.0), 7, True, None, "s",
    ]
    for doc in docs:
        assert to_json_text(doc) == _per_element_json(doc) + "\n"


@pytest.mark.parametrize("doc, path, value", [
    ({"x": {"y": [1.0, 2.0, float("nan")]}}, r"\$\.x\.y\[2\]", "nan"),
    ([float("inf"), 1.0], r"\$\[0\]", "inf"),
    ({"a": [[0.5, -0.0], [1.0, -float("inf")]]}, r"\$\.a\[1\]\[1\]", "-inf"),
])
def test_json_path_of_a_non_finite_value_in_a_list_of_floats(doc, path, value):
    with pytest.raises(NonFiniteValueError,
                       match=f"^report value {path} is {value}, not a finite number$"):
        to_json_text(doc)


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


def _per_entry_csv(path, labels, matrix):
    """gram.csv as csv.writer writes it, one format() call per entry."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        for row in np.asarray(matrix):
            writer.writerow([format(float(v), ".17g") for v in row])


def test_emit_csv_bytes_match_per_entry_writer(tmp_path):
    rep = run(ScenarioConfig(action="index", domain="ball4", map="f3",
                             basis_size=8))
    labels, gram = rep.matrices["gram"]
    special = np.array([[-0.0, 0.0, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
                         0.1, 1.0 / 3.0, -2.0, 123456789.0, 1e16, 1e-5]])
    rng = np.random.default_rng(3)
    cases = {"gram": (labels, gram),
             "special": ([f"c{i}" for i in range(12)], special),
             "scaled": (["a, \"b\"", "c"],
                        rng.standard_normal((5, 2)) * 10.0 ** rng.integers(-20, 20, (5, 2))),
             "integers": (["x"], np.arange(3).reshape(3, 1))}
    rep.matrices = cases
    emit(rep, tmp_path / "out")
    for name, (names, matrix) in cases.items():
        _per_entry_csv(tmp_path / f"{name}.csv", names, matrix)
        assert ((tmp_path / "out" / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}.csv").read_bytes()), name


def test_emit_csv_of_distinct_values_matches_per_entry_writer(tmp_path):
    rep = run(ScenarioConfig(action="energy", map="f1"))
    rng = np.random.default_rng(5)
    a = rng.choice([0.0, -0.0, 1.5, -2.25, 1.0 / 3.0, 7e-300], size=(9, 9))
    sym = a + a.T
    sym[0, 1], sym[1, 0], sym[2, 2] = 0.0, -0.0, -0.0
    cases = {"symmetric": sym,
             "fortran": np.asfortranarray(rng.standard_normal((6, 4))),
             "fortran_symmetric": np.asfortranarray(sym),
             "one_row": rng.standard_normal((1, 5)),
             "one_column": np.array([[-0.0], [0.0], [-0.0], [1e-320]]),
             "transposed": rng.standard_normal((3, 7)).T}
    rep.matrices = {name: ([f"c{j}" for j in range(m.shape[1])], m)
                    for name, m in cases.items()}
    emit(rep, tmp_path / "out")
    for name, (labels, matrix) in rep.matrices.items():
        _per_entry_csv(tmp_path / f"{name}.csv", labels, matrix)
        assert ((tmp_path / "out" / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}.csv").read_bytes()), name
    assert b"-0," in (tmp_path / "out" / "symmetric.csv").read_bytes()


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
    capsys.readouterr()
    assert main(["energy", "--map", "nope"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown map 'nope'")


@pytest.mark.parametrize("argv", [["index", "--bogus"], ["certify", "--grid", "4x8"],
                                  ["nope"], [], ["energy", "--seed", "x"]])
def test_cli_malformed_command_line_is_an_error(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage: dbardisk" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--help"], ["index", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    assert "usage: dbardisk" in capsys.readouterr().out


def test_cli_config_file_and_out(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "f3", "domain": "ball4"}))
    out_dir = tmp_path / "run"
    code = main(["certify", "--config", str(cfg_path), "--out", str(out_dir),
                 "--deterministic"])
    assert code == 0
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["results"]["certificate"]["certified_bound"] == 1


def test_cli_certify_forwards_criticality_tolerances(tmp_path, capsys):
    # the boundary residual of f3 is about 5e-16: above this tol_b, so the
    # map is not critical and there is no certificate to give
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tolerances": {"tol_b": 1e-17}}))
    argv = ["--config", str(cfg_path), "--map", "f3", "--domain", "ball4"]
    assert main(["critical"] + argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["criticality"]["critical"] is False
    assert main(["certify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("refusal:")


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("out", [False, True])
def test_cli_overflowing_map_is_an_error(tmp_path, capsys, out):
    # one error line on stderr, and no NumPy warning before it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": {"n": 2, "coords": [
        [{"zp": 1, "zq": 0, "re": 1e200}], [{"zp": 0, "zq": 1, "re": 1.0}]]}}))
    argv = ["energy", "--config", str(cfg_path)]
    if out:
        argv += ["--out", str(tmp_path / "run")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert captured.out == "" or _strict_json(captured.out)
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_overflowing_rim_trace_is_one_error_line(tmp_path, capsys):
    # 1.5e308 - 1.5e308 |z|^2 + 1.5e308 zbar overflows on the rim already
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"grid": [8, 16], "map": {"n": 2, "coords": [
        [{"zp": 0, "zq": 0, "re": 1.5e308}, {"zp": 1, "zq": 1, "re": -1.5e308},
         {"zp": 0, "zq": 1, "re": 1.5e308}], []]}}))
    code = main(["energy", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


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


def test_cli_index_past_512_radial_nodes(tmp_path, capsys):
    # the barycentric weights of 768 radial nodes stay in range
    out_dir = tmp_path / "run"
    code = main(["index", "--map", "f3", "--domain", "ball4", "--grid", "768,16",
                 "--basis-size", "8", "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    gram = np.loadtxt(out_dir / "gram.csv", delimiter=",", skiprows=1)
    assert gram.shape == (8, 8) and np.all(np.isfinite(gram))


F3_TERM = {"zp": 0, "zq": 1, "re": 1.0}
MALFORMED_CONFIGS = {
    "tolerance-string": {"action": "certify", "map": "f3", "domain": "ball4",
                         "tolerances": {"tol_pc": "x"}},
    "tolerance-bool": {"action": "certify", "map": "f3", "domain": "ball4",
                       "tolerances": {"tol_holo": True}},
    "tolerance-nan": {"action": "certify", "map": "f3", "domain": "ball4",
                      "tolerances": {"tol_h": float("nan")}},
    "k-string": {"action": "levi", "map": "f3", "domain": "ball4", "k": "2"},
    "k-bool": {"action": "levi", "map": "f3", "domain": "ball4", "k": True},
    "basis-size-float": {"action": "index", "map": "f3", "domain": "ball4",
                         "basis_size": 20.5},
    "seed-string": {"action": "f4_family", "seed": "7"},
    "h-string": {"action": "f4_family", "h": "x"},
    "h-zero": {"action": "f4_family", "h": 0},
    "h-huge": {"action": "f4_family", "h": 1e300},
    "tolerance-negative": {"action": "certify", "map": "f3", "domain": "ball4",
                           "tolerances": {"tol_h": -1}},
    "tolerance-unknown-key": {"action": "certify", "map": "f3", "domain": "ball4",
                              "tolerances": {"tol_hh": 1}},
    "tolerance-of-other-action": {"action": "index", "map": "f3", "domain": "ball4",
                                  "tolerances": {"tol_pc": 1e-9}},
    "grid-number": {"action": "energy", "map": "f1", "grid": 5},
    "grid-null-entry": {"action": "energy", "map": "f1", "grid": [32, None]},
    "grid-huge": {"action": "energy", "map": "f1", "grid": [100000, 64]},
    "grid-too-many-nodes": {"action": "energy", "map": "f1", "grid": [1024, 2**21]},
    "eps-number": {"action": "cutoff", "eps_list": 0.1},
    "eps-string": {"action": "cutoff", "map": "f4", "domain": "weak_rank_one",
                   "eps_list": ["x"]},
    "map-re-nan-string": {"action": "energy", "map": {"n": 2, "coords": [
        [{"zp": 0, "zq": 1, "re": "nan"}], []]}},
    "map-re-null": {"action": "energy", "map": {"n": 2, "coords": [
        [{"zp": 0, "zq": 1, "re": None}], []]}},
    "domain-coef-null": {"action": "levi", "map": {"n": 2, "coords": [[F3_TERM], []]},
                         "domain": {"n": 2, "terms": [{"exponents": [2, 0, 0, 0],
                                                       "coef": None}]}},
    "deterministic-string": {"action": "energy", "map": "f1", "deterministic": "no"},
    "map-and-domain-dimensions": {"action": "certify", "domain": "ball4",
                                  "map": {"n": 1, "coords": [[F3_TERM]]}},
    "basis-size-past-52n": {"action": "index", "map": "f3", "domain": "ball4",
                            "grid": [16, 32], "basis_size": 150},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_cli_malformed_values_are_errors(name, tmp_path, capsys):
    cfg = dict(MALFORMED_CONFIGS[name])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({k: v for k, v in cfg.items() if k != "action"}))
    code = main([cfg["action"].replace("_", "-"), "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err


@pytest.mark.parametrize("top", [[1, 2], [["map", "f1"]], "f1", 3, None])
def test_cli_config_must_be_an_object(top, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(top))
    code = main(["energy", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert "JSON object" in lines[0]


def test_cli_huge_exponent_domain_exits_cleanly(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"map": "f3", "domain": HUGE_EXPONENT_DOMAIN,
                                    "grid": [8, 256]}))
    code = main(["critical", "--config", str(cfg_path)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err


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


# ---------------------------------------------------------------------------
# CLI under mutated configs

SMALL_GRID = [16, 32]
KNOWN_GOOD_CONFIGS = [
    {"action": "energy", "grid": SMALL_GRID, "map": {"n": 2, "coords": [
        [{"zp": 1, "zq": 0, "re": 1.0}], [{"zp": 0, "zq": 1, "re": 0.5, "im": -0.5}]]}},
    {"action": "critical", "map": "f3", "domain": "ball4", "grid": SMALL_GRID,
     "tolerances": {"tol_h": 1e-7, "tol_b": 1e-7}},
    {"action": "index", "map": "f4", "domain": "weak_rank_one", "grid": SMALL_GRID,
     "basis_size": 8, "seed": 2, "tolerances": {"tol_neg_rel": 1e-9}},
    {"action": "certify", "map": "f3", "domain": "ball4", "grid": SMALL_GRID, "k": 1,
     "tolerances": {"tol_h": 1e-7, "tol_b": 1e-7, "tol_holo": 1e-8, "tol_pc": 1e-9}},
    {"action": "levi", "map": SYNTHETIC_C3_MAP, "domain": SYNTHETIC_C3_DOMAIN,
     "grid": SMALL_GRID, "k": 2, "deterministic": True},
    {"action": "f4_family", "grid": SMALL_GRID, "h": 0.05, "seed": 3, "family": {
        "sigma": {"terms": [{"rpow": 0, "freq": 0, "re": 1.0},
                            {"rpow": 2, "freq": 0, "re": -1.0}]},
        "phi": {"terms": [{"rpow": 1, "freq": 1, "re": 0.2, "im": 0.1}]},
        "psi": None, "eta": None}},
    {"action": "cutoff", "map": "f4", "domain": "weak_rank_one", "grid": SMALL_GRID,
     "eps_list": [1e-2, 1e-3]},
]
# wrong types, non-finite, huge, negative and string values; no huge
# integer, which would be a legitimate (and large) grid or basis request
BAD_VALUES = [None, True, "x", "", [], {}, [1, 2, 3], float("nan"), float("inf"),
              -float("inf"), 1e300, -1e300, -1, -0.5, 0]


def _locations(node, path=()):
    """Every key path inside a nested config, outermost first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _locations(child, path + (key,))


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(KNOWN_GOOD_CONFIGS)))
    action = cfg.pop("action")
    kind = draw(st.sampled_from(["drop", "replace", "swap"]))
    if kind == "swap":
        return draw(st.sampled_from(ACTIONS)), cfg
    path = draw(st.sampled_from(list(_locations(cfg))))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(BAD_VALUES))
    return action, cfg


@settings(max_examples=60, deadline=None)
@given(mutated_configs())
def test_cli_exit_codes_under_mutated_configs(tmp_path_factory, case):
    action, cfg = case
    cfg_path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        code = main([action.replace("_", "-"), "--config", str(cfg_path)])
    assert code in (0, 1, 2), (code, cfg)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        _strict_json(out.getvalue())
