"""Scenario runner: catalog experiments end-to-end, reports, serialization.

A scenario is a declarative config (domain, map, grid, action, parameters,
tolerances) executed by ``run`` into a Report. Reports serialize to JSON
with sorted keys and 17-significant-digit floats so that deterministic mode
(fixed seed, wall clock zeroed) produces byte-identical files.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from . import __version__
from .criticality import is_critical
from .diskmap import (
    DBAR_RAW_FACTOR,
    DiskGrid,
    energies,
    make_map,
)
from .errors import DbarDiskError, NonFiniteValueError, require_number
from .geometry import classify_pseudoconvexity, make_domain
from .holsec import certify_index
from .secondvar import (
    LogCutoff,
    PolarPoly,
    admissible_basis,
    assemble_gram,
    cutoff_stability_check,
    f4_closed_forms,
    f4_family,
    f4_variation_field,
    fd_second_variation,
    index_form_real,
    random_polar_poly,
)

__all__ = ["ScenarioConfig", "Report", "run", "f4_family_experiment", "emit",
           "to_json_text"]

SCHEMA_VERSION = 1

ACTIONS = ("energy", "critical", "index", "certify", "levi", "f4_family", "cutoff")

# the tolerance keywords each action passes on to the library, whose
# defaults apply to those a config leaves out; other actions take none
TOLERANCES = {
    "critical": ("tol_h", "tol_b"),
    "index": ("tol_neg_rel",),
    "certify": ("tol_h", "tol_b", "tol_holo", "tol_pc"),
    "levi": ("tol_pc",),
}


@dataclass
class ScenarioConfig:
    """Declarative description of one scenario run."""

    action: str
    domain: object = None            # catalog name or polynomial spec dict
    map: object = None               # catalog name or polynomial spec dict
    grid: tuple = (32, 64)
    basis_size: int = 50
    k: int = 1
    eps_list: tuple = (1e-2, 1e-3, 1e-4)
    h: float = 0.02
    family: Optional[dict] = None    # {"sigma": spec, "phi": .., "psi": .., "eta": ..}
    tolerances: dict = dc_field(default_factory=dict)
    seed: int = 0
    deterministic: bool = False

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action {self.action!r}; one of {ACTIONS}")
        if not isinstance(self.grid, (list, tuple)) or len(self.grid) != 2:
            raise ValueError(f"grid must be [n_r, n_theta], got {self.grid!r}")
        if not isinstance(self.eps_list, (list, tuple)):
            raise ValueError(f"eps_list must be a list, got {self.eps_list!r}")
        for value in self.grid:
            require_number("grid entry", value, integer=True)
        for name in ("basis_size", "k", "seed"):
            require_number(name, getattr(self, name), integer=True)
        require_number("h", self.h)
        if not 0.0 < self.h <= 1.0:
            raise ValueError(f"h must lie in (0, 1], got {self.h!r}")
        for eps in self.eps_list:
            require_number("eps_list entry", eps)
        self.grid = tuple(int(v) for v in self.grid)
        self.eps_list = tuple(self.eps_list)
        if not isinstance(self.deterministic, bool):
            raise ValueError(
                f"deterministic must be true or false, got {self.deterministic!r}")
        if not isinstance(self.family, (dict, type(None))):
            raise ValueError(f"family must be an object, got {self.family!r}")
        if not isinstance(self.tolerances, dict):
            raise ValueError(f"tolerances must be an object, got {self.tolerances!r}")
        known = TOLERANCES.get(self.action, ())
        for key, value in self.tolerances.items():
            if key not in known:
                raise ValueError(f"action {self.action} takes no tolerance {key!r}; "
                                 f"it takes {list(known)}")
            require_number(f"tolerance {key}", value)
            if not value > 0:
                raise ValueError(f"tolerance {key} must be > 0, got {value!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def to_json_dict(self):
        return {
            "action": self.action,
            "domain": self.domain,
            "map": self.map,
            "grid": list(self.grid),
            "basis_size": self.basis_size,
            "k": self.k,
            "eps_list": list(self.eps_list),
            "h": self.h,
            "family": self.family,
            "tolerances": dict(self.tolerances),
            "seed": self.seed,
            "deterministic": self.deterministic,
        }


@dataclass
class Report:
    config: ScenarioConfig
    results: dict
    matrices: dict = dc_field(default_factory=dict)   # name -> (labels, 2D array)
    wall_clock_sec: float = 0.0

    def to_json_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.to_json_dict(),
            "results": self.results,
            "wall_clock_sec": 0.0 if self.config.deterministic else self.wall_clock_sec,
        }


# ---------------------------------------------------------------------------
# JSON with stable float formatting


class _NonFinite(Exception):
    """A NaN or an infinity; each container adds its JSON path segment."""


def _json_value(obj) -> str:
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if x - x != 0.0:  # an infinity or a NaN
            raise _NonFinite(x)
        return "%.17g" % x
    if type(obj) is list and set(map(type, obj)) == {float}:
        text = ", ".join(map("%.17g".__mod__, obj))
        if "n" not in text:  # else an inf or a nan, which the loop below locates
            return "[" + text + "]"
    if type(obj) is list and obj and set(map(type, obj)) == {list}:
        width = len(obj[0])  # rows of equal width, all floats (a matrix): one format
        flat = [x for row in obj if len(row) == width for x in row]
        if width and len(flat) == width * len(obj) and set(map(type, flat)) == {float}:
            text = "], [".join([", ".join(["%.17g"] * width)] * len(obj)) % tuple(flat)
            if "n" not in text:  # else the loop below locates the inf or nan
                return "[[" + text + "]]"
    import json as _json

    if obj is None or isinstance(obj, (bool, str)):
        return _json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (list, tuple)):
        parts = []
        try:
            for v in obj:
                parts.append(_json_value(v))
        except _NonFinite as exc:
            exc.args += (f"[{len(parts)}]",)
            raise
        return "[" + ", ".join(parts) + "]"
    if isinstance(obj, np.ndarray):
        return _json_value(obj.tolist())
    if isinstance(obj, dict):
        parts = []
        try:
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0])):
                parts.append(f"{_json.dumps(str(k))}: {_json_value(v)}")
        except _NonFinite as exc:
            exc.args += (f".{k}",)
            raise
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    """Strict, deterministic JSON: sorted keys, floats at 17 significant
    digits. Raises NonFiniteValueError on NaN or an infinity."""
    try:
        return _json_value(obj) + "\n"
    except _NonFinite as exc:
        value, *path = exc.args
        raise NonFiniteValueError(f"report value ${''.join(reversed(path))} is {value}, "
                                  "not a finite number") from None


# ---------------------------------------------------------------------------
# actions


def _family_polys(config: ScenarioConfig):
    if config.family is None:
        rng = np.random.default_rng(config.seed)
        return (
            random_polar_poly(rng, rim_zero=True),
            random_polar_poly(rng),
            random_polar_poly(rng),
            random_polar_poly(rng),
        )
    spec = config.family
    out = []
    for key in ("sigma", "phi", "psi", "eta"):
        entry = spec.get(key)
        out.append(PolarPoly.from_json(entry) if entry else PolarPoly.zero())
    return tuple(out)


def f4_family_experiment(sigma, phi, psi, eta, grid: DiskGrid, h: float = 0.02):
    """Four routes to the second derivative of the raw dbar-energy of the
    f4 family: finite differences, both closed-form integrands, and the
    index form on the extracted first-variation field (times the raw/
    quarter convention factor). Returns values plus pairwise relative gaps.
    """
    weak = make_domain("weak_rank_one")
    f4 = make_map("f4", grid)
    family = f4_family(sigma, phi, psi, eta, grid)
    fd = fd_second_variation(family, df=weak, h=h)
    before, after = f4_closed_forms(sigma, phi, psi, eta, grid)
    V = f4_variation_field(sigma, phi, psi, eta, grid)
    quad = DBAR_RAW_FACTOR * index_form_real(f4, weak, V)
    vals = {
        "fd_raw": fd.raw,
        "closed_form_pre_ibp": before,
        "closed_form_post_ibp": after,
        "index_form_raw": quad,
    }
    keys = list(vals)
    scale = max(1e-30, max(abs(v) for v in vals.values()))
    gaps = {}
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            gaps[f"{a}|{b}"] = abs(vals[a] - vals[b]) / scale
    return {"values": vals, "pairwise_relative_gaps": gaps, "h": h}


def run(config: ScenarioConfig) -> Report:
    """Execute a scenario. Raises Refusal (exit 2 at the CLI) when the
    requested certificate does not mathematically apply."""
    t0 = time.perf_counter()
    grid = DiskGrid(*config.grid)
    results: dict = {}
    matrices: dict = {}
    tol = config.tolerances

    f = make_map(config.map, grid) if config.map is not None else None
    df = make_domain(config.domain) if config.domain is not None else None
    if f is not None and df is not None and f.n != df.n:
        raise ValueError(f"map {f.name!r} lies in C^{f.n} but domain {df.name!r} "
                         f"in C^{df.n}")

    action = config.action
    if action == "energy":
        rep = energies(_require(f, "map"))
        results["energy"] = rep.to_json_dict()
    elif action == "critical":
        ok, rep = is_critical(_require(f, "map"), _require(df, "domain"), **tol)
        results["criticality"] = rep.to_json_dict()
    elif action == "index":
        f = _require(f, "map")
        df = _require(df, "domain")
        basis = admissible_basis(f, df, config.basis_size)
        gram = assemble_gram(
            f, df, basis, **tol,
            description=f"projected-frame+bumps size={config.basis_size}",
        )
        results["gram"] = gram.to_json_dict()
        matrices["gram"] = (gram.labels, gram.matrix)
    elif action == "certify":
        cert = certify_index(
            _require(f, "map"), _require(df, "domain"), k=config.k, **tol
        )
        results["certificate"] = cert.to_json_dict()
    elif action == "levi":
        f = _require(f, "map")
        rep = classify_pseudoconvexity(
            _require(df, "domain"), f.boundary, k=config.k, **tol
        )
        results["levi"] = rep.to_json_dict()
    elif action == "f4_family":
        sigma, phi, psi, eta = _family_polys(config)
        results["f4_family"] = f4_family_experiment(
            sigma, phi, psi, eta, grid, h=config.h
        )
    elif action == "cutoff":
        cut_res = []
        for eps in config.eps_list:
            cut = LogCutoff(eps)
            cut_res.append({
                "eps": eps,
                "dirichlet_integral": cut.dirichlet_integral,
                "derivative_bound_factor": cut.derivative_bound_factor(grid.r),
            })
        results["cutoff"] = cut_res
        if config.map is not None and config.domain is not None:
            basis = admissible_basis(f, df, 2 * f.n + 1)
            V = {W.label: W for W in basis}["frame-k1-cos-e0"]
            results["cutoff_transfer"] = cutoff_stability_check(
                f, df, V, config.eps_list
            )
    wall = time.perf_counter() - t0
    return Report(config=config, results=results, matrices=matrices,
                  wall_clock_sec=wall)


def _require(obj, what):
    if obj is None:
        raise DbarDiskError(f"this action requires a {what} in the config")
    return obj


def emit(report: Report, out_dir) -> list:
    """Write report.json (+ CSV matrices) under out_dir; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    jpath = os.path.join(out_dir, "report.json")
    text = to_json_text(report.to_json_dict())
    try:
        with open(jpath, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DbarDiskError(f"cannot write report to {jpath}: {exc}") from exc
    paths.append(jpath)
    for name, (labels, matrix) in report.matrices.items():
        cpath = os.path.join(out_dir, f"{name}.csv")
        # csv.writer's bytes for format(v, ".17g") cells, which need no quotes;
        # each distinct bit pattern (-0.0 is not 0.0) is formatted once
        matrix = np.ascontiguousarray(matrix, dtype=float)
        bits, where = np.unique(matrix.view(np.int64).ravel(), return_inverse=True)
        text = np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)
        rows = text[where.reshape(matrix.shape)].tolist()
        try:
            with open(cpath, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(labels)
                fh.writelines(",".join(row) + "\r\n" for row in rows)
        except OSError as exc:
            raise DbarDiskError(f"cannot write matrix to {cpath}: {exc}") from exc
        paths.append(cpath)
    return paths
