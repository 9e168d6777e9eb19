"""Command-line interface.

    dbardisk <action> [--domain NAME] [--map NAME] [--config FILE]
             [--out DIR] [--grid NR,NT] [--seed N] [--deterministic] ...

Exit codes: 0 success, 2 refusal (the requested certificate does not apply
to the inputs, e.g. certifying a holomorphic map or a weakly pseudoconvex
domain), 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DbarDiskError, Refusal
from .harness import ScenarioConfig, emit, run, to_json_text


def _parse_grid(text):
    try:
        nr, nt = (int(v) for v in text.split(","))
        return nr, nt
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected NR,NT") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbardisk",
        description="dbar-energy diagnostics for free-boundary disks in "
                    "pseudoconvex domains",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    specs = {
        "energy": "partial energies and the pulled-back area integral",
        "critical": "criticality diagnostics (harmonicity, free boundary)",
        "index": "Gram spectrum of the index form over an admissible basis",
        "certify": "Morse-index lower-bound certificate",
        "levi": "Levi-form classification on the sampled boundary image",
        "f4-family": "explicit deformation family of the catalog map f4",
        "cutoff": "logarithmic cutoff suite",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--domain", help="catalog domain name")
        p.add_argument("--map", dest="map_name", help="catalog map name")
        p.add_argument("--out", help="output directory for report.json / CSVs")
        p.add_argument("--grid", type=_parse_grid, help="radial,angular nodes")
        p.add_argument("--seed", type=int)
        p.add_argument("--deterministic", action="store_true")
        if name in ("index",):
            p.add_argument("--basis-size", type=int)
        if name in ("certify", "levi"):
            p.add_argument("--k", type=int)
        if name in ("f4-family",):
            p.add_argument("--h", type=float)
        if name in ("cutoff",):
            p.add_argument("--eps", type=float, nargs="+")
    return parser


def config_from_args(args) -> ScenarioConfig:
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data.update(json.load(fh))
    data["action"] = args.action.replace("-", "_")
    if args.domain:
        data["domain"] = args.domain
    if args.map_name:
        data["map"] = args.map_name
    if args.grid:
        data["grid"] = args.grid
    if args.seed is not None:
        data["seed"] = args.seed
    if args.deterministic:
        data["deterministic"] = True
    if getattr(args, "basis_size", None) is not None:
        data["basis_size"] = args.basis_size
    if getattr(args, "k", None) is not None:
        data["k"] = args.k
    if getattr(args, "h", None) is not None:
        data["h"] = args.h
    if getattr(args, "eps", None):
        data["eps_list"] = tuple(args.eps)
    return ScenarioConfig.from_dict(data)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        report = run(config)
        if args.out:
            text = "\n".join(emit(report, args.out)) + "\n"
        else:
            text = to_json_text(report.to_json_dict())
    except Refusal as exc:
        print(f"refusal: {exc}", file=sys.stderr)
        return 2
    except (DbarDiskError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
