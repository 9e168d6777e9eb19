#!/usr/bin/env python3
"""Run one dbardisk benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --blas-threads 1 --workload gram_ladder \
        --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of the checkout; nothing is
installed. The run sets up the workload, makes its inputs from the seed,
then repeats whole passes over the same operations until ``--seconds``
have gone by, and checks every output. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
The line before it records the machine and the run. Raw results are
appended to ``.perfbench_out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 9          # fresh processes timing set-up, besides this one
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=1)
    p.add_argument("--probe-setup", action="store_true",
                   help="time set-up once in this process, print it, and exit")
    return p.parse_args(argv)


def src_lines() -> int:
    pkg = os.path.join(SRC, "dbardisk")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def machine_info(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": args.blas_threads,
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


def probe_setup_times(args) -> list:
    """Set-up time of the workload in fresh processes, numpy already loaded."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--blas-threads", str(args.blas_threads)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, env=dict(os.environ))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


class Runner:
    """Runs whole passes over the operations and checks their outputs."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def one_pass(self):
        outputs = []
        t_pass = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failing operation is counted, not fatal
                out = exc
                traceback.print_exc(file=sys.stderr)
            outputs.append((op, out, time.perf_counter() - t0))
        pass_s = time.perf_counter() - t_pass
        op_s = {}
        for op, out, dt in outputs:
            self.attempted += 1
            op_s[op.name] = dt
            if isinstance(out, Exception):
                self.failed += 1
                continue
            problems = op.check(out)
            if problems:
                self.failed += 1
                self.wrong += 1
                print(f"check failed: {op.name}: {'; '.join(problems)}", file=sys.stderr)
        return pass_s, op_s


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dbardisk", "__init__.py")):
        print(f"perfbench: no dbardisk sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:          # before numpy loads its BLAS
        os.environ[var] = str(args.blas_threads)
    sys.path.insert(0, SRC)
    import numpy as np  # noqa: F401  (loaded before the set-up clock starts)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    if args.probe_setup:
        t0 = time.perf_counter()
        wl.setup()
        print(f"{time.perf_counter() - t0!r}")
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        import dbardisk  # noqa: F401  (the tracer patches it before set-up)
        tracer.install()
    t0 = time.perf_counter()
    ctx = wl.setup()
    setup_times = [time.perf_counter() - t0]
    if tracer is not None:
        tracer.reset()
    else:
        setup_times += probe_setup_times(args)
    import dbardisk

    if not os.path.abspath(dbardisk.__file__).startswith(SRC + os.sep):
        print(f"perfbench: dbardisk imported from {dbardisk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    ops = wl.operations(ctx, rng, out_dir)
    runner = Runner(ops)
    try:
        pass_times, largest = [], []
        deadline = time.perf_counter() + args.seconds
        while not pass_times or time.perf_counter() < deadline:
            gc.collect()
            pass_s, op_s = runner.one_pass()
            pass_times.append(pass_s)
            largest.append(op_s[wl.largest])
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)

    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        metrics = tracer.metrics(len(pass_times))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "largest_op_s": {"value": statistics.median(largest), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(pass_times), "pass_s": statistics.median(pass_times),
        "pass_s_all": pass_times, "setup_s_all": setup_times,
        "largest_op": wl.largest, "peak_rss_mb": peak_mb,
        "machine": machine_info(args),
    }
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"info": info, "result": result}) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
