#!/usr/bin/env python3
"""Benchmark of the equimorse package: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``.
The run solves seeded inputs of the workload one at a time, in this
process, until S seconds have passed (at least one solve), and checks every
answer with the oracles in ``oracles.py``.

With ``--trace 0`` it reports the end-to-end metrics: the median solve time,
the median set-up time over fresh interpreters and the peak resident
memory.  With ``--trace 1`` it solves the same inputs untraced and traced
in pairs and reports the per-layer metrics of the first traced set-up and
solve, plus the traced solve time and its overhead.  Counts are per solve and repeat
exactly at one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the run environment and the raw samples.  Without the package
source next to the benchmark the run exits with code 2 and no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
PACKAGE_MODULES = ("hamflow", "dact", "spindex", "exactalg", "lochom", "regdist", "equiperturb")


class NoPackage(Exception):
    pass


def import_package():
    """Import every equimorse module from this checkout's src/, nowhere else."""
    pkg = SRC / "equimorse"
    if not (pkg / "__init__.py").is_file():
        raise NoPackage(f"no equimorse package under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    mods = [importlib.import_module(f"equimorse.{m}") for m in PACKAGE_MODULES]
    if Path(mods[0].__file__).resolve().parent != pkg.resolve():
        raise NoPackage(f"equimorse was imported from {mods[0].__file__}, not {pkg}")
    return mods


def environment():
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def setup_samples(workload, seed):
    """Set-up seconds measured in fresh interpreters, so imports count."""
    out = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


class Run:
    """Counts attempts and failures; every failure is printed to stderr."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def solve(self, inp, tracer=None):
        """(seconds, output or None) for one solve; the check runs untimed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                out = self.w.solve(inp)
        except Exception:
            self.failed += 1
            print(f"solve raised:\n{traceback.format_exc()}", file=sys.stderr)
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        try:
            self.w.check(inp, out)
        except Exception:
            self.failed += 1
            print(f"check failed:\n{traceback.format_exc()}", file=sys.stderr)
        return elapsed, out


def measure(w, seed, seconds):
    run = Run(w)
    setup = setup_samples(w.name, seed)
    times = []
    start = time.perf_counter()
    i = 0
    while not times or time.perf_counter() - start < seconds:
        dt, _ = run.solve(w.make(seed, i))
        times.append(dt)
        i += 1
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"solve_s": statistics.median(times), "setup_s": statistics.median(setup),
               "peak_rss_mib": peak_mib}
    return run, metrics, {"solve_s": times, "setup_s": setup}


def measure_traced(w, seed, seconds):
    from metrics import DERIVED
    from tracer import Tracer, derived

    run = Run(w)
    plain, traced = [], []
    first = None
    start = time.perf_counter()
    i = 0
    while not traced or time.perf_counter() - start < seconds:
        dt, _ = run.solve(w.make(seed, i))
        plain.append(dt)
        # fresh inputs, so cached flows of the untraced solve are not reused;
        # building them is traced too, for the layers that work at set-up
        tr = Tracer()
        with tr:
            inp = w.make(seed, i)
        dt, out = run.solve(inp, tracer=tr)
        traced.append(dt)
        if first is None:
            first = (tr, inp, out)
        i += 1
    tr, inp, out = first
    metrics = dict.fromkeys(DERIVED, 0)
    metrics.update(tr.report())
    metrics.update(derived(tr))
    if out is not None:
        metrics.update(w.facts(inp, out, tr))
    metrics["trace.solve_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return run, metrics, {"solve_s": plain, "trace.solve_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    try:
        import_package()
    except (NoPackage, ImportError) as exc:
        print(f"cannot import equimorse: {exc}", file=sys.stderr)
        return 2
    from metrics import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.trace:
        run, values, samples = measure_traced(w, args.seed, args.seconds)
        units = PER_LAYER
    else:
        run, values, samples = measure(w, args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps({"workload": w.name, "seed": args.seed, "trace": args.trace,
                      "env": environment(), "samples": samples}))
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
