"""mplab benchmark: one workload, end to end (``--trace 0``) or per layer (``--trace 1``).

Run from the repository root::

    python3 perfbench/run.py --workload spectra-ks --seed 1 --seconds 20 --trace 0

The CLI runs from ``src/`` of the same tree, through an absolute PYTHONPATH.
Stdout starts with a provenance line, then one digest line per invocation and a
table of every metric; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2 without a
result when the package source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import e2e
import tracing
from workloads import BLAS_THREAD_VARS, WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "ok_frac": "fraction"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("entries_per_s"):
        return "1/s"
    if name.endswith("gflop_per_s"):
        return "GFLOP/s"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith("_s"):
        return "s"
    return "fraction"


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """What produced the numbers: code, toolchain, machine and thread settings."""
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=False)
        commit = git.stdout.strip() or None
    init = (SRC / "mplab" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'^__version__ = "([^"]+)"', init, re.M)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_vars = ("MPLAB_THREADS", *BLAS_THREAD_VARS)
    return {
        "git_commit": commit,
        "mplab_version": version.group(1) if version else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "nproc": os.cpu_count(),
        "thread_env": {name: {v: WORKLOADS[name]().env.get(v) for v in env_vars}
                       for name in WORKLOADS},
        "determinism_rerun_env": {"MPLAB_THREADS": "1"},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrink every invocation (self-test size)")
    args = parser.parse_args(argv)
    if not (SRC / "mplab" / "__init__.py").is_file():
        print("error: package source not found at %s" % (SRC / "mplab"), file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](small=args.small)
    for name, value in workload.env.items():
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = value
    print(json.dumps({"provenance": provenance(args.workload, args.seed, args.seconds,
                                               args.trace)}))
    seed = args.seed % 2**63
    workdir = OUT_DIR / ("%s-%d" % (args.workload, os.getpid()))
    workdir.mkdir(parents=True)
    tally = e2e.Tally()
    try:
        if args.trace:
            values = tracing.measure(workload, seed, args.seconds, SRC, workdir, tally)
            units = {name: layer_unit(name) for name in values}
        else:
            values, digests = e2e.measure(workload, seed, args.seconds, SRC, workdir, tally)
            values["ok_frac"] = 1.0 - len(tally.failures) / tally.attempted
            units = E2E_UNITS
            for label, digest in digests.items():
                print("digest %-18s %s" % (label, digest))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()  # only when no other run is using it

    for failure in tally.failures:
        print("FAILED %s" % failure)
    print("failed_frac %.6g (%d of %d checked invocations)"
          % (len(tally.failures) / tally.attempted, len(tally.failures), tally.attempted))
    for name, value in values.items():
        print("%-40s %14.6g %s" % (name, value, units[name]))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
