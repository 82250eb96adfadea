"""Benchmark self-test: every workload once at reduced size, end to end and traced.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs ``run.py --small`` with tracing off
once and with tracing on twice.  It checks that every run passes its output
checks, prints exactly the metrics BENCHMARK.json names with their units, and
that the traced ``.calls`` counts are identical across the two traced runs.
Exits 1 and lists the problems when a check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--small"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s --trace %d exited %d: %s"
                           % (workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, expected: dict[str, str], what: str) -> list[str]:
    problems = []
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append("%s: correct=%s failed=%s attempted=%s" % (
            what, result["correct"], result["failed"], result["attempted"]))
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != expected:
        problems.append("%s: metrics differ from BENCHMARK.json: printed %s, expected %s"
                        % (what, printed, expected))
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        try:
            plain, first, second = run(workload, 0), run(workload, 1), run(workload, 1)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            problems.append("%s: %s" % (workload, exc))
            continue
        problems += check(plain, e2e, workload + " --trace 0")
        for n, result in enumerate((first, second)):
            problems += check(result, layers, "%s --trace 1 (run %d)" % (workload, n + 1))
        for name in (n for n in layers if n.endswith(".calls")):
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s is %s then %s" % (workload, name, a, b))
        print("%s: checked" % workload, flush=True)
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
