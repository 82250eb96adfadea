"""End-to-end measurement: the CLI run as child processes, tracing off.

Each child is reaped with ``wait4`` so its own CPU time and peak resident set
come from the kernel's accounting for that process alone.
"""

from __future__ import annotations

import hashlib
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Invocation, Workload

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 90.0
#: Minimal runs at the start of each timed pass; ``setup_s`` is their median.
SETUP_PER_PASS = 1


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(argv: list[str], cwd: Path, env: dict[str, str], log: Path) -> Child:
    """Run ``argv`` to completion; stdout goes to ``log``, stderr to ``log.err``."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = proc.returncode if exited else -1
    return Child(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def child_env(src: Path, **overrides: str) -> dict[str, str]:
    """The current environment with an absolute PYTHONPATH to the package source."""
    return dict(os.environ, PYTHONPATH=str(src), **overrides)


@dataclass
class Outcome:
    child: Child
    digest: str
    problems: list[str]


def run_cli(inv: Invocation, seed: int, src: Path, workdir: Path, tag: str,
            **env: str) -> Outcome:
    """One CLI invocation in ``workdir``, checked against what it must produce."""
    out = workdir / (tag + ".report")
    out.unlink(missing_ok=True)
    log = workdir / (tag + ".summary")
    argv = [sys.executable, "-m", "mplab.cli", *inv.command(seed, str(out))]
    child = spawn(argv, workdir, child_env(src, **env), log)
    summary = log.read_bytes()
    report = out.read_bytes() if out.exists() else b""
    problems = inv.problems(child.code, summary, report)
    if child.code not in (0, 1):
        err = log.with_suffix(".err").read_text(errors="replace").strip().splitlines()
        problems.append("stderr: %s" % (err[-1] if err else "(empty)"))
    digest = hashlib.sha256(report + b"\0" + summary).hexdigest()[:16]
    return Outcome(child, digest, problems)


@dataclass
class Tally:
    """Every checked invocation of one benchmark run, and the ones that failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("%s: %s" % (label, "; ".join(problems)))


def measure(workload: Workload, seed: int, seconds: float, src: Path, workdir: Path,
            tally: Tally) -> tuple[dict[str, float], dict[str, str]]:
    """End-to-end metrics of one workload, and the report digest of each invocation.

    Timed passes repeat while at least half of one still fits in ``seconds``,
    at least twice so report bytes can be compared between passes.  Each pass starts with
    minimal runs, whose median wall time is ``setup_s``, then runs every
    invocation; an invocation's wall and CPU time are its medians over the
    passes.
    """
    setup: list[float] = []
    runs: dict[str, list[Child]] = {inv.label: [] for inv in workload.invocations}
    digests: dict[str, str] = {}
    pass_s: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(pass_s) < 2 or time.perf_counter() + statistics.median(pass_s) / 2 <= deadline:
        start = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            o = run_cli(workload.setup, seed, src, workdir, "setup")
            tally.add("setup", o.problems)
            setup.append(o.child.wall_s)
        for inv in workload.invocations:
            o = run_cli(inv, seed, src, workdir, inv.label)
            first = digests.setdefault(inv.label, o.digest)
            if o.digest != first:
                o.problems.append("report bytes differ between passes")
            tally.add(inv.label, o.problems)
            runs[inv.label].append(o.child)
        pass_s.append(time.perf_counter() - start)

    if workload.determinism:
        for inv in workload.invocations:
            o = run_cli(inv, seed, src, workdir, inv.label + "-t1", MPLAB_THREADS="1")
            if o.digest != digests[inv.label]:
                o.problems.append("MPLAB_THREADS=1 output differs from the pooled run")
            tally.add(inv.label + "@1-thread", o.problems)

    def total(key: str) -> float:
        return sum(statistics.median(getattr(c, key) for c in cs) for cs in runs.values())

    metrics = {
        "wall_s": total("wall_s"),
        "cpu_s": total("cpu_s"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(statistics.median(c.rss_mb for c in cs) for cs in runs.values()),
    }
    return metrics, digests
