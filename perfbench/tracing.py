"""Per-layer numbers: the workload's CLI invocations run in-process with spans.

Spans are recorded from the benchmark's side only: every public function and
method of each layer module is replaced by a timing wrapper, on the module
that defines it and on every ``mplab`` module that bound it with
``from ... import``.  Nothing under ``src/`` is edited.  Spans live in memory
until the pass ends; each thread keeps its own stack, so spans from the trial
worker pool get the right parents.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from e2e import Tally, child_env, spawn
from workloads import Workload

#: Modules whose public functions and methods become layers.
LAYER_MODULES = ("matcore", "mp_law", "ensembles", "spectra", "conditions",
                 "equivalence", "cli.experiments", "cli.records")

#: Work done by a call, computed from its arguments and result.
WORK: dict[str, Callable[[tuple, Any], float]] = {
    "ensembles.sample_vector": lambda args, out: out.size,
    "ensembles.sample_data_matrix": lambda args, out: out.size,
    # Flops of the symmetric product X X^T (one triangle, p(p+1)/2 dot products
    # of length n) for a p-by-n X, computed from shapes.
    "spectra.sample_covariance": lambda args, out: float(
        out.shape[0] * (out.shape[0] + 1) * args[0].shape[1]),
}
SAMPLERS = ("ensembles.sample_vector", "ensembles.sample_data_matrix")
IMPORT_REPEATS = 3


class Span:
    __slots__ = ("name", "parent", "thread", "start", "end", "work")

    def __init__(self, name: str, parent: Span | None, thread: int) -> None:
        self.name, self.parent, self.thread = name, parent, thread
        self.start = self.end = 0.0
        self.work = 0.0


class Tracer:
    """Installs timing wrappers and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, local, work = self.spans, self._local, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = Span(name, stack[-1] if stack else None, threading.get_ident())
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if work is not None:
                span.work = work(args, out)
            return out

        return traced

    def install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for owner, attr, name in _layer_targets():
            fn = vars(owner)[attr]
            wrappers[id(fn)] = self._wrap(name, fn)
            self._patch(owner, attr, wrappers[id(fn)])
        originals = {id(orig): orig for _, _, orig in self._patches}
        for mod in [m for n, m in sys.modules.items() if n.startswith("mplab")]:
            for attr, value in list(vars(mod).items()):
                if originals.get(id(value)) is value:
                    self._patch(mod, attr, wrappers[id(value)])

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _layer_targets() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every public function and method."""
    targets = []
    for short in LAYER_MODULES:
        mod = importlib.import_module("mplab." + short)
        for attr, value in vars(mod).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value):
                targets.append((mod, attr, "%s.%s" % (short, attr)))
            elif inspect.isclass(value):
                targets += [(value, m, "%s.%s" % (short, m)) for m, f in vars(value).items()
                            if inspect.isfunction(f) and not m.startswith("_")]
    return targets


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child[id(s.parent)] = child.get(id(s.parent), 0.0) + (s.end - s.start)
    return {id(s): (s.end - s.start) - child.get(id(s), 0.0) for s in spans}


def _covered(root: Span, spans: list[Span]) -> float:
    """Time inside ``root`` covered by its children or by worker-thread spans."""
    intervals = sorted(
        (max(s.start, root.start), min(s.end, root.end)) for s in spans
        if s.parent is root
        or (s.parent is None and s.thread != root.thread and root.start <= s.start < root.end)
    )
    covered, reach = 0.0, root.start
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def layer_metrics(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, before the run-level ones are added."""
    own = _self_times(spans)

    def calls(name: str) -> float:
        return float(sum(1 for s in spans if s.name == name))

    def self_s(name: str) -> float:
        return sum(own[id(s)] for s in spans if s.name == name)

    def module_self_s(module: str) -> float:
        return sum(own[id(s)] for s in spans if s.name.startswith(module + "."))

    def writing_s() -> float:
        # write_report delegates to the CSV/JSON writers of its own module, so
        # its self time counts theirs too: that is where records are written.
        total = 0.0
        for s in spans:
            top = s
            while top.name != "cli.records.write_report" and top.parent is not None \
                    and top.parent.name.startswith("cli.records."):
                top = top.parent
            if top.name == "cli.records.write_report":
                total += own[id(s)]
        return total

    roots = [s for s in spans if s.name == "cli.experiments.run_experiment"]
    run_s = sum(s.end - s.start for s in roots)
    entries = sum(s.work for s in spans if s.name in SAMPLERS
                  and (s.parent is None or s.parent.name not in SAMPLERS))
    flops = sum(s.work for s in spans if s.name == "spectra.sample_covariance")
    cov_s = self_s("spectra.sample_covariance")
    ens_s = module_self_s("ensembles")
    return {
        "ensembles.sample_data_matrix.calls": calls("ensembles.sample_data_matrix"),
        "ensembles.sample_vector.calls": calls("ensembles.sample_vector"),
        "ensembles.self_s": ens_s,
        "ensembles.entries_per_s": entries / ens_s if ens_s else 0.0,
        "spectra.sample_covariance.self_s": cov_s,
        "spectra.sample_covariance.gflop_per_s": flops / cov_s / 1e9 if cov_s else 0.0,
        "spectra.ks_distance.self_s": self_s("spectra.ks_distance"),
        "spectra.projected_covariance.self_s": self_s("spectra.projected_covariance"),
        "mp_law.cdf.calls": calls("mp_law.cdf"),
        "mp_law.cdf.self_s": self_s("mp_law.cdf"),
        "matcore.eigh.calls": calls("matcore.eigh"),
        "matcore.eigh.self_s": self_s("matcore.eigh"),
        "matcore.as_symmetric.calls": calls("matcore.as_symmetric"),
        "matcore.as_symmetric.self_s": self_s("matcore.as_symmetric"),
        "matcore.haar_frame.self_s": self_s("matcore.haar_frame"),
        "matcore.resolvent_trace.self_s": self_s("matcore.resolvent_trace"),
        "conditions.draw_family_matrix.self_s": self_s("conditions.draw_family_matrix"),
        "conditions.mp_property_trial.self_s": self_s("conditions.mp_property_trial"),
        "equivalence.resolvent_gap.self_s": self_s("equivalence.resolvent_gap"),
        "equivalence.resolvent_gap_hetero.self_s": self_s("equivalence.resolvent_gap_hetero"),
        "equivalence.offset_matrix.calls": calls("equivalence.offset_matrix"),
        "cli.experiments.run_experiment_s": run_s,
        "cli.experiments.self_s": module_self_s("cli.experiments"),
        "cli.records.write_report.self_s": writing_s(),
        "cli.records.bytes": float(report_bytes),
        "trace.coverage": sum(_covered(r, spans) for r in roots) / run_s if run_s else 0.0,
    }


def _in_process_pass(workload: Workload, seed: int, workdir: Path,
                     tally: Tally, digests: dict[str, bytes]) -> tuple[float, int]:
    """Run every invocation through ``mplab.cli.main``; returns wall time and report bytes."""
    from mplab.cli import main

    wall, size = 0.0, 0
    for inv in workload.invocations:
        out = workdir / (inv.label + ".inproc")
        out.unlink(missing_ok=True)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = main(inv.command(seed, str(out)))
        wall += time.perf_counter() - start
        report = out.read_bytes() if out.exists() else b""
        summary = buf.getvalue().encode()
        problems = inv.problems(code, summary, report)
        if digests.setdefault(inv.label, report + summary) != report + summary:
            problems.append("traced and untraced outputs differ")
        tally.add(inv.label + "@in-process", problems)
        size += len(report)
    return wall, size


def measure(workload: Workload, seed: int, seconds: float, src: Path, workdir: Path,
            tally: Tally) -> dict[str, float]:
    """Per-layer metrics: medians over traced passes, alternated with untraced ones.

    ``.calls`` metrics must repeat exactly between traced passes; a mismatch
    counts as a failed check.
    """
    imports = []
    for i in range(IMPORT_REPEATS):
        child = spawn([sys.executable, "-c", "import mplab.cli"], workdir,
                      child_env(src), workdir / ("import%d.log" % i))
        tally.add("import", [] if child.code == 0 else ["import exited %d" % child.code])
        imports.append(child.wall_s)

    sys.path.insert(0, str(src))
    from mplab.cli import main

    with contextlib.redirect_stdout(io.StringIO()):  # warm lazy library state
        main(workload.setup.command(seed, str(workdir / "warm.report")))
    tracer = Tracer()
    digests: dict[str, bytes] = {}
    plain, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + plain[-1] + traced[-1] <= deadline:
        plain.append(_in_process_pass(workload, seed, workdir, tally, digests)[0])
        tracer.spans.clear()
        tracer.install()
        try:
            wall, size = _in_process_pass(workload, seed, workdir, tally, digests)
        finally:
            tracer.uninstall()
        traced.append(wall)
        passes.append(layer_metrics(tracer.spans, size))

    metrics = {}
    for name in passes[0]:
        values = [m[name] for m in passes]
        if name.endswith(".calls"):
            tally.add(name, [] if len(set(values)) == 1 else
                      ["counts differ between traced passes: %s" % values])
        metrics[name] = statistics.median(values)
    metrics["startup.import_s"] = statistics.median(imports)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics
