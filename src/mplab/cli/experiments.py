"""Experiment dispatch: from a validated config to ordered trial records.

Each experiment expands into a list of trial closures.  Trial ``t`` always
draws from the stream ``derive_rng(seed, code, t)`` where ``code`` is the
experiment's fixed stream code, so results are independent of how trials
are scheduled across workers; ``pool.map`` keeps the records in trial
order.  Summaries compare against threshold rules shipped as data.

A run imports only what its experiment uses: ``equivalence`` and
``identities`` load in their own builders, and ``concurrent.futures`` only
when trials go to a pool.
"""

from __future__ import annotations

import json
import math
import operator
import os
import threading
import time
from dataclasses import dataclass, field, fields
from itertools import cycle, islice
from typing import Any, Callable, NamedTuple

import numpy as np

from ..matcore import InvalidInputError
from ..mp_law import MPLaw
from ..ensembles import (
    GaussianCov,
    derive_rng,
    parse_cov_spec,
    parse_model_spec,
    sample_data_matrix,
)
from ..spectra import ks_distance, sample_covariance
from ..conditions import (
    chebyshev_bound,
    lindeberg_trial,
    mp_property_trial,
    norm_drift_stat,
    parse_family_spec,
    quadform_sigma,
    quadform_trial,
    require_isotropic,
    standard_error,
)
from .config import EXPERIMENTS, MATRIX_STATS, ExperimentConfig, parse_point
from .records import TrialRecord, TrialTimes, write_esd_csv, write_matrix_dump

RowFn = Callable[[np.random.Generator], list[dict[str, Any]]]
Summarize = Callable[[list[TrialRecord]], dict[str, Any]]


class Trials(NamedTuple):
    """Trial closures, their summarizer, and whether each trial draws a matrix."""

    fns: list[RowFn]
    summarize: Summarize
    draws_matrix: bool


#: Fixed upper-half-plane grid for law self-checks (law-tables experiment).
LAW_Z_GRID = tuple(
    complex(re, im)
    for re in (-2.0, -0.5, 0.5, 1.5, 3.0)
    for im in (0.05, 0.3, 1.0, 5.0)
)

#: The acceptance table, installed in the package as ``mplab/data`` (package-data).
PACKAGED_THRESHOLDS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "data", "acceptance_thresholds.json",
)

#: What a rule's ``when`` may name: the summary's config block, plus ``z``.
_WHEN_KEYS = frozenset(f.name for f in fields(ExperimentConfig)) | {"z"}

_OPS = {
    "<=": operator.le,
    ">=": operator.ge,
    "<": operator.lt,
    ">": operator.gt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class RunResult:
    records: list[TrialRecord]
    summary: dict[str, Any]
    times: TrialTimes = field(compare=False)  # where the time went; never a result


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def worker_count(draws_matrix: bool = True) -> tuple[int, str]:
    """Trial workers, and the rule that chose them: ``MPLAB_THREADS``, ``cpus`` or ``inline``.

    MPLAB_THREADS gives the count when set, else the usable CPUs: ``main``
    pins BLAS to one thread, so each worker is one core.  Without
    MPLAB_THREADS, trials that draw no matrix run inline: they are a few
    short numpy calls each, and threads would only contend for the GIL.
    Records do not depend on the count.
    """
    raw = os.environ.get("MPLAB_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw)), "MPLAB_THREADS"
        except ValueError:
            raise InvalidInputError("MPLAB_THREADS must be an integer") from None
    return (usable_cpus(), "cpus") if draws_matrix else (1, "inline")


def _values(records: list[TrialRecord], statistic: str) -> np.ndarray:
    return np.array([r.value for r in records if r.statistic == statistic], dtype=float)


def _frequency(hits: np.ndarray) -> tuple[float, float]:
    """Frequency of the true entries of hits, and its standard error."""
    hits = hits.astype(float)
    return float(np.mean(hits)), standard_error(hits)


# ---------------------------------------------------------------------------
# experiment builders: cfg -> Trials


def _build_esd(cfg: ExperimentConfig) -> Trials:
    model = parse_model_spec(cfg.model)
    law = MPLaw(cfg.p / cfg.n)
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n, "rho": cfg.p / cfg.n}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        d = ks_distance(model.sample_esd(cfg.p, cfg.n, rng), law)
        return [dict(base, statistic="ks_distance", value=d)]

    return Trials([fn] * cfg.trials, _summarize_ks, draws_matrix=True)


def _build_mp_property(cfg: ExperimentConfig) -> Trials:
    model = parse_model_spec(cfg.model)
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n, "q": cfg.q, "rho": cfg.q / cfg.n}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        d = mp_property_trial(model, cfg.p, cfg.n, cfg.q, rng, frame_mode=cfg.frame)
        return [dict(base, statistic="ks_distance", value=d)]

    return Trials([fn] * cfg.trials, _summarize_ks, draws_matrix=True)


def _summarize_ks(records: list[TrialRecord]) -> dict[str, Any]:
    vals = _values(records, "ks_distance")
    return {
        "ks_mean": float(np.mean(vals)),
        "ks_min": float(np.min(vals)),
        "ks_max": float(np.max(vals)),
        "ks_se": standard_error(vals),
    }


def _build_conditions(cfg: ExperimentConfig) -> Trials:
    model = parse_model_spec(cfg.model)
    stat, p, eps = cfg.stat, cfg.p, cfg.eps
    base = {"model": cfg.model, "p": p, "eps": eps}

    if stat in MATRIX_STATS:
        # chebyshev runs the quadform trials and adds its bound to the summary.
        if stat == "chebyshev" and not isinstance(model, GaussianCov):
            raise InvalidInputError("the chebyshev statistic requires a gauss-cov model")
        family = parse_family_spec(cfg.family)
        sigma = quadform_sigma(model, family, p)
        spread = model.cov.square_trace(p) / (p * p)
        fixed = None if family.random else family.draw(p, None)

        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            a = family.draw(p, rng) if family.random else fixed
            value = quadform_trial(model, a, sigma, rng)
            return [dict(base, statistic="quadform", value=value)]

        def summarize(records: list[TrialRecord]) -> dict[str, Any]:
            vals = _values(records, "quadform")
            freq, se = _frequency(np.abs(vals) > eps)
            metrics = {
                "exceed_freq": freq,
                "exceed_se": se,
                "abs_mean": float(np.mean(np.abs(vals))),
                "abs_max": float(np.max(np.abs(vals))),
                "cov_spread": spread,
            }
            if stat == "chebyshev":
                bound = chebyshev_bound(family, spread, eps)
                metrics["bound"] = bound
                metrics["slack"] = bound + 4.0 * se - freq
            return metrics

        return Trials([fn] * cfg.trials, summarize, draws_matrix=family.random)

    if stat == "lindeberg":
        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            value = lindeberg_trial(model, p, eps, rng)
            return [dict(base, statistic="lindeberg", value=value)]

        def summarize(records: list[TrialRecord]) -> dict[str, Any]:
            vals = _values(records, "lindeberg")
            mean, se = float(np.mean(vals)), standard_error(vals)
            if not math.isfinite(se):
                dev = float("nan")  # one draw shows no spread to measure against
            elif se > 0.0:
                dev = abs(mean - 1.0) / se
            else:
                dev = 0.0 if mean == 1.0 else float("inf")
            return {
                "tail_mean": mean,
                "tail_se": se,
                "tail_max": float(np.max(vals)),
                "tail_dev_from_one_sigmas": dev,
            }

        return Trials([fn] * cfg.trials, summarize, draws_matrix=False)

    if stat == "norm-drift":
        require_isotropic(model)

        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            value = norm_drift_stat(model, p, rng)
            return [dict(base, statistic="norm_drift", value=value)]

        def summarize(records: list[TrialRecord]) -> dict[str, Any]:
            vals = _values(records, "norm_drift")
            freq, se = _frequency(np.abs(vals) <= eps)
            return {
                "within_freq": freq,
                "within_se": se,
                "abs_mean": float(np.mean(np.abs(vals))),
                "abs_max": float(np.max(np.abs(vals))),
            }

        return Trials([fn] * cfg.trials, summarize, draws_matrix=False)

    raise InvalidInputError("unknown statistic: %r" % (stat,))


def _build_equivalence(cfg: ExperimentConfig) -> Trials:
    from ..equivalence import (
        SwapConfig,
        average_spread,
        parse_column_spec,
        parse_offset_spec,
        resolvent_gap,
    )

    pattern = [parse_cov_spec(s) for s in cfg.hetero]
    hetero = tuple(islice(cycle(pattern), cfg.n)) if pattern else None
    swap = SwapConfig(
        parse_model_spec(cfg.model), cfg.p, cfg.n, cfg.zs,
        b_spec=parse_offset_spec(cfg.b_spec) if cfg.b_spec else None,
        c_spec=parse_column_spec(cfg.c_spec) if cfg.c_spec else None,
        hetero=hetero,
    )
    avg_spread = None if hetero is None else average_spread(hetero, cfg.p)
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n,
            "b_spec": cfg.b_spec, "c_spec": cfg.c_spec}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        # One draw per trial, read at every z: one record per z.
        return [
            dict(base, statistic="resolvent_gap", value=delta.real, value_im=delta.imag,
                 z_re=z.real, z_im=z.imag)
            for z, delta in zip(swap.zs, resolvent_gap(swap, rng))
        ]

    def summarize(records: list[TrialRecord]) -> dict[str, Any]:
        gaps = np.array([abs(complex(r.value, r.value_im or 0.0)) for r in records])
        viol = sum(
            1
            for r in records
            if abs(complex(r.value, r.value_im or 0.0)) > 2.0 / r.z_im + 1e-9
        )
        metrics: dict[str, Any] = {
            "abs_gap_median": float(np.median(gaps)),
            "abs_gap_mean": float(np.mean(gaps)),
            "abs_gap_max": float(np.max(gaps)),
            "norm_bound_viol": viol,
        }
        if cfg.eps is not None:
            metrics["within_freq"] = float(np.mean(gaps <= cfg.eps))
        if avg_spread is not None:
            metrics["avg_spread"] = float(avg_spread)
        return metrics

    return Trials([fn] * cfg.trials, summarize, draws_matrix=True)


def _build_law_tables(cfg: ExperimentConfig) -> Trials:
    def make_fn(rho: float) -> RowFn:
        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            del rng  # the law table is deterministic
            law = MPLaw(rho)
            far = complex(0.0, 1e6)
            values = [("moment:%d" % k, law.moment(k)) for k in range(5)] + [
                ("support_lo", law.a),
                ("support_hi", law.b),
                ("atom_zero", law.atom0),
                ("total_mass", law.atom0 + law.mass_quadrature()),
                ("cdf_hi_err", abs(law.cdf_quadrature(law.b) - 1.0)),
                ("stieltjes_quad_gap",
                 max(abs(law.stieltjes(z) - law.stieltjes_quadrature(z)) for z in LAW_Z_GRID)),
                ("stieltjes_resid", max(abs(rho * z * m * m + (z + rho - 1.0) * m + 1.0)
                                        for z, m in ((z, law.stieltjes(z)) for z in LAW_Z_GRID))),
                ("stieltjes_tail_gap", abs(law.stieltjes(far) - (-1.0 / far))),
            ]
            return [{"rho": rho, "statistic": name, "value": value} for name, value in values]
        return fn

    def summarize(records: list[TrialRecord]) -> dict[str, Any]:
        return {
            "mass_err_max": float(np.max(np.abs(_values(records, "total_mass") - 1.0))),
            "cdf_err_max": float(np.max(_values(records, "cdf_hi_err"))),
            "moment1_err_max": float(np.max(np.abs(_values(records, "moment:1") - 1.0))),
            "stieltjes_gap_max": float(np.max(_values(records, "stieltjes_quad_gap"))),
            "stieltjes_resid_max": float(np.max(_values(records, "stieltjes_resid"))),
            "stieltjes_tail_gap_max": float(np.max(_values(records, "stieltjes_tail_gap"))),
        }

    return Trials([make_fn(rho) for rho in cfg.rhos], summarize, draws_matrix=False)


def _build_facts(cfg: ExperimentConfig) -> Trials:
    from ..identities import CHECKS, run_check

    def make_fn(name: str) -> RowFn:
        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            del rng  # run_check derives its own per-instance streams
            result = run_check(name, cfg.trials, cfg.seed, p_max=cfg.p)
            return [
                {"statistic": "violations:%s" % name, "value": float(result.violations), "p": cfg.p},
                {"statistic": "margin:%s" % name, "value": result.worst_margin, "p": cfg.p},
            ]
        return fn

    def summarize(records: list[TrialRecord]) -> dict[str, Any]:
        viol = sum(r.value for r in records if r.statistic.startswith("violations:"))
        margins = [r.value for r in records if r.statistic.startswith("margin:")]
        return {
            "violations_total": float(viol),
            "worst_margin_max": float(max(margins)),
        }

    return Trials([make_fn(name) for name in CHECKS], summarize, draws_matrix=False)


_BUILDERS: dict[str, Callable[[ExperimentConfig], Trials]] = {
    "esd": _build_esd,
    "conditions": _build_conditions,
    "mp-property": _build_mp_property,
    "equivalence": _build_equivalence,
    "law-tables": _build_law_tables,
    "facts": _build_facts,
}


# ---------------------------------------------------------------------------
# runner


def _run_trials(cfg: ExperimentConfig, trials: Trials) -> tuple[list[TrialRecord], TrialTimes]:
    code = EXPERIMENTS[cfg.experiment].code

    def one(item: tuple[int, RowFn]) -> tuple[list[dict[str, Any]], float, str]:
        idx, fn = item
        rng = derive_rng(cfg.seed, code, idx)
        start = time.perf_counter()
        rows = fn(rng)
        return rows, (time.perf_counter() - start) * 1e3, threading.current_thread().name

    items = list(enumerate(trials.fns))
    wanted, rule = worker_count(trials.draws_matrix)
    workers = min(wanted, len(items))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(one, items))
    else:
        outputs = [one(item) for item in items]

    records = [
        TrialRecord(experiment=cfg.experiment, trial=idx, seed=cfg.seed, **row)
        for idx, (rows, _, _) in enumerate(outputs)
        for row in rows
    ]
    walls = [(wall_ms, thread) for _, wall_ms, thread in outputs]
    return records, TrialTimes(usable_cpus(), workers, rule, walls)


def _reject_constant(name: str) -> None:
    raise ValueError("non-finite constant %s is not strict JSON" % name)


def load_threshold_rules(path: str | None = None) -> list[dict[str, Any]]:
    """Threshold rules from a JSON file; default to the table shipped as data."""
    if path is None:
        path, label = PACKAGED_THRESHOLDS, "packaged threshold table"
    else:
        label = path
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text, parse_constant=_reject_constant)
        rules = list(data["rules"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"bad threshold file {label}: {exc}") from exc
    return _checked(rules, label)


def _checked(rules: list[dict[str, Any]], label: str) -> list[dict[str, Any]]:
    """The rules, each ``z`` text parsed to a complex; raises on a rule that cannot be graded."""
    checked = []
    for rule in rules:
        problem = _rule_problem(rule)
        when = {} if problem else rule.get("when", {})
        if "z" in when and not isinstance(when["z"], complex):  # not parsed yet
            try:
                rule = dict(rule, when=dict(when, z=parse_point(when["z"])))
            except (AttributeError, ValueError):
                problem = "z must be a string 're,im'"
        if problem:
            raise InvalidInputError(f"bad threshold rule in {label}: {rule!r} ({problem})")
        checked.append(rule)
    return checked


def _rule_problem(rule: Any) -> str | None:
    """Why a rule could never be graded as written, or None for a sound one."""
    if not isinstance(rule, dict) or not {"experiment", "metric", "op", "value"} <= set(rule):
        return "need experiment, metric, op, value"
    when = rule.get("when", {})
    if not isinstance(when, dict):
        return "when must be an object"
    unknown = sorted(set(when) - _WHEN_KEYS)
    if unknown:
        return "when names no config field: %s" % ", ".join(unknown)
    if not isinstance(rule["experiment"], str) or rule["experiment"] not in EXPERIMENTS:
        return "unknown experiment %r" % (rule["experiment"],)
    if not isinstance(rule["metric"], str):
        return "metric must be a string"
    if not isinstance(rule["op"], str) or rule["op"] not in _OPS:
        return "unknown comparison %r" % (rule["op"],)
    if isinstance(rule["value"], bool) or not isinstance(rule["value"], (int, float)):
        return "value must be a number"
    return None


def _rule_params(cfg: ExperimentConfig) -> dict[str, Any]:
    """The summary's config block plus the rule keys z (a one-z run's point) and hetero."""
    params = cfg.to_dict()
    params["hetero"] = ";".join(cfg.hetero) or None
    if len(cfg.zs) == 1:
        params["z"] = cfg.zs[0]
    return params


def _strict_metrics(metrics: dict[str, Any]) -> dict[str, Any]:
    """Encode each non-finite metric as null plus a ``<name>_reason`` string.

    Summaries are strict JSON; a null metric fails every rule that grades it.
    """
    out: dict[str, Any] = {}
    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            out[name] = None
            out[name + "_reason"] = "non-finite value %r" % value
        else:
            out[name] = value
    return out


def evaluate_thresholds(
    cfg: ExperimentConfig, metrics: dict[str, Any], rules: list[dict[str, Any]]
) -> list[dict[str, Any]]:
    """Match rules against the run parameters and grade each matched metric."""
    params = _rule_params(cfg)
    results = []
    for rule in _checked(rules, "the given rules"):
        if rule.get("experiment") != cfg.experiment:
            continue
        when = rule.get("when", {})
        if not all(params.get(key) == val for key, val in when.items()):
            continue
        observed = metrics.get(rule["metric"])
        ok = observed is not None and bool(_OPS[rule["op"]](observed, rule["value"]))
        results.append({
            "name": rule.get("name", rule["metric"]),
            "metric": rule["metric"],
            "op": rule["op"],
            "value": rule["value"],
            "observed": observed,
            "pass": ok,
        })
    return results


def run_experiment(
    cfg: ExperimentConfig, rules: list[dict[str, Any]] | None = None
) -> RunResult:
    """Run all trials of one experiment and grade the aggregate metrics.

    With ``rules=None`` the packaged acceptance table applies; pass ``[]``
    to skip grading (the summary then reports ``pass: true`` vacuously).
    Rules are checked as ``load_threshold_rules`` checks a file, before any
    trial runs.
    """
    rules = load_threshold_rules() if rules is None else _checked(rules, "the given rules")
    trials = _BUILDERS[cfg.experiment](cfg)
    records, times = _run_trials(cfg, trials)
    metrics = _strict_metrics(trials.summarize(records))
    checks = evaluate_thresholds(cfg, metrics, rules)
    summary = {
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "trials": len(trials.fns),
        "metrics": metrics,
        "thresholds": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return RunResult(records=records, summary=summary, times=times)


def dump_first_trial(
    cfg: ExperimentConfig,
    matrix_path: str | None = None,
    esd_path: str | None = None,
) -> None:
    """Redraw trial 0 and dump its p-by-p sample covariance and/or its spectrum.

    The spectrum is trial 0's own, ``model.sample_esd`` on its stream; the
    matrix is ``sample_covariance`` of a dense draw on it (trial 0's X, if any).
    """
    if cfg.experiment != "esd":
        raise InvalidInputError("matrix dumps are available for the esd experiment only")
    model = parse_model_spec(cfg.model)
    p, n, code = cfg.p, cfg.n, EXPERIMENTS["esd"].code
    if matrix_path:
        x = sample_data_matrix(model, p, n, derive_rng(cfg.seed, code, 0))
        write_matrix_dump(matrix_path, sample_covariance(x))
    if esd_path:
        write_esd_csv(esd_path, model.sample_esd(p, n, derive_rng(cfg.seed, code, 0)))
