"""Experiment dispatch: from a validated config to ordered trial records.

Each experiment expands into a list of trial closures.  Trial ``t`` always
draws from the stream ``derive_rng(seed, code, t)`` where ``code`` is the
experiment's fixed stream code, so results are independent of how trials
are scheduled across workers; records are re-ordered by trial index before
emission.  Summaries compare against threshold rules shipped as data.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import operator
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Any, Callable

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
from ..spectra import gram, gram_esd, ks_distance, sample_covariance
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
from ..equivalence import (
    SwapConfig,
    average_spread,
    parse_column_spec,
    parse_offset_spec,
    resolvent_gap,
    swap_offsets,
)
from ..identities import CHECKS, run_check
from .config import EXPERIMENT_CODES, ExperimentConfig
from .records import TrialRecord, write_esd_csv, write_matrix_dump

RowFn = Callable[[np.random.Generator], list[dict[str, Any]]]
Summarize = Callable[[list[TrialRecord]], dict[str, Any]]

#: Fixed upper-half-plane grid for law self-checks (law-tables experiment).
LAW_Z_GRID = tuple(
    complex(re, im)
    for re in (-2.0, -0.5, 0.5, 1.5, 3.0)
    for im in (0.05, 0.3, 1.0, 5.0)
)

DEFAULT_RHOS = (0.1, 0.5, 1.0, 2.0, 4.0)

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


#: Variables that set the BLAS thread count, in the order they are read.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _blas_threads(cpus: int) -> int:
    """The first positive integer among the BLAS variables; else BLAS's default, all CPUs."""
    for name in _BLAS_THREAD_VARS:
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            return value
    return cpus


def worker_count() -> int:
    """Trial workers: MPLAB_THREADS when set, else the CPUs that BLAS threads leave free.

    Trials and BLAS share the cores: with BLAS pinned to one thread every
    usable CPU runs a trial, and with BLAS at its default trials run one at
    a time.  Records do not depend on the count.
    """
    raw = os.environ.get("MPLAB_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise InvalidInputError("MPLAB_THREADS must be an integer") from None
    cpus = _usable_cpus()
    return max(1, cpus // _blas_threads(cpus))


def _require(cfg: ExperimentConfig, *names: str) -> None:
    missing = [name for name in names if getattr(cfg, name) in (None, ())]
    if missing:
        raise InvalidInputError(
            "%s requires %s" % (cfg.experiment, ", ".join("--" + m for m in missing))
        )


def _values(records: list[TrialRecord], statistic: str) -> np.ndarray:
    return np.array([r.value for r in records if r.statistic == statistic], dtype=float)


def _frequency(hits: np.ndarray) -> tuple[float, float]:
    """Frequency of the true entries of hits, and its standard error."""
    hits = hits.astype(float)
    return float(np.mean(hits)), standard_error(hits)


# ---------------------------------------------------------------------------
# experiment builders: cfg -> (trial closures, summarizer)


def _build_esd(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    _require(cfg, "model", "p", "n")
    model = parse_model_spec(cfg.model)
    law = MPLaw(cfg.p / cfg.n)
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n, "rho": cfg.p / cfg.n}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        # X is freed once its Gram is formed, before the eigensolve.
        g = gram(sample_data_matrix(model, cfg.p, cfg.n, rng))
        d = ks_distance(gram_esd(*g), law)
        return [dict(base, statistic="ks_distance", value=d)]

    return [fn] * cfg.trials, _summarize_ks


def _build_mp_property(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    _require(cfg, "model", "p", "n", "q")
    model = parse_model_spec(cfg.model)
    frame = cfg.frame or "haar"
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n, "q": cfg.q, "rho": cfg.q / cfg.n}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        d = mp_property_trial(model, cfg.p, cfg.n, cfg.q, rng, frame_mode=frame)
        return [dict(base, statistic="ks_distance", value=d)]

    return [fn] * cfg.trials, _summarize_ks


def _summarize_ks(records: list[TrialRecord]) -> dict[str, Any]:
    vals = _values(records, "ks_distance")
    return {
        "ks_mean": float(np.mean(vals)),
        "ks_min": float(np.min(vals)),
        "ks_max": float(np.max(vals)),
        "ks_se": standard_error(vals),
    }


def _build_conditions(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    _require(cfg, "model", "p", "eps")
    stat = cfg.stat or "quadform"
    model = parse_model_spec(cfg.model)
    p, eps = cfg.p, cfg.eps
    base = {"model": cfg.model, "p": p, "eps": eps}

    if stat in ("quadform", "chebyshev"):
        # chebyshev runs the quadform trials and adds its bound to the summary.
        if stat == "chebyshev" and not isinstance(model, GaussianCov):
            raise InvalidInputError("the chebyshev statistic requires a gauss-cov model")
        family = parse_family_spec(cfg.family or "identity")
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

        return [fn] * cfg.trials, summarize

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

        return [fn] * cfg.trials, summarize

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

        return [fn] * cfg.trials, summarize

    raise InvalidInputError("unknown statistic: %r" % (stat,))


def _build_equivalence(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    _require(cfg, "model", "p", "n")
    pattern = [parse_cov_spec(s) for s in cfg.hetero]
    hetero = tuple(islice(cycle(pattern), cfg.n)) if pattern else None
    swap = SwapConfig(
        parse_model_spec(cfg.model), cfg.p, cfg.n, cfg.zs or (1j,),
        b_spec=parse_offset_spec(cfg.b_spec) if cfg.b_spec else None,
        c_spec=parse_column_spec(cfg.c_spec) if cfg.c_spec else None,
        hetero=hetero,
    )
    avg_spread = None if hetero is None else average_spread(hetero, cfg.p)
    offsets = swap_offsets(swap)  # shared by every trial
    base = {"model": cfg.model, "p": cfg.p, "n": cfg.n,
            "b_spec": cfg.b_spec, "c_spec": cfg.c_spec}

    def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
        # One draw per trial, read at every z: one record per z.
        return [
            dict(base, statistic="resolvent_gap", value=delta.real, value_im=delta.imag,
                 z_re=z.real, z_im=z.imag)
            for z, delta in zip(swap.zs, resolvent_gap(swap, rng, offsets))
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

    return [fn] * cfg.trials, summarize


def _build_law_tables(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    rhos = cfg.rhos or DEFAULT_RHOS

    def make_fn(rho: float) -> RowFn:
        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            # Quadrature cross-checks only; importing here keeps scipy off
            # the CLI's start-up path.
            from scipy.integrate import quad

            del rng  # the law table is deterministic
            law = MPLaw(rho)
            base = {"rho": rho}
            rows = [
                dict(base, statistic="moment:%d" % k, value=law.moment(k))
                for k in range(5)
            ]
            rows.append(dict(base, statistic="support_lo", value=law.a))
            rows.append(dict(base, statistic="support_hi", value=law.b))
            rows.append(dict(base, statistic="atom_zero", value=law.atom0))
            density_mass, _ = quad(law.density, law.a, law.b, limit=400)
            rows.append(dict(base, statistic="total_mass", value=law.atom0 + density_mass))
            cdf_hi_err = abs(law.cdf_quadrature(law.b) - 1.0)
            rows.append(dict(base, statistic="cdf_hi_err", value=cdf_hi_err))
            gap = max(abs(law.stieltjes(z) - law.stieltjes_quadrature(z)) for z in LAW_Z_GRID)
            rows.append(dict(base, statistic="stieltjes_quad_gap", value=gap))
            resid = max(
                abs(rho * z * m * m + (z + rho - 1.0) * m + 1.0)
                for z, m in ((z, law.stieltjes(z)) for z in LAW_Z_GRID)
            )
            rows.append(dict(base, statistic="stieltjes_resid", value=resid))
            far = complex(0.0, 1e6)
            rows.append(dict(base, statistic="stieltjes_tail_gap",
                             value=abs(law.stieltjes(far) - (-1.0 / far))))
            return rows
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

    return [make_fn(rho) for rho in rhos], summarize


def _build_facts(cfg: ExperimentConfig) -> tuple[list[RowFn], Summarize]:
    p_max = cfg.p or 40

    def make_fn(name: str) -> RowFn:
        def fn(rng: np.random.Generator) -> list[dict[str, Any]]:
            del rng  # run_check derives its own per-instance streams
            result = run_check(name, cfg.trials, cfg.seed, p_max=p_max)
            return [
                {"statistic": "violations:%s" % name, "value": float(result.violations), "p": p_max},
                {"statistic": "margin:%s" % name, "value": result.worst_margin, "p": p_max},
            ]
        return fn

    def summarize(records: list[TrialRecord]) -> dict[str, Any]:
        viol = sum(r.value for r in records if r.statistic.startswith("violations:"))
        margins = [r.value for r in records if r.statistic.startswith("margin:")]
        return {
            "violations_total": float(viol),
            "worst_margin_max": float(max(margins)),
        }

    return [make_fn(name) for name in CHECKS], summarize


_BUILDERS: dict[str, Callable[[ExperimentConfig], tuple[list[RowFn], Summarize]]] = {
    "esd": _build_esd,
    "conditions": _build_conditions,
    "mp-property": _build_mp_property,
    "equivalence": _build_equivalence,
    "law-tables": _build_law_tables,
    "facts": _build_facts,
}


# ---------------------------------------------------------------------------
# runner


def _run_trials(cfg: ExperimentConfig, fns: list[RowFn]) -> list[TrialRecord]:
    code = EXPERIMENT_CODES[cfg.experiment]

    def one(item: tuple[int, RowFn]) -> tuple[int, list[dict[str, Any]], float | None]:
        idx, fn = item
        rng = derive_rng(cfg.seed, code, idx)
        start = time.perf_counter() if cfg.timing else 0.0
        rows = fn(rng)
        wall = (time.perf_counter() - start) * 1e3 if cfg.timing else None
        return idx, rows, wall

    items = list(enumerate(fns))
    workers = min(worker_count(), len(items))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(one, items))
    else:
        outputs = [one(item) for item in items]
    outputs.sort(key=lambda out: out[0])

    records = []
    for idx, rows, wall in outputs:
        for row in rows:
            records.append(
                TrialRecord(experiment=cfg.experiment, trial=idx, seed=cfg.seed,
                            wall_ms=wall, **row)
            )
    return records


def _reject_constant(name: str) -> None:
    raise ValueError("non-finite constant %s is not strict JSON" % name)


def load_threshold_rules(path: str | None = None) -> list[dict[str, Any]]:
    """Threshold rules from a JSON file; default to the table shipped as data."""
    if path is None:
        resource = importlib.resources.files("mplab").joinpath(
            "data", "acceptance_thresholds.json"
        )
        text = resource.read_text(encoding="utf-8")
        label = "packaged threshold table"
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        label = path
    try:
        data = json.loads(text, parse_constant=_reject_constant)
        rules = list(data["rules"])
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInputError(f"bad threshold file {label}: {exc}") from exc
    for rule in rules:
        if not isinstance(rule, dict) or not {"experiment", "metric", "op", "value"} <= set(rule):
            raise InvalidInputError(
                f"bad threshold rule in {label}: {rule!r} "
                "(need experiment, metric, op, value)"
            )
        if rule["op"] not in _OPS:
            raise InvalidInputError(f"unknown comparison {rule['op']!r} in {label}")
    return rules


def _rule_params(cfg: ExperimentConfig) -> dict[str, Any]:
    """The summary's config block plus the rule strings z ("re,im") and hetero."""
    params = cfg.to_dict()
    params["hetero"] = ";".join(cfg.hetero) or None
    if len(cfg.zs) == 1:
        params["z"] = "%g,%g" % (cfg.zs[0].real, cfg.zs[0].imag)
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
    for rule in rules:
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
    """
    if rules is None:
        rules = load_threshold_rules()
    fns, summarize = _BUILDERS[cfg.experiment](cfg)
    records = _run_trials(cfg, fns)
    metrics = _strict_metrics(summarize(records))
    checks = evaluate_thresholds(cfg, metrics, rules)
    summary = {
        "experiment": cfg.experiment,
        "config": cfg.to_dict(),
        "trials": len(fns),
        "metrics": metrics,
        "thresholds": checks,
        "pass": all(c["pass"] for c in checks),
    }
    return RunResult(records=records, summary=summary)


def dump_first_trial(
    cfg: ExperimentConfig,
    matrix_path: str | None = None,
    esd_path: str | None = None,
) -> None:
    """Rebuild trial 0's sample covariance and dump it and/or its spectrum.

    The spectrum is the one trial 0 grades; the matrix is always p-by-p.
    """
    if cfg.experiment != "esd":
        raise InvalidInputError("matrix dumps are available for the esd experiment only")
    _require(cfg, "model", "p", "n")
    model = parse_model_spec(cfg.model)
    rng = derive_rng(cfg.seed, EXPERIMENT_CODES["esd"], 0)
    x = sample_data_matrix(model, cfg.p, cfg.n, rng)
    if matrix_path:
        write_matrix_dump(matrix_path, sample_covariance(x))
    if esd_path:
        write_esd_csv(esd_path, gram_esd(*gram(x)))
