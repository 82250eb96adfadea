"""Acceptance suite: the product-level criteria the package ships against.

Each test prints one ``ACCEPTANCE <n>: PASS/FAIL`` line (visible with or
without -s) before asserting, so a red run still reports every criterion's
outcome.  Criteria with stated runtime budgets measure and enforce them.

Criterion 4d is a strict xfail: the demanded in-band frequency for the
half-support model's squared-norm drift is not attainable — the statistic is
a rescaled chi-square with p/2 degrees of freedom, so at p = 1024 the exact
probability P(|x'x - p|/p <= 0.1) equals 0.8909, below the 0.99 bar (it
first clears 0.99 near p = 3000).  The packaged threshold table keeps the
faithful rule, so CLI runs of that configuration report the failure honestly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.stats import chi2

import mplab
from mplab.cli.config import ExperimentConfig
from mplab.cli.experiments import run_experiment
from mplab.ensembles import IIDRademacher, derive_rng
from mplab.equivalence import ScaledIdentity, SwapConfig, resolvent_gap


def report(capsys, num: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {detail}")


def matched_rule_names(summary: dict) -> set[str]:
    return {c["name"] for c in summary["thresholds"]}


def test_criterion_01_law_analytics(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="law-tables", seed=0)
    out = run_experiment(cfg)
    dt = time.perf_counter() - t0
    m = out.summary["metrics"]
    ok = m["mass_err_max"] <= 1e-8 and m["stieltjes_gap_max"] <= 1e-8 and dt < 5.0
    report(
        capsys, "1", ok,
        f"mass_err_max={m['mass_err_max']:.2e}, stieltjes_gap_max="
        f"{m['stieltjes_gap_max']:.2e} (bars 1e-8), {dt:.1f}s (< 5 s)",
    )
    assert {"law-total-mass", "law-stieltjes-quadrature"} <= matched_rule_names(out.summary)
    assert out.summary["pass"], out.summary["thresholds"]
    assert m["mass_err_max"] <= 1e-8
    assert m["stieltjes_gap_max"] <= 1e-8
    assert dt < 5.0


def test_criterion_02_iid_entry_models_converge(capsys):
    t0 = time.perf_counter()
    means = {}
    summaries = {}
    for model in ("iid-gauss", "iid-rademacher"):
        cfg = ExperimentConfig(experiment="esd", model=model, p=512, n=1024,
                               trials=10, seed=7)
        out = run_experiment(cfg)
        means[model] = out.summary["metrics"]["ks_mean"]
        summaries[model] = out.summary
    dt = time.perf_counter() - t0
    ok = all(v <= 0.04 for v in means.values()) and dt < 120.0
    report(
        capsys, "2", ok,
        f"mean KS gauss={means['iid-gauss']:.4f}, "
        f"rademacher={means['iid-rademacher']:.4f} (bar 0.04), {dt:.1f}s (< 2 min)",
    )
    for model, summary in summaries.items():
        assert summary["pass"], (model, summary["thresholds"])
        assert means[model] <= 0.04
    assert dt < 120.0


def test_criterion_03_sparse_spike_stays_far_with_unit_tail_mass(capsys):
    cfg = ExperimentConfig(experiment="esd", model="sparse-spike", p=1024, n=2048,
                           trials=10, seed=11)
    out = run_experiment(cfg)
    ks_min = out.summary["metrics"]["ks_min"]
    every = [r.value for r in out.records]
    lcfg = ExperimentConfig(experiment="conditions", model="sparse-spike",
                            stat="lindeberg", p=1024, eps=0.5, trials=1000, seed=11)
    lout = run_experiment(lcfg)
    dev = lout.summary["metrics"]["tail_dev_from_one_sigmas"]
    ok = min(every) >= 0.10 and dev <= 4.0
    report(
        capsys, "3", ok,
        f"KS per-seed min={min(every):.3f} over 10 seeds (bar 0.10), "
        f"tail mean dev from 1 = {dev:.2f} SE (bar 4)",
    )
    assert out.summary["pass"], out.summary["thresholds"]
    assert lout.summary["pass"], lout.summary["thresholds"]
    assert ks_min == min(every)
    assert min(every) >= 0.10
    assert dev <= 4.0


def test_criterion_04_half_support_counterexample(capsys):
    full = run_experiment(
        ExperimentConfig(experiment="esd", model="block-xi", p=1024, n=1024,
                         trials=10, seed=13)
    )
    ks_mean = full.summary["metrics"]["ks_mean"]

    quad = run_experiment(
        ExperimentConfig(experiment="conditions", model="block-xi", stat="quadform",
                         family="fixed-half", p=1024, eps=0.25, trials=200, seed=13)
    )
    exceed = quad.summary["metrics"]["exceed_freq"]

    proj = run_experiment(
        ExperimentConfig(experiment="mp-property", model="block-xi", frame="fixed-half",
                         p=1024, n=1024, q=512, trials=10, seed=13)
    )
    proj_min = proj.summary["metrics"]["ks_min"]

    ok = ks_mean <= 0.05 and exceed >= 0.95 and proj_min >= 0.07
    report(
        capsys, "4(a-c)", ok,
        f"full-ESD mean KS={ks_mean:.4f} (bar 0.05); fixed-half quadform "
        f"exceedance={exceed:.3f} (bar 0.95); projected per-seed min KS="
        f"{proj_min:.3f} (bar 0.07)",
    )
    for part in (full, quad, proj):
        assert part.summary["pass"], part.summary["thresholds"]
    assert ks_mean <= 0.05
    assert exceed >= 0.95
    assert proj_min >= 0.07


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable bar: the half-support model's squared-norm drift is "
        "(2*chi2_{p/2} - p)/p, so P(|drift| <= 0.1) at p = 1024 is exactly "
        "chi2.cdf(563.2, 512) - chi2.cdf(460.8, 512) = 0.8909 < 0.99; the "
        "0.99 target is first reached near p = 3000"
    ),
)
def test_criterion_04d_norm_drift_band_frequency(capsys):
    exact = chi2.cdf(0.55 * 1024, df=512) - chi2.cdf(0.45 * 1024, df=512)
    cfg = ExperimentConfig(experiment="conditions", model="block-xi", stat="norm-drift",
                           p=1024, eps=0.1, trials=400, seed=13)
    out = run_experiment(cfg)
    freq = out.summary["metrics"]["within_freq"]
    report(
        capsys, "4(d)", freq >= 0.99,
        f"norm-drift in-band frequency={freq:.4f} (bar 0.99; exact law value "
        f"{exact:.4f}) — expected failure, see test docstring",
    )
    assert abs(freq - exact) <= 4 * out.summary["metrics"]["within_se"]
    assert freq >= 0.99  # the faithful, unattainable criterion


def test_criterion_05_projected_gaussian_positive_control(capsys):
    cfg = ExperimentConfig(experiment="mp-property", model="iid-gauss", frame="haar",
                           p=1024, n=1024, q=512, trials=10, seed=17)
    out = run_experiment(cfg)
    ks_mean = out.summary["metrics"]["ks_mean"]
    ok = ks_mean <= 0.04
    report(capsys, "5", ok, f"haar-projected mean KS={ks_mean:.4f} (bar 0.04)")
    assert out.summary["pass"], out.summary["thresholds"]
    assert ks_mean <= 0.04


def test_criterion_05_haar_frame_path_positive_control(capsys):
    # Criterion 5's Gaussian data is compressed in law, with no frame; sign
    # data still goes through the Haar frame and C X, which this keeps under
    # the same bar.
    cfg = ExperimentConfig(experiment="mp-property", model="iid-rademacher", frame="haar",
                           p=512, n=512, q=256, trials=10, seed=17)
    ks_mean = run_experiment(cfg).summary["metrics"]["ks_mean"]
    ok = ks_mean <= 0.04
    report(capsys, "5 (frame path)", ok,
           f"haar-projected sign data mean KS={ks_mean:.4f} (bar 0.04)")
    assert ks_mean <= 0.04


def test_criterion_06_gaussian_dichotomy_and_chebyshev_sweep(capsys):
    ident = run_experiment(
        ExperimentConfig(experiment="conditions", model="gauss-cov:identity",
                         stat="quadform", family="identity", p=2048, eps=0.5,
                         trials=100, seed=19)
    )
    spiked = run_experiment(
        ExperimentConfig(experiment="conditions", model="gauss-cov:spiked:1,2048",
                         stat="quadform", family="identity", p=2048, eps=0.5,
                         trials=100, seed=19)
    )
    mi, ms = ident.summary["metrics"], spiked.summary["metrics"]

    worst_slack = np.inf
    for cov in ("identity", "toeplitz:0.6", "toeplitz:0.3", "spiked:2,16", "spiked:1,64"):
        for family in ("identity", "random-psd"):
            for eps in (0.25, 0.5):
                cfg = ExperimentConfig(
                    experiment="conditions", model=f"gauss-cov:{cov}",
                    stat="chebyshev", family=family, p=128, eps=eps,
                    trials=400, seed=23,
                )
                out = run_experiment(cfg)
                assert out.summary["pass"], (cov, family, eps, out.summary["thresholds"])
                worst_slack = min(worst_slack, out.summary["metrics"]["slack"])

    ok = (
        mi["exceed_freq"] <= 0.01
        and ms["exceed_freq"] >= 0.3
        and worst_slack >= 0.0
    )
    report(
        capsys, "6", ok,
        f"identity exceedance={mi['exceed_freq']:.3f} (bar 0.01, spread="
        f"{mi['cov_spread']:.2e}); spiked exceedance={ms['exceed_freq']:.3f} "
        f"(bar 0.3, spread={ms['cov_spread']:.4f}); worst Chebyshev slack over "
        f"20 configs={worst_slack:.4f} (bar 0)",
    )
    assert ident.summary["pass"], ident.summary["thresholds"]
    assert spiked.summary["pass"], spiked.summary["thresholds"]
    assert mi["exceed_freq"] <= 0.01
    assert ms["exceed_freq"] >= 0.3
    # The spread statistic separates the two regimes: 1/p versus about 1.
    assert mi["cov_spread"] == pytest.approx(1.0 / 2048, rel=1e-12)
    assert 0.9 <= ms["cov_spread"] <= 1.1
    assert worst_slack >= 0.0


def test_criterion_07_swap_gap_scaling_and_shift_identity(capsys):
    t0 = time.perf_counter()
    medians = {}
    for p in (128, 256, 512):
        cfg = ExperimentConfig(experiment="equivalence", model="iid-rademacher",
                               p=p, n=2 * p, zs=(1j,), trials=10, seed=29)
        out = run_experiment(cfg)
        medians[p] = out.summary["metrics"]["abs_gap_median"]
        if p == 512:
            assert out.summary["pass"], out.summary["thresholds"]
            assert "swap-rademacher-small-gap" in matched_rule_names(out.summary)

    sparse = run_experiment(
        ExperimentConfig(experiment="equivalence", model="sparse-spike",
                         p=512, n=1024, zs=(1j,), trials=10, seed=29)
    )
    sparse_med = sparse.summary["metrics"]["abs_gap_median"]

    shift_err = 0.0
    for t in range(3):
        with_b = SwapConfig(IIDRademacher(), 256, 512, (1j,), b_spec=ScaledIdentity(0.5))
        without = SwapConfig(IIDRademacher(), 256, 512, (-0.5 + 1j,))
        d1 = resolvent_gap(with_b, derive_rng(31, t))[0]
        d2 = resolvent_gap(without, derive_rng(31, t))[0]
        shift_err = max(shift_err, abs(d1 - d2))
    dt = time.perf_counter() - t0

    decreasing = medians[128] > medians[256] > medians[512]
    ok = (decreasing and medians[512] <= 0.02 and sparse_med >= 0.05
          and shift_err <= 1e-10 and dt < 300.0)
    report(
        capsys, "7", ok,
        f"rademacher |gap| medians {medians[128]:.4f} > {medians[256]:.4f} > "
        f"{medians[512]:.4f} (bar: decreasing, <= 0.02 at 512); sparse median="
        f"{sparse_med:.4f} (bar 0.05); identity-offset shift error="
        f"{shift_err:.1e} (bar 1e-10); {dt:.1f}s (< 5 min)",
    )
    assert sparse.summary["pass"], sparse.summary["thresholds"]
    assert decreasing
    assert medians[512] <= 0.02
    assert sparse_med >= 0.05
    assert shift_err <= 1e-10
    assert dt < 300.0


def test_criterion_08_heterogeneous_columns(capsys):
    p, n = 256, 512
    cfg = ExperimentConfig(experiment="equivalence", model="iid-gauss", p=p, n=n,
                           zs=(1j,), trials=40, eps=0.03,
                           hetero=("identity", "toeplitz:0.5"), seed=37)
    out = run_experiment(cfg)
    m = out.summary["metrics"]
    phi = 0.5
    tr_toep = p + 2 * sum((p - h) * phi ** (2 * h) for h in range(1, p))
    expected_spread = (p + tr_toep) / (2 * p * p)
    ok = m["within_freq"] >= 0.95 and m["avg_spread"] == pytest.approx(
        expected_spread, rel=1e-12
    )
    report(
        capsys, "8", ok,
        f"|gap| <= 0.03 for {m['within_freq']:.1%} of 40 seeds (bar 95%); "
        f"avg spread statistic={m['avg_spread']:.6f} (= the hand value "
        f"{expected_spread:.6f})",
    )
    assert "swap-hetero-alternating" in matched_rule_names(out.summary)
    assert out.summary["pass"], out.summary["thresholds"]
    assert m["within_freq"] >= 0.95
    assert m["avg_spread"] == pytest.approx(expected_spread, rel=1e-12)


def test_criterion_09_invariant_suite(capsys):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="facts", trials=1000, p=40, seed=1)
    out = run_experiment(cfg)
    dt = time.perf_counter() - t0
    viol = out.summary["metrics"]["violations_total"]
    ok = viol == 0 and dt < 30.0
    report(
        capsys, "9", ok,
        f"{int(viol)} violations across 9 checks x 1000 instances at p <= 40 "
        f"(bar 0), {dt:.1f}s (< 30 s)",
    )
    assert out.summary["pass"], out.summary["thresholds"]
    assert viol == 0
    assert dt < 30.0


def run_cli(tmp_path, tag: str, env: dict[str, str | None],
            argv: list[str]) -> tuple[bytes, bytes]:
    """Report and summary bytes of ``python -m mplab.cli <argv>`` run in tmp_path.

    ``env`` overrides the inherited environment; ``None`` removes a variable.
    """
    out_path = tmp_path / f"{tag}.out"
    # The child runs in tmp_path, so a relative PYTHONPATH would not
    # resolve; point it at the directory holding the imported package.
    path = [os.path.dirname(os.path.dirname(mplab.__file__))]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    child = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    for name, value in env.items():
        if value is None:
            child.pop(name, None)
        else:
            child[name] = value
    proc = subprocess.run(
        [sys.executable, "-m", "mplab.cli", *argv, "--out", str(out_path)],
        capture_output=True, env=child, cwd=str(tmp_path), check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return out_path.read_bytes(), proc.stdout


def test_criterion_10_byte_determinism_across_worker_counts(capsys, tmp_path):
    def run(tag: str, threads: str, argv: list[str]) -> tuple[bytes, bytes]:
        return run_cli(tmp_path, tag, {"MPLAB_THREADS": threads}, argv)

    cases = {
        "esd": ["esd", "--model", "iid-gauss", "--p", "256", "--n", "512",
                "--trials", "8", "--seed", "42", "--format", "csv"],
        "equivalence": ["equivalence", "--model", "iid-rademacher", "--p", "128",
                        "--n", "256", "--trials", "8", "--seed", "42",
                        "--z", "0.5,1", "--format", "json"],
        "equivalence-multi-z": ["equivalence", "--model", "iid-rademacher", "--p", "128",
                                "--n", "256", "--trials", "8", "--seed", "42",
                                "--z", "0.5,1", "--z=-1,0.5", "--format", "json"],
        "equivalence-hetero": ["equivalence", "--model", "iid-rademacher", "--p", "128",
                               "--n", "256", "--hetero", "identity", "--hetero", "toeplitz:0.5",
                               "--trials", "8", "--seed", "42", "--format", "json"],
    }
    all_ok = True
    for name, argv in cases.items():
        r1 = run(f"{name}-t1-a", "1", argv)
        r1b = run(f"{name}-t1-b", "1", argv)
        r8 = run(f"{name}-t8", "8", argv)
        same = r1 == r1b == r8
        all_ok = all_ok and same
        assert r1 == r1b, f"{name}: rerun at 1 worker differs"
        assert r1 == r8, f"{name}: 8-worker output differs from 1-worker"
    report(
        capsys, "10", all_ok,
        "records and summaries byte-identical across reruns and "
        "MPLAB_THREADS in {1, 8} for esd, and for equivalence at one and two z "
        "and with per-column covariances",
    )


def test_default_worker_count_gives_the_sequential_bytes(tmp_path):
    # With MPLAB_THREADS unset, trials that draw a matrix fill every usable
    # CPU; the bytes must be those of a one-worker run.
    unset = dict.fromkeys(("MPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                           "MKL_NUM_THREADS"))
    cases = {
        "esd": ["esd", "--model", "sparse-spike", "--p", "128", "--n", "256",
                "--trials", "6", "--seed", "42", "--format", "csv"],
        "mp-property": ["mp-property", "--model", "iid-gauss", "--p", "128", "--n", "128",
                        "--q", "64", "--frame", "haar", "--trials", "6", "--seed", "42",
                        "--format", "json"],
        "conditions": ["conditions", "--model", "iid-gauss", "--p", "128", "--stat",
                       "quadform", "--family", "random-psd", "--eps", "0.5",
                       "--trials", "6", "--seed", "42", "--format", "csv"],
    }
    for name, argv in cases.items():
        sequential = run_cli(tmp_path, f"{name}-t1", dict(unset, MPLAB_THREADS="1"), argv)
        default = run_cli(tmp_path, f"{name}-default", unset, argv)
        assert default == sequential, f"{name}: default worker count changed the bytes"


def test_blas_environment_does_not_change_the_bytes(tmp_path):
    # main pins BLAS to one thread before numpy loads, so the BLAS variables
    # a run inherits do not reach its bytes, at any worker count.
    argv = ["esd", "--model", "iid-gauss", "--p", "512", "--n", "1024",
            "--trials", "4", "--seed", "3"]
    outputs = {
        (blas, threads): run_cli(
            tmp_path, f"blas-{blas}-t{threads}",
            {"OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": None,
             "MKL_NUM_THREADS": None, "MPLAB_THREADS": threads},
            argv,
        )
        for blas in (None, "1", "2")
        for threads in ("1", "2")
    }
    first = outputs[None, "1"]
    differ = [key for key, out in outputs.items() if out != first]
    assert differ == [], f"bytes differ from BLAS unset at one worker: {differ}"
