"""Tests for the randomized matrix-inequality suite."""

from __future__ import annotations

import numpy as np
import pytest

from mplab.ensembles import derive_rng
from mplab.matcore import DomainError
from mplab.identities import (
    CHECKS,
    CheckResult,
    run_check,
)


def test_every_registered_check_passes_individually():
    for idx, (name, fn) in enumerate(CHECKS.items()):
        for t in range(50):
            rng = derive_rng(123, 97, idx, t)
            margin, tol = fn(rng, 20)
            assert margin <= tol, f"{name} trial {t}: margin {margin} > tol {tol}"


def test_suite_zero_violations_small_dimensions():
    results = [run_check(name, trials=200, seed=5, p_max=24) for name in CHECKS]
    assert [r.name for r in results] == list(CHECKS)
    for r in results:
        assert isinstance(r, CheckResult)
        assert r.trials == 200
        assert r.violations == 0
        assert r.worst_margin <= 0.0


def test_run_check_is_deterministic():
    a = run_check("resolvent-norm", trials=40, seed=9, p_max=16)
    b = run_check("resolvent-norm", trials=40, seed=9, p_max=16)
    assert a == b


def test_run_check_counts_violations(monkeypatch):
    def always_fails(rng, p_max):
        return 1.0, 1e-10

    monkeypatch.setitem(CHECKS, "always-fails", always_fails)
    out = run_check("always-fails", trials=7, seed=0)
    assert out.violations == 7
    assert out.worst_margin == pytest.approx(1.0, abs=1e-9)


def test_unknown_check_name_raises():
    with pytest.raises(KeyError):
        run_check("perpetual-motion", trials=1, seed=0)


def test_run_check_rejects_dimension_cap_below_two():
    with pytest.raises(DomainError):
        run_check("trace-product", trials=1, seed=0, p_max=1)


def test_checks_respect_dimension_cap():
    # p_max = 2 forces every drawn instance to dimension 2; the suite must
    # still hold there (the inequalities are dimension-free).
    results = [run_check(name, trials=50, seed=11, p_max=2) for name in CHECKS]
    assert all(r.violations == 0 for r in results)


def test_margins_are_strictly_negative_in_bulk():
    # These inequalities are not tight for generic instances: the worst
    # margin should sit well below zero, not hover at the tolerance.  (The
    # resolvent-norm bound, by contrast, is attained whenever an eigenvalue
    # passes near re(z), so it is excluded here.)
    for name in ("trace-product", "spectral-shift"):
        res = run_check(name, trials=100, seed=13, p_max=16)
        assert res.worst_margin < -1e-3


def test_stable_ratio_margin_distribution():
    margins = []
    for t in range(300):
        rng = derive_rng(17, 97, 8, t)
        margin, tol = CHECKS["stable-ratio"](rng, 10)
        margins.append(margin)
        assert margin <= tol
    # The bound's constant is conservative; generic instances sit far below.
    assert np.median(margins) < -0.01
