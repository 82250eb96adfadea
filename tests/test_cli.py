"""Tests for the command-line layer: config, records, runners, exit codes."""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import mplab
from mplab.cli import build_parser, config_from_args, main
from mplab.cli.config import (
    COMMON,
    EXPERIMENTS,
    FLAGS,
    MAX_DIM,
    ExperimentConfig,
)
from mplab.cli.experiments import (
    dump_first_trial,
    evaluate_thresholds,
    load_threshold_rules,
    run_experiment,
    worker_count,
)
from mplab.cli import records as records_module
from mplab.cli.records import (
    COLUMNS,
    TrialRecord,
    emit_report,
    read_matrix_dump,
    read_records,
    write_matrix_dump,
    write_report,
)
from mplab.conditions import (
    lindeberg_trial,
    parse_family_spec,
    quadform_sigma,
    quadform_trial,
)
from mplab.ensembles import derive_rng, parse_model_spec, sample_data_matrix
from mplab.matcore import DomainError, InvalidInputError, Spectrum
from mplab.mp_law import MPLaw
from mplab.spectra import ks_distance, sample_covariance


# ---------------------------------------------------------------------------
# config


def test_config_dict_round_trip():
    cfg = ExperimentConfig(
        experiment="equivalence",
        trials=4,
        seed=11,
        model="iid-gauss",
        p=32,
        n=64,
        zs=(0.5 + 1j, 2j),
        b_spec="id:0.5",
        c_spec="const:1.0",
        hetero=("identity", "toeplitz:0.5"),
        eps=0.03,
    )
    law = ExperimentConfig(experiment="law-tables", rhos=(0.1, 2.0))
    for c in (cfg, law):
        # The summary's config block is strict JSON and loses nothing.
        d = json.loads(json.dumps(c.to_dict(), allow_nan=False))
        assert set(d) == set(ExperimentConfig.__dataclass_fields__)
        back = dict(d, zs=tuple(complex(*z) for z in d["zs"]), hetero=tuple(d["hetero"]),
                    rhos=tuple(d["rhos"]))
        assert ExperimentConfig(**back) == c


def test_config_validation_errors():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="astrology")
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="esd", model="iid-gauss", p=MAX_DIM + 1, n=8)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="esd", model="iid-gauss", p=8, n=8, trials=0)
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="equivalence", model="iid-gauss", p=8, n=8, zs=(1.0 + 0j,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="conditions", model="iid-gauss", p=8, eps=0.5, stat="mode")
    from mplab.ensembles import ParseError

    with pytest.raises(ParseError):
        ExperimentConfig(experiment="esd", model="iid-bogus", p=8, n=8)
    # A missing required field is refused before any spec is parsed.
    with pytest.raises(InvalidInputError, match="esd requires --n"):
        ExperimentConfig(experiment="esd", model="iid-bogus", p=8)
    with pytest.raises(InvalidInputError, match="mp-property requires --p, --q"):
        ExperimentConfig(experiment="mp-property", model="iid-gauss", n=8)


def test_config_fills_unset_fields_from_the_table():
    fill = {"model": "iid-gauss", "p": 8, "n": 8, "q": 4}
    for name, row in EXPERIMENTS.items():
        cfg = ExperimentConfig(experiment=name, **{k: fill[k] for k in row.required})
        assert {k: getattr(cfg, k) for k in row.defaults} == row.defaults
    # A set field keeps its value.  Only the statistics that read a test
    # matrix take the default family; the others keep a family only if given.
    cfg = ExperimentConfig(experiment="conditions", model="iid-gauss", p=8, stat="lindeberg",
                           eps=0.25)
    assert (cfg.stat, cfg.family, cfg.eps) == ("lindeberg", None, 0.25)
    for stat, family in [("quadform", "identity"), ("chebyshev", "identity"),
                         ("norm-drift", None)]:
        cfg = ExperimentConfig(experiment="conditions", model="gauss-cov:identity", p=8,
                               stat=stat)
        assert cfg.family == family
    cfg = ExperimentConfig(experiment="conditions", model="iid-gauss", p=8, stat="norm-drift",
                           family="fixed-half")
    assert cfg.family == "fixed-half"


#: A valid value of every field some experiment reads: the config value and the flag text.
_FIELD_VALUES = {
    "model": ("iid-gauss", "iid-gauss"), "p": (8, "8"), "n": (8, "8"), "q": (4, "4"),
    "eps": (0.5, "0.5"), "zs": ((1j,), "0,1"), "stat": ("lindeberg", "lindeberg"),
    "family": ("identity", "identity"), "frame": ("haar", "haar"),
    "b_spec": ("psd:1", "psd:1"), "c_spec": ("const:1.0", "const:1.0"),
    "hetero": (("identity",), "identity"), "rhos": ((0.5,), "0.5"),
}
#: Every experiment with every field its row does not list.
_UNREAD = [(name, field) for name, row in EXPERIMENTS.items()
           for field in _FIELD_VALUES if field not in row.fields]


def test_every_field_is_read_by_some_experiment():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(_FIELD_VALUES) == fields - {"experiment", *COMMON}
    assert {f for row in EXPERIMENTS.values() for f in row.fields} == set(_FIELD_VALUES)
    assert len(_UNREAD) == 13 * 6 - 23


@pytest.mark.parametrize("experiment, field", _UNREAD, ids=["-".join(c) for c in _UNREAD])
def test_a_field_the_experiment_does_not_read_is_refused(experiment, field, tmp_path, capsys):
    # The library refuses it, naming the flag the command line does not
    # have; the command line has no such flag, so it is a usage error.
    required = {k: _FIELD_VALUES[k][0] for k in EXPERIMENTS[experiment].required}
    value, text = _FIELD_VALUES[field]
    flag = FLAGS[field][0]
    with pytest.raises(InvalidInputError, match="^%s reads no %s$" % (experiment, flag)):
        ExperimentConfig(experiment=experiment, **required, **{field: value})
    out = tmp_path / "rows.csv"
    argv = [experiment, *(a for k in required for a in (FLAGS[k][0], _FIELD_VALUES[k][1]))]
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, text, "--out", str(out)])
    assert exc.value.code == 2 and capsys.readouterr().out == "" and not out.exists()


def test_experiment_codes_are_distinct():
    assert len({row.code for row in EXPERIMENTS.values()}) == len(EXPERIMENTS)


# ---------------------------------------------------------------------------
# records


def sample_records() -> list[TrialRecord]:
    return [
        TrialRecord(
            experiment="esd", trial=0, seed=7, statistic="ks_distance",
            value=0.1 + 0.2, model="iid-gauss", p=512, n=1024, rho=0.5,
        ),
        TrialRecord(
            experiment="equivalence", trial=1, seed=7, statistic="resolvent_gap",
            value=-1.2345678901234567e-3, value_im=4e-17, model="iid-rademacher",
            p=128, n=256, z_re=0.0, z_im=1.0, b_spec="id:0.5", c_spec="const:1.0",
        ),
    ]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_record_round_trip_exact(fmt):
    recs = sample_records()
    buf = io.StringIO()
    write_report(recs, buf, fmt)
    back = read_records(io.StringIO(buf.getvalue()), fmt)
    assert back == recs  # %.17g keeps every float bit-exact


def test_csv_and_json_paths_agree():
    recs = sample_records()
    csv_buf, json_buf = io.StringIO(), io.StringIO()
    write_report(recs, csv_buf, "csv")
    write_report(recs, json_buf, "json")
    assert read_records(io.StringIO(csv_buf.getvalue()), "csv") == read_records(
        io.StringIO(json_buf.getvalue()), "json"
    )


def test_json_report_is_an_array_of_objects():
    buf = io.StringIO()
    write_report(sample_records(), buf, "json")
    data = json.loads(buf.getvalue())
    assert isinstance(data, list) and len(data) == 2
    assert set(data[0]) == set(COLUMNS)
    assert data[0]["value"] == 0.1 + 0.2
    assert data[0]["q"] is None


def test_csv_header_checked_on_read():
    with pytest.raises(InvalidInputError):
        read_records(io.StringIO("foo,bar\n1,2\n"), "csv")


def test_write_report_accepts_generator():
    def gen():
        yield from sample_records()

    buf = io.StringIO()
    write_report(gen(), buf, "csv")
    assert buf.getvalue().count("\n") == 3


def test_emit_report_refuses_empty(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidInputError, match="empty"):
        emit_report([], str(path), "csv")
    assert not path.exists()


def test_non_finite_cell_rejected():
    rec = TrialRecord(experiment="esd", trial=0, seed=0, statistic="ks_distance",
                      value=float("nan"))
    with pytest.raises(InvalidInputError):
        write_report([rec], io.StringIO(), "csv")


def test_unknown_format_rejected():
    with pytest.raises(InvalidInputError):
        write_report(sample_records(), io.StringIO(), "xml")
    with pytest.raises(InvalidInputError):
        read_records(io.StringIO(""), "xml")


def _asdict_report(recs: list[TrialRecord], fmt: str) -> str:
    """The report as the encoders wrote it before: one ``dataclasses.asdict`` per record."""
    buf = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(COLUMNS)
        for rec in recs:
            row = dataclasses.asdict(rec)
            writer.writerow([records_module._csv_cell(name, row[name]) for name in COLUMNS])
        return buf.getvalue()
    buf.write("[")
    first = True
    for rec in recs:
        row = dataclasses.asdict(rec)
        cells = ", ".join(
            '"%s": %s' % (name, records_module._json_cell(name, row[name])) for name in COLUMNS
        )
        buf.write(("\n" if first else ",\n") + "  {" + cells + "}")
        first = False
    buf.write("\n]\n" if not first else "]\n")
    return buf.getvalue()


def _every_column_set() -> TrialRecord:
    return TrialRecord(
        experiment="equivalence", trial=3, seed=2**62, statistic="resolvent_gap",
        value=-1.2345678901234567e-3, model='gauss-cov:spiked:1,"2"', p=64, n=128, q=32,
        eps=0.25, rho=0.5, z_re=-1.0, z_im=0.5, b_spec="psd:1", c_spec="const:1.0",
        value_im=4e-17,
    )


_ENCODER_CASES = {
    "every-column-set": [_every_column_set()],
    "every-optional-none": [TrialRecord(experiment="facts", trial=0, seed=0,
                                        statistic="margin:x", value=0.0)],
    "sample": sample_records(),
    "none": [],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(_ENCODER_CASES))
def test_encoders_match_the_asdict_recipe(case, fmt):
    recs = _ENCODER_CASES[case]
    buf = io.StringIO()
    write_report(recs, buf, fmt)
    assert buf.getvalue() == _asdict_report(recs, fmt)


# ---------------------------------------------------------------------------
# matrix dumps


def test_matrix_dump_round_trip(tmp_path):
    m = derive_rng(0).standard_normal((5, 3))
    path = tmp_path / "m.bin"
    write_matrix_dump(str(path), m)
    assert path.stat().st_size == 16 + 5 * 3 * 8
    back = read_matrix_dump(str(path))
    assert np.array_equal(back, m)


def test_matrix_dump_errors(tmp_path):
    with pytest.raises(InvalidInputError):
        write_matrix_dump(str(tmp_path / "x.bin"), np.ones(4))
    short = tmp_path / "short.bin"
    short.write_bytes(b"\x00" * 10)
    with pytest.raises(InvalidInputError, match="truncated"):
        read_matrix_dump(str(short))
    bad = tmp_path / "bad.bin"
    header = np.asarray([2, 2], dtype="<u8").tobytes()
    bad.write_bytes(header + np.zeros(3).tobytes())
    with pytest.raises(InvalidInputError, match="payload"):
        read_matrix_dump(str(bad))


# ---------------------------------------------------------------------------
# runners


def test_run_experiment_esd_rows_ordered():
    cfg = ExperimentConfig(experiment="esd", model="iid-gauss", p=32, n=64,
                           trials=5, seed=3)
    out = run_experiment(cfg, rules=[])
    assert [r.trial for r in out.records] == list(range(5))
    assert all(r.statistic == "ks_distance" for r in out.records)
    assert all(r.seed == 3 and r.p == 32 and r.n == 64 for r in out.records)
    assert out.summary["pass"] is True and out.summary["thresholds"] == []
    assert set(out.summary["metrics"]) == {"ks_mean", "ks_min", "ks_max", "ks_se"}


def test_run_experiment_deterministic_across_workers(monkeypatch):
    cfg = ExperimentConfig(experiment="esd", model="iid-rademacher", p=48, n=96,
                           trials=6, seed=5)
    monkeypatch.setenv("MPLAB_THREADS", "1")
    assert worker_count() == (1, "MPLAB_THREADS")
    first = run_experiment(cfg, rules=[]).records
    monkeypatch.setenv("MPLAB_THREADS", "4")
    assert worker_count() == (4, "MPLAB_THREADS")
    second = run_experiment(cfg, rules=[]).records
    assert first == second


@pytest.mark.parametrize(
    "env, expected",
    [
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}, 2),
        # An explicit MPLAB_THREADS wins, whatever the BLAS variables say.
        ({"MPLAB_THREADS": "1"}, 1),
        ({"MPLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"MPLAB_THREADS": "1", "OMP_NUM_THREADS": "many"}, 1),
        ({"MPLAB_THREADS": "0"}, 1),
        ({"MPLAB_THREADS": " 1 "}, 1),
        ({}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2),
        ({"MPLAB_THREADS": "3"}, 3),
        ({"MPLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}, 1),
    ],
)
def test_worker_count_fills_the_cpus_blas_leaves(monkeypatch, env, expected):
    # main pins BLAS to one thread, so BLAS leaves every usable CPU to the
    # pool and its variables no longer change the count.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for name in ("MPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert worker_count() == (expected, "MPLAB_THREADS" if "MPLAB_THREADS" in env else "cpus")
    assert worker_count(draws_matrix=False)[1] == (
        "MPLAB_THREADS" if "MPLAB_THREADS" in env else "inline")


def test_bad_worker_count_is_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("MPLAB_THREADS", "two")
    # Trials that draw no matrix run inline by default, yet still read it.
    for argv in (["esd", "--model", "iid-gauss", "--p", "8", "--n", "8"],
                 ["conditions", "--model", "iid-gauss", "--p", "8", "--stat", "lindeberg",
                  "--eps", "0.5"]):
        code, out, err = run_main(argv, capsys)
        assert code == 2 and "MPLAB_THREADS" in err and out == ""


class _RecordingPool:
    """Stands in for the trial pool: records its size, runs the trials inline."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self) -> _RecordingPool:
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def map(self, fn, items):
        return map(fn, items)


_MATRIX_RUNS = [
    dict(experiment="esd", model="iid-gauss", p=8, n=8),
    dict(experiment="mp-property", model="iid-gauss", p=8, n=8, q=4),
    dict(experiment="equivalence", model="iid-rademacher", p=8, n=8),
    dict(experiment="conditions", model="iid-gauss", p=8, eps=0.5, family="random-psd"),
    dict(experiment="conditions", model="gauss-cov:identity", p=8, eps=0.5,
         stat="chebyshev", family="haar-proj:2"),
]
_VECTOR_RUNS = [
    dict(experiment="conditions", model="sparse-spike", p=8, eps=0.5, stat="lindeberg"),
    dict(experiment="conditions", model="iid-gauss", p=8, eps=0.5, stat="norm-drift"),
    dict(experiment="conditions", model="block-xi", p=8, eps=0.5, family="fixed-half"),
    dict(experiment="conditions", model="gauss-cov:identity", p=8, eps=0.5,
         stat="chebyshev", family="identity"),
    dict(experiment="law-tables", rhos=(0.5, 2.0, 4.0)),
    dict(experiment="facts", p=8),
]


@pytest.mark.parametrize("fields, draws_matrix",
                         [(f, True) for f in _MATRIX_RUNS] + [(f, False) for f in _VECTOR_RUNS])
def test_only_matrix_trials_fill_the_pool(monkeypatch, fields, draws_matrix):
    # Four usable CPUs are patched in; the stand-in pool starts no thread.
    # _run_trials imports the pool class from concurrent.futures when it pools.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.delenv("MPLAB_THREADS", raising=False)
    cfg = ExperimentConfig(trials=5, seed=1, **fields)
    result = run_experiment(cfg, rules=[])
    assert _RecordingPool.sizes == ([4] if draws_matrix else [])
    assert result.times[:3] == ((4, 4, "cpus") if draws_matrix else (4, 1, "inline"))
    # An explicit MPLAB_THREADS pools every kind of trial, with the same records.
    monkeypatch.setenv("MPLAB_THREADS", "2")
    again = run_experiment(cfg, rules=[])
    assert again.records == result.records
    assert again.times[:3] == (4, 2, "MPLAB_THREADS")
    assert _RecordingPool.sizes == ([4, 2] if draws_matrix else [2])


def _strict_lines(text: str) -> list[dict]:
    def reject(name: str) -> None:
        raise ValueError("non-finite constant %s" % name)

    return [json.loads(line, parse_constant=reject) for line in text.splitlines()]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_profile_leaves_records_and_summary_alone(tmp_path, capsys, monkeypatch, threads):
    monkeypatch.setenv("MPLAB_THREADS", threads)
    argv = ["esd", "--model", "iid-gauss", "--p", "16", "--n", "32", "--trials", "4",
            "--seed", "3"]
    code, plain, _ = run_main([*argv, "--out", str(tmp_path / "plain.csv")], capsys)
    profile = tmp_path / "run.profile"
    code_p, profiled, _ = run_main([*argv, "--out", str(tmp_path / "profiled.csv"),
                                    "--profile", str(profile)], capsys)
    assert code == code_p == 0 and profiled == plain
    assert (tmp_path / "profiled.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    header, *trials, footer = _strict_lines(profile.read_text())
    assert header["mplab"] == mplab.__version__ and header["numpy"] == np.__version__
    assert {"python", "blas", "blas_version", "cpus"} <= set(header)
    assert (header["workers"], header["worker_rule"]) == (int(threads), "MPLAB_THREADS")
    assert [t["trial"] for t in trials] == [0, 1, 2, 3]
    assert all(t["wall_ms"] >= 0.0 and isinstance(t["thread"], str) for t in trials)
    assert set(footer) == {"run_experiment_s", "write_report_s"}


def test_unwritable_profile_is_exit_2_before_any_trial(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mplab.cli.experiments._run_trials", None)  # any trial would crash
    code, out, err = run_main(["esd", "--model", "iid-gauss", "--p", "8", "--n", "8",
                               "--profile", str(tmp_path / "no" / "such" / "dir")], capsys)
    assert code == 2 and "error:" in err and out == ""


def test_dump_first_trial_matches_hand_recompute(tmp_path):
    cfg = ExperimentConfig(experiment="esd", model="iid-gauss", p=16, n=24,
                           trials=2, seed=9)
    mpath = tmp_path / "cov.bin"
    epath = tmp_path / "esd.csv"
    dump_first_trial(cfg, str(mpath), str(epath))
    model = parse_model_spec("iid-gauss")
    rng = derive_rng(9, EXPERIMENTS["esd"].code, 0)
    s = sample_covariance(sample_data_matrix(model, 16, 24, rng))
    assert np.array_equal(read_matrix_dump(str(mpath)), s)
    assert epath.exists()
    bad = ExperimentConfig(experiment="facts", trials=1)
    with pytest.raises(InvalidInputError):
        dump_first_trial(bad, str(mpath), None)


@pytest.mark.parametrize("model, p, n", [("iid-gauss", 24, 16), ("sparse-spike", 32, 64),
                                          ("iid-rademacher", 16, 24), ("sparse-spike", 512, 1024)])
def test_dumped_esd_is_the_spectrum_trial_zero_grades(tmp_path, model, p, n):
    cfg = ExperimentConfig(experiment="esd", model=model, p=p, n=n, trials=2, seed=5)
    epath = tmp_path / "esd.csv"
    dump_first_trial(cfg, None, str(epath))
    record = run_experiment(cfg, rules=[]).records[0]
    with open(epath) as fh:
        assert fh.readline() == "eigenvalue\n"
        dumped = Spectrum(np.loadtxt(fh, ndmin=1))
    assert ks_distance(dumped, MPLaw(p / n)) == record.value


# ---------------------------------------------------------------------------
# thresholds


def test_packaged_threshold_table_loads_and_validates():
    rules = load_threshold_rules()
    assert rules, "packaged table must not be empty"
    for rule in rules:
        assert {"experiment", "metric", "op", "value"} <= set(rule)


def test_threshold_matching_is_subset_based():
    cfg = ExperimentConfig(experiment="esd", model="iid-gauss", p=32, n=64,
                           trials=3, seed=0)
    rules = [
        {"name": "match-all", "experiment": "esd", "when": {},
         "metric": "ks_mean", "op": "<=", "value": 1.0},
        {"name": "match-params", "experiment": "esd",
         "when": {"model": "iid-gauss", "p": 32}, "metric": "ks_mean",
         "op": "<=", "value": 1.0},
        {"name": "wrong-p", "experiment": "esd", "when": {"p": 999},
         "metric": "ks_mean", "op": "<=", "value": 1.0},
        {"name": "wrong-exp", "experiment": "facts", "when": {},
         "metric": "violations_total", "op": "==", "value": 0},
        {"name": "missing-metric", "experiment": "esd", "when": {},
         "metric": "nonexistent", "op": "<=", "value": 1.0},
    ]
    checks = evaluate_thresholds(cfg, {"ks_mean": 0.2}, rules)
    by_name = {c["name"]: c for c in checks}
    assert set(by_name) == {"match-all", "match-params", "missing-metric"}
    assert by_name["match-all"]["pass"] and by_name["match-params"]["pass"]
    assert not by_name["missing-metric"]["pass"]  # absent metric never passes


def test_threshold_z_matching_uses_compact_form():
    # A rule's z is compared as a complex number, exactly.
    for z, rule_z, matches in [
        (1j, "0,1", True),
        (0.1234567 + 1j, "0.1234567,1", True),
        (0.1234568 + 1j, "0.1234568,1.0", True),
        (0.12345665 + 1j, "0.12345665,1", True),
        (0.1234568 + 1j, "0.1234567,1", False),
        # Six significant digits match none of the three points.
        (0.1234567 + 1j, "0.123457,1", False),
        (0.1234568 + 1j, "0.123457,1", False),
        (0.12345665 + 1j, "0.123457,1", False),
    ]:
        cfg = ExperimentConfig(experiment="equivalence", model="iid-gauss", p=16,
                               n=32, trials=1, seed=0, zs=(z,))
        rules = [{"name": "z", "experiment": "equivalence", "when": {"z": rule_z},
                  "metric": "abs_gap_median", "op": "<=", "value": 10.0}]
        checks = evaluate_thresholds(cfg, {"abs_gap_median": 0.0}, rules)
        assert [c["pass"] for c in checks] == ([True] if matches else []), (z, rule_z)


def test_threshold_hetero_matches_joined_pattern_and_multi_z_matches_no_z():
    rules = [
        {"name": "hetero", "experiment": "equivalence",
         "when": {"hetero": "identity;toeplitz:0.5"},
         "metric": "abs_gap_median", "op": "<=", "value": 10.0},
        {"name": "z", "experiment": "equivalence", "when": {"z": "0,1"},
         "metric": "abs_gap_median", "op": "<=", "value": 10.0},
    ]
    hetero = ExperimentConfig(experiment="equivalence", model="iid-gauss", p=16, n=32,
                              hetero=("identity", "toeplitz:0.5"))
    two_z = ExperimentConfig(experiment="equivalence", model="iid-gauss", p=16, n=32,
                             zs=(1j, 2j))
    metrics = {"abs_gap_median": 0.0}
    # A config without zs reads at the default point 0,1, so the z rule matches too.
    assert [c["name"] for c in evaluate_thresholds(hetero, metrics, rules)] == ["hetero", "z"]
    assert evaluate_thresholds(two_z, metrics, rules) == []


def test_bad_threshold_files_rejected(tmp_path):
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(InvalidInputError):
        load_threshold_rules(str(garbled))
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"version": 1}))
    with pytest.raises(InvalidInputError):
        load_threshold_rules(str(wrong_shape))
    bad_op = tmp_path / "op.json"
    bad_op.write_text(json.dumps({"rules": [
        {"experiment": "esd", "metric": "ks_mean", "op": "~=", "value": 1}
    ]}))
    with pytest.raises(InvalidInputError):
        load_threshold_rules(str(bad_op))
    non_finite = tmp_path / "inf.json"
    non_finite.write_text(
        '{"rules": [{"experiment": "esd", "metric": "ks_mean", "op": "<=", "value": Infinity}]}'
    )
    with pytest.raises(InvalidInputError):
        load_threshold_rules(str(non_finite))
    # Rules that could never be graded as written: each is refused on load,
    # before any trial runs, where it would crash after the trials or match
    # nothing and pass vacuously.
    sound = {"experiment": "esd", "when": {"model": "iid-gauss"}, "metric": "ks_mean",
             "op": "<=", "value": 1}
    # The z cases key on equivalence, the experiment that reads z.
    swap = {"experiment": "equivalence"}
    for bad in ({"when": [1]}, {"when": {"modle": "iid-gauss"}}, {"experiment": "edd"},
                {"metric": ["ks_mean"]}, {"value": "x"}, {"value": True},
                {**swap, "when": {"z": "0"}}, {**swap, "when": {"z": "0,1,2"}},
                {**swap, "when": {"z": "0;1"}}, {**swap, "when": {"z": [0, 1]}},
                {**swap, "when": {"z": 1}}):
        path = tmp_path / "rule.json"
        path.write_text(json.dumps({"rules": [dict(sound, **bad)]}))
        with pytest.raises(InvalidInputError):
            load_threshold_rules(str(path))
    path.write_text(json.dumps({"rules": [
        sound, dict(sound, **swap, when={"z": "0,1", "hetero": None})]}))
    assert len(load_threshold_rules(str(path))) == 2


def test_malformed_rule_is_exit_2_before_any_trial(tmp_path, capsys, monkeypatch):
    rules = tmp_path / "rules.json"
    monkeypatch.setattr("mplab.cli.experiments._run_trials", None)  # any trial would crash
    # timing is no config field, so no rule may key on it.  The z rule keys
    # on equivalence, which reads z; any rule in the file stops the esd run.
    for experiment, when, named in [("esd", {"modle": "iid-gauss"}, "modle"),
                                    ("esd", {"timing": False}, "timing"),
                                    ("equivalence", {"z": "0;1"}, "z must be")]:
        rules.write_text(json.dumps({"rules": [
            {"experiment": experiment, "when": when, "metric": "ks_mean", "op": "<=",
             "value": 1}]}))
        code, out, err = run_main(["esd", "--model", "iid-gauss", "--p", "8", "--n", "8",
                                   "--thresholds", str(rules)], capsys)
        assert code == 2 and named in err and out == ""
    rules.write_text(json.dumps({"rules": [
        {"experiment": "esd", "when": {"modle": "iid-gauss"}, "metric": "ks_mean",
         "op": "<=", "value": 1}]}))
    # Rules handed to the library are checked the same way.
    cfg = ExperimentConfig(experiment="esd", model="iid-gauss", p=8, n=8)
    with pytest.raises(InvalidInputError, match="modle"):
        run_experiment(cfg, json.loads(rules.read_text())["rules"])


def _described_config(rule: dict, **fields) -> ExperimentConfig:
    """The config a rule's ``when`` describes, small values filling its open required fields."""
    fill = {"model": "iid-gauss", "p": 8, "n": 8, "q": 4}
    when = dict(rule.get("when", {}), **fields)
    if "z" in when:
        when["zs"] = (when.pop("z"),)
    if "hetero" in when:
        when["hetero"] = tuple(when["hetero"].split(";"))
    required = EXPERIMENTS[rule["experiment"]].required
    return ExperimentConfig(experiment=rule["experiment"],
                            **{k: fill[k] for k in required if k not in when}, **when)


def test_every_packaged_rule_matches_the_config_it_describes():
    # The rule must grade the config its ``when`` describes (no trials run).
    for rule in load_threshold_rules():
        checks = evaluate_thresholds(_described_config(rule), {}, [rule])
        assert [c["name"] for c in checks] == [rule["name"]]


_STANDARD_GAUSSIAN = ("iid-gauss", "gauss-cov:identity")
_STANDARD_GAUSSIAN_RULES = ["esd-gauss-mean-ks", "projected-gauss-haar-close",
                            "swap-hetero-alternating", "quadform-gauss-identity-concentrates"]


def test_standard_gaussian_rules_are_the_listed_ones():
    rules = load_threshold_rules()
    named = {r["name"] for r in rules if r.get("when", {}).get("model") in _STANDARD_GAUSSIAN}
    assert named == set(_STANDARD_GAUSSIAN_RULES)


@pytest.mark.parametrize("name", _STANDARD_GAUSSIAN_RULES)
def test_both_standard_gaussian_spellings_get_the_same_checks(name):
    # A rule compares the law a model spec names, not its text: the config a
    # standard-Gaussian rule describes is graded alike under either spelling.
    rules = load_threshold_rules()
    (rule,) = [r for r in rules if r["name"] == name]
    checks = [evaluate_thresholds(_described_config(rule, model=model), {}, rules)
              for model in _STANDARD_GAUSSIAN]
    assert checks[0] == checks[1] and name in {c["name"] for c in checks[0]}


@pytest.mark.parametrize("when, matches", [
    ({"model": "gauss-cov:spiked:1,2048"}, True),
    ({"model": "gauss-cov:spiked:1,2048.0"}, True),
    ({"model": " gauss-cov:spiked:1,2048"}, True),
    ({"model": "gauss-cov:spiked:1,2047"}, False),
    ({"family": "haar-proj:3"}, True),
    ({"family": "haar-proj:03"}, True),
    ({"family": None}, False),
])
def test_spec_values_compare_as_parsed_laws(when, matches):
    cfg = ExperimentConfig(experiment="conditions", model="gauss-cov:spiked:1,2048.0", p=8,
                           family="haar-proj:3")
    rules = [{"name": "r", "experiment": "conditions", "when": when,
              "metric": "exceed_freq", "op": "<=", "value": 1.0}]
    assert len(evaluate_thresholds(cfg, {"exceed_freq": 0.0}, rules)) == int(matches)


def test_swap_spec_values_compare_as_parsed_laws():
    cfg = ExperimentConfig(experiment="equivalence", model="iid-gauss", p=8, n=16,
                           b_spec="id:0.5", c_spec="const:1", hetero=("identity", "toeplitz:0.5"))
    metrics = {"abs_gap_median": 0.0}
    for when, matches in [
        ({"b_spec": "id:.5", "c_spec": "const:1.0", "hetero": "identity;toeplitz:.50"}, True),
        ({"model": "gauss-cov:identity", "hetero": "gauss-cov:identity;toeplitz:0.5"}, None),
        ({"hetero": ["identity", "toeplitz:0.5"]}, None),
        ({"hetero": 1}, None),
        ({"b_spec": "id:0.25"}, False),
        ({"hetero": "identity"}, False),
        ({"hetero": None}, False),
        ({"c_spec": None}, False),
    ]:
        rules = [{"name": "r", "experiment": "equivalence", "when": when,
                  "metric": "abs_gap_median", "op": "<=", "value": 1.0}]
        if matches is None:  # a spec that does not parse is refused, not left matching nothing
            with pytest.raises(InvalidInputError, match="hetero"):
                evaluate_thresholds(cfg, metrics, rules)
        else:
            assert len(evaluate_thresholds(cfg, metrics, rules)) == int(matches), when


def test_offset_parsers_load_only_for_a_rule_that_names_an_offset():
    script = (
        "import sys\n"
        "from mplab.cli.config import ExperimentConfig\n"
        "from mplab.cli.experiments import evaluate_thresholds, load_threshold_rules\n"
        "cfg = ExperimentConfig(experiment='esd', model='iid-gauss', p=4, n=4)\n"
        "evaluate_thresholds(cfg, {}, load_threshold_rules())\n"
        "assert 'mplab.equivalence' not in sys.modules\n"
        "rule = {'experiment': 'equivalence', 'when': {'b_spec': 'id:1'}, 'metric': 'm',\n"
        "        'op': '<=', 'value': 1}\n"
        "evaluate_thresholds(cfg, {}, [rule])\n"
        "assert 'mplab.equivalence' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_source_env(), check=False)
    assert proc.returncode == 0, proc.stderr.decode()


#: Every experiment with every rule key it does not read: the unread fields, and z.
_UNREAD_KEYS = _UNREAD + [(name, "z") for name, row in EXPERIMENTS.items()
                          if "zs" not in row.fields]


@pytest.mark.parametrize("experiment, key", _UNREAD_KEYS, ids=["-".join(c) for c in _UNREAD_KEYS])
def test_rule_keyed_on_what_its_experiment_does_not_read_is_exit_2(experiment, key, tmp_path,
                                                                   capsys, monkeypatch):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [
        {"experiment": experiment, "when": {key: 4}, "metric": "m", "op": "<=", "value": 1}]}))
    monkeypatch.setattr("mplab.cli.experiments._run_trials", None)  # any trial would crash
    out = tmp_path / "rows.csv"
    code, stdout, err = run_main(["law-tables", "--thresholds", str(rules), "--out", str(out)],
                                 capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert "(%s reads no %s)" % (experiment, key) in err


#: Each experiment's required flags only, as flags and as config fields.
_MINIMAL_RUNS = [
    ("esd", {"model": "iid-gauss", "p": 8, "n": 16}),
    ("conditions", {"model": "iid-gauss", "p": 8}),
    ("mp-property", {"model": "iid-gauss", "p": 8, "n": 16, "q": 4}),
    ("equivalence", {"model": "iid-rademacher", "p": 8, "n": 16}),
    ("law-tables", {}),
    ("facts", {}),
]

#: One rule per experiment, keyed on the values a minimal run leaves to the table.
_DEFAULT_KEYED_RULES = [
    ("esd", {"trials": 8, "seed": 0}, "ks_mean"),
    ("conditions", {"stat": "quadform", "family": "identity", "eps": 0.5}, "exceed_freq"),
    ("mp-property", {"frame": "haar"}, "ks_mean"),
    ("equivalence", {"z": "0,1"}, "abs_gap_median"),
    ("law-tables", {"rhos": [0.1, 0.5, 1.0, 2.0, 4.0]}, "mass_err_max"),
    ("facts", {"p": 40}, "violations_total"),
]


@pytest.mark.parametrize("experiment, fields", _MINIMAL_RUNS, ids=[e for e, _ in _MINIMAL_RUNS])
def test_library_and_cli_runs_of_the_same_input_agree(experiment, fields, tmp_path, capsys):
    rules = [{"name": "defaults-" + exp, "experiment": exp, "when": when, "metric": metric,
              "op": ">=", "value": 0} for exp, when, metric in _DEFAULT_KEYED_RULES]
    path = tmp_path / "rules.json"
    path.write_text(json.dumps({"rules": rules}))
    out = tmp_path / "cli.csv"
    argv = [experiment, *(a for k, v in fields.items() for a in ("--" + k, str(v)))]
    code, summary, _ = run_main([*argv, "--thresholds", str(path), "--out", str(out)], capsys)

    result = run_experiment(ExperimentConfig(experiment=experiment, **fields), rules)
    report = io.StringIO()
    write_report(result.records, report, "csv")
    assert out.read_text() == report.getvalue()
    assert json.loads(summary) == json.loads(json.dumps(result.summary))
    assert [c["name"] for c in result.summary["thresholds"]] == ["defaults-" + experiment]
    assert code == 0


def test_null_metric_fails_its_rule():
    cfg = ExperimentConfig(experiment="conditions", model="iid-gauss", p=8,
                           stat="lindeberg", eps=0.5, trials=2, seed=0)
    rules = [{"name": "dev", "experiment": "conditions", "when": {},
              "metric": "tail_dev_from_one_sigmas", "op": "<=", "value": 4.0}]
    checks = evaluate_thresholds(cfg, {"tail_dev_from_one_sigmas": None}, rules)
    assert [c["pass"] for c in checks] == [False]


# ---------------------------------------------------------------------------
# argument parsing


def test_parser_builds_expected_config():
    args = build_parser().parse_args(
        ["esd", "--model", "iid-gauss", "--p", "64", "--n", "128",
         "--trials", "3", "--seed", "2"]
    )
    cfg = config_from_args(args)
    assert cfg == ExperimentConfig(experiment="esd", model="iid-gauss", p=64,
                                   n=128, trials=3, seed=2)


def test_parser_equivalence_z_values():
    args = build_parser().parse_args(
        ["equivalence", "--model", "iid-gauss", "--p", "16", "--n", "32",
         "--z", "0.5,1", "--z", "0,2"]
    )
    cfg = config_from_args(args)
    assert cfg.zs == (0.5 + 1j, 2j)


@pytest.mark.parametrize("argv, expected", [
    (["conditions", "--model", "block-xi", "--p", "8"],
     ExperimentConfig(experiment="conditions", model="block-xi", p=8,
                      stat="quadform", family="identity", eps=0.5)),
    (["conditions", "--model", "gauss-cov:identity", "--p", "8", "--stat", "chebyshev",
      "--family", "haar-proj:4", "--eps", "0.25"],
     ExperimentConfig(experiment="conditions", model="gauss-cov:identity", p=8,
                      stat="chebyshev", family="haar-proj:4", eps=0.25)),
    (["mp-property", "--model", "iid-gauss", "--p", "8", "--n", "16", "--q", "4"],
     ExperimentConfig(experiment="mp-property", model="iid-gauss", p=8, n=16, q=4,
                      frame="haar")),
    (["equivalence", "--model", "iid-gauss", "--p", "8", "--n", "16",
      "--z", "0.5,1", "--z", "0,2", "--b", "psd:3", "--c", "const:1.0",
      "--hetero", "identity", "--hetero", "toeplitz:0.5"],
     ExperimentConfig(experiment="equivalence", model="iid-gauss", p=8, n=16,
                      zs=(0.5 + 1j, 2j), b_spec="psd:3", c_spec="const:1.0",
                      hetero=("identity", "toeplitz:0.5"), eps=None)),
    (["law-tables", "--rho", "0.5", "--rho", "2", "--trials", "3", "--seed", "9"],
     ExperimentConfig(experiment="law-tables", rhos=(0.5, 2.0), trials=3, seed=9)),
    (["law-tables"], ExperimentConfig(experiment="law-tables")),
    (["facts"], ExperimentConfig(experiment="facts", p=40)),
    (["facts", "--p-max", "10"], ExperimentConfig(experiment="facts", p=10)),
])
def test_flags_map_to_config_fields(argv, expected):
    assert config_from_args(build_parser().parse_args(argv)) == expected


def test_every_flag_sets_a_config_field_or_the_front_end():
    # config_from_args keeps only dests that name a config field, so a
    # misnamed dest would be dropped silently.
    front_end = {"out", "format", "profile", "thresholds", "no_thresholds", "dump_matrix",
                 "dump_esd", "help"}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    set_by_flags = {sub.dest}
    for name, subparser in sub.choices.items():
        dests = {a.dest for a in subparser._actions}
        assert dests <= fields | front_end, (name, dests - fields - front_end)
        # The experiment's row lists exactly the fields its flags set.
        assert dests & fields == {*COMMON, *EXPERIMENTS[name].fields}, name
        set_by_flags |= dests & fields
        # The experiment table, not argparse, decides what is required and
        # what an unset field takes.
        assert {a.dest for a in subparser._actions if a.required} == set(
            EXPERIMENTS[name].required)
        assert {a.dest: a.default for a in subparser._actions
                if a.dest in fields and a.default is not None} == {}
    assert set_by_flags == fields


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_prints_its_help(experiment, capsys):
    with pytest.raises(SystemExit) as exc:
        main([experiment, "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: mplab %s " % experiment)
    for field in EXPERIMENTS[experiment].fields:
        assert FLAGS.get((experiment, field), FLAGS[field])[0] + " " in out


@pytest.mark.parametrize("experiment, fields", _MINIMAL_RUNS, ids=[e for e, _ in _MINIMAL_RUNS])
def test_timing_flag_is_a_usage_error(experiment, fields, capsys):
    argv = [experiment, *(a for k, v in fields.items() for a in ("--" + k, str(v)))]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--timing"])
    assert exc.value.code == 2 and "--timing" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# main(): exit codes and streams


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_stdout_records_stderr_summary(capsys):
    code, out, err = run_main(
        ["esd", "--model", "iid-gauss", "--p", "32", "--n", "64",
         "--trials", "3", "--no-thresholds"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4  # header + one row per trial
    assert lines[0] == ",".join(COLUMNS)
    summary = json.loads(err)
    assert summary["experiment"] == "esd" and summary["trials"] == 3


def test_main_out_file_and_summary_stdout(tmp_path, capsys):
    path = tmp_path / "rows.json"
    code, out, err = run_main(
        ["esd", "--model", "iid-gauss", "--p", "32", "--n", "64", "--trials", "2",
         "--out", str(path), "--format", "json", "--no-thresholds"],
        capsys,
    )
    assert code == 0 and err == ""
    with open(path, encoding="utf-8") as fh:
        rows = json.load(fh)
    assert len(rows) == 2
    summary = json.loads(out)
    assert summary["pass"] is True


def test_main_exit_codes_for_bad_input(capsys):
    code, _, err = run_main(
        ["esd", "--model", "iid-bogus", "--p", "8", "--n", "8"], capsys
    )
    assert code == 2 and "iid-bogus" in err
    code, _, err = run_main(
        ["esd", "--model", "iid-gauss", "--p", "8192", "--n", "8"], capsys
    )
    assert code == 2 and "4096" in err
    code, _, err = run_main(
        ["conditions", "--model", "iid-rademacher", "--p", "8", "--stat", "chebyshev"],
        capsys,
    )
    assert code == 2 and "gauss-cov" in err


def test_main_missing_thresholds_file_is_exit_2(tmp_path, capsys):
    code, _, err = run_main(
        ["esd", "--model", "iid-gauss", "--p", "16", "--n", "16",
         "--thresholds", str(tmp_path / "nope.json")],
        capsys,
    )
    assert code == 2 and "error:" in err


def test_main_threshold_failure_is_exit_1(tmp_path, capsys):
    rules = {"version": 1, "rules": [
        {"name": "impossible", "experiment": "esd", "when": {},
         "metric": "ks_mean", "op": "<=", "value": 1e-12}
    ]}
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(rules))
    code, out, err = run_main(
        ["esd", "--model", "iid-gauss", "--p", "16", "--n", "32",
         "--trials", "2", "--thresholds", str(path)],
        capsys,
    )
    assert code == 1
    summary = json.loads(err)
    assert summary["pass"] is False
    assert summary["thresholds"][0]["name"] == "impossible"


def test_main_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    argv = ["esd", "--model", "iid-rademacher", "--p", "48", "--n", "96",
            "--trials", "6", "--seed", "21", "--no-thresholds"]
    paths = []
    for run, threads in enumerate(("1", "4")):
        monkeypatch.setenv("MPLAB_THREADS", threads)
        path = tmp_path / f"run{run}.csv"
        assert main(argv + ["--out", str(path)]) == 0
        paths.append(path)
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("p, n", [("128", "256"), ("256", "128")])
def test_sparse_esd_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, p, n):
    # sparse-spike Grams are formed from their nonzeros and solved block by
    # block; neither step may depend on which worker runs the trial.
    argv = ["esd", "--model", "sparse-spike", "--p", p, "--n", n,
            "--trials", "6", "--seed", "8", "--no-thresholds"]
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("MPLAB_THREADS", threads)
        path = tmp_path / f"t{threads}.csv"
        assert main(argv + ["--out", str(path)]) == 0
        outputs.append((path.read_bytes(), capsys.readouterr().err))
    assert outputs[0] == outputs[1]


def test_main_facts_experiment_passes(capsys):
    code, out, err = run_main(["facts", "--trials", "60", "--p-max", "12"], capsys)
    assert code == 0
    summary = json.loads(err)
    assert summary["metrics"]["violations_total"] == 0


def test_main_facts_rejects_dimension_cap_below_two(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code, stdout, err = run_main(["facts", "--trials", "2", "--p-max", "1",
                                  "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_main_law_tables_single_rho(capsys):
    code, out, err = run_main(["law-tables", "--rho", "0.5", "--no-thresholds"], capsys)
    assert code == 0
    summary = json.loads(err)
    assert summary["metrics"]["mass_err_max"] < 1e-8
    assert summary["metrics"]["stieltjes_gap_max"] < 1e-8


@pytest.mark.parametrize("rho", [1e-20, 1e-30])
def test_law_tables_quadratures_exact_at_tiny_rho(rho):
    # b - a has relative error about eps / sqrt(rho) here, so the cdf and
    # Stieltjes quadratures take the width as 4 sqrt(rho); the moments are
    # closed forms.  The total_mass row evaluates density, whose
    # (b - x)(x - a) cannot resolve the support in float64, so it is not
    # among these.
    cfg = ExperimentConfig(experiment="law-tables", rhos=(rho,))
    metrics = run_experiment(cfg, rules=[]).summary["metrics"]
    for name in ("cdf_err_max", "moment1_err_max", "stieltjes_gap_max"):
        assert metrics[name] <= 1e-12, (name, metrics[name])


def test_main_dump_matrix_writes_file(tmp_path, capsys):
    mpath = tmp_path / "cov.bin"
    code, _, _ = run_main(
        ["esd", "--model", "iid-gauss", "--p", "12", "--n", "16", "--trials", "1",
         "--dump-matrix", str(mpath), "--no-thresholds"],
        capsys,
    )
    assert code == 0
    m = read_matrix_dump(str(mpath))
    assert m.shape == (12, 12)


def test_main_dump_esd_of_iid_gauss_is_what_trial_zero_grades(tmp_path, capsys):
    # A standard Gaussian trial draws its Gram in law, with no X: the dumped
    # ESD is still the spectrum that trial 0 graded, so its KS distance is
    # the report's first record, bit for bit.
    epath, report = tmp_path / "esd.csv", tmp_path / "report.csv"
    code, _, _ = run_main(
        ["esd", "--model", "iid-gauss", "--p", "64", "--n", "128", "--trials", "2",
         "--seed", "4", "--out", str(report), "--dump-esd", str(epath), "--no-thresholds"],
        capsys,
    )
    assert code == 0
    with open(report) as fh:
        record = read_records(fh, "csv")[0]
    with open(epath) as fh:
        assert fh.readline() == "eigenvalue\n"
        dumped = Spectrum(np.loadtxt(fh, ndmin=1))
    assert dumped.p == 64 and record.trial == 0
    assert ks_distance(dumped, MPLaw(0.5)) == record.value


def _strict_json(text: str):
    def reject(name: str):
        raise ValueError("non-finite constant %s" % name)

    return json.loads(text, parse_constant=reject)


def test_main_summary_is_strict_json_with_null_reason(tmp_path, capsys):
    # No draw exceeds a cut of 100 sqrt(p): every tail mass is 0, the standard
    # error is 0 and the deviation from one in sigmas is infinite.
    rules = {"rules": [{"name": "dev", "experiment": "conditions", "when": {},
                        "metric": "tail_dev_from_one_sigmas", "op": "<=", "value": 4.0}]}
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(rules))
    code, out, err = run_main(
        ["conditions", "--model", "iid-gauss", "--p", "8", "--stat", "lindeberg",
         "--eps", "100", "--trials", "3", "--thresholds", str(path)],
        capsys,
    )
    assert code == 1
    summary = _strict_json(err)
    metrics = summary["metrics"]
    assert metrics["tail_se"] == 0.0
    assert metrics["tail_dev_from_one_sigmas"] is None
    assert "inf" in metrics["tail_dev_from_one_sigmas_reason"]
    assert summary["thresholds"][0]["observed"] is None
    assert summary["pass"] is False


@pytest.mark.parametrize(
    "argv, se_name",
    [
        (["esd", "--model", "iid-gauss", "--p", "8", "--n", "16"], "ks_se"),
        (["conditions", "--model", "sparse-spike", "--p", "8", "--stat", "lindeberg",
          "--eps", "0.5"], "tail_se"),
        (["conditions", "--model", "iid-gauss", "--p", "8", "--stat", "quadform",
          "--eps", "0.5"], "exceed_se"),
        (["conditions", "--model", "iid-gauss", "--p", "8", "--stat", "norm-drift",
          "--eps", "0.5"], "within_se"),
        (["conditions", "--model", "gauss-cov:identity", "--p", "8", "--stat", "chebyshev",
          "--eps", "0.5"], "exceed_se"),
    ],
)
def test_main_single_trial_has_no_standard_error(argv, se_name, capsys):
    # One draw shows no spread: conditions.standard_error is inf, and the CLI
    # reports it as null with a reason, whatever the statistic.
    code, _, err = run_main(argv + ["--trials", "1", "--no-thresholds"], capsys)
    assert code == 0
    metrics = _strict_json(err)["metrics"]
    assert metrics[se_name] is None and "inf" in metrics[se_name + "_reason"]
    if se_name == "tail_se":
        assert metrics["tail_dev_from_one_sigmas"] is None
        assert metrics["tail_dev_from_one_sigmas_reason"]
    if "chebyshev" in argv:
        assert metrics["slack"] is None and "inf" in metrics["slack_reason"]


_BAD_EPS = ("0", "-1", "nan", "inf")
_COND = ["conditions", "--model", "gauss-cov:identity", "--p", "8"]
_EQ = ["equivalence", "--model", "iid-gauss", "--p", "8", "--n", "8"]


@pytest.mark.parametrize(
    "argv",
    [
        *(pytest.param([*_COND, "--stat", stat, "--eps", eps], id=f"{stat}-eps={eps}")
          for stat in ("quadform", "lindeberg", "norm-drift", "chebyshev") for eps in _BAD_EPS),
        *(pytest.param([*_EQ, "--eps", eps], id=f"equivalence-eps={eps}") for eps in _BAD_EPS),
        *(pytest.param([*_EQ, "--z", z], id=f"equivalence-z={z}") for z in ("nan,1", "0,inf")),
        *(pytest.param([*_EQ, flag, spec], id=f"equivalence{flag}={spec}")
          for flag, spec in (("--b", "psd:-1"), ("--b", "id:nan"), ("--b", "id:inf"),
                             ("--c", "const:nan"))),
        *(pytest.param([*_COND, "--family", "sq-resolvent:" + z, "--eps", "0.5"],
                       id=f"quadform-family=sq-resolvent:{z}") for z in ("nan,1", "0,inf")),
        pytest.param([*_COND, "--stat", "chebyshev", "--family", "sq-resolvent:0,1e-200",
                      "--eps", "0.5"], id="chebyshev-family=sq-resolvent:0,1e-200"),
    ],
)
def test_main_rejects_non_finite_or_non_positive_eps_and_z(argv, tmp_path, capsys):
    # Rejected while the config is built: no trial runs and no report is written.
    out = tmp_path / "rows.csv"
    code, stdout, err = run_main(argv + ["--trials", "2", "--out", str(out)], capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("family", ["identity", "fixed-half", "random-psd", "haar-proj:3"])
def test_chebyshev_report_is_the_quadform_report(family, tmp_path, capsys):
    # chebyshev runs the quadform trials; only its summary adds the bound.
    paths, summaries = {}, {}
    for stat in ("quadform", "chebyshev"):
        paths[stat] = tmp_path / f"{stat}.csv"
        code, out, _ = run_main(
            ["conditions", "--model", "gauss-cov:toeplitz:0.4", "--p", "12", "--stat", stat,
             "--family", family, "--eps", "0.3", "--trials", "6", "--seed", "3",
             "--out", str(paths[stat])],
            capsys,
        )
        assert code == 0
        summaries[stat] = _strict_json(out)
    assert paths["quadform"].read_bytes() == paths["chebyshev"].read_bytes()
    quad, cheb = summaries["quadform"]["metrics"], summaries["chebyshev"]["metrics"]
    assert {k: cheb[k] for k in quad} == quad
    assert set(cheb) - set(quad) == {"bound", "slack"}
    assert cheb["slack"] == cheb["bound"] + 4.0 * cheb["exceed_se"] - cheb["exceed_freq"]
    assert summaries["chebyshev"]["trials"] == 6


_SPELLED = {
    "esd": ["esd", "--p", "12", "--n", "20"],
    "mp-property-haar": ["mp-property", "--p", "12", "--n", "20", "--q", "6", "--frame", "haar"],
    "mp-property-fixed-half": ["mp-property", "--p", "12", "--n", "20", "--q", "6",
                               "--frame", "fixed-half"],
    "equivalence": ["equivalence", "--p", "8", "--n", "16"],
    "equivalence-id": ["equivalence", "--p", "8", "--n", "16", "--b", "id:0.5"],
    "equivalence-hetero": ["equivalence", "--p", "8", "--n", "16",
                           "--hetero", "identity", "--hetero", "toeplitz:0.5"],
    "lindeberg": ["conditions", "--p", "12", "--stat", "lindeberg"],
    "quadform": ["conditions", "--p", "12", "--stat", "quadform", "--family", "random-psd"],
    "chebyshev": ["conditions", "--p", "12", "--stat", "chebyshev", "--family", "random-psd"],
    "norm-drift": ["conditions", "--p", "12", "--stat", "norm-drift"],
}


@pytest.mark.parametrize("argv", _SPELLED.values(), ids=_SPELLED.keys())
def test_both_standard_gaussian_spellings_run_alike(argv, tmp_path, capsys):
    # iid-gauss and gauss-cov:identity parse to one model: every experiment
    # exits alike and writes the same records and summary, but for the model
    # string each carries as given.
    runs = []
    for model in ("iid-gauss", "gauss-cov:identity"):
        out = tmp_path / f"{model}.json"
        code, summary, _ = run_main([*argv, "--model", model, "--trials", "3", "--seed", "5",
                                     "--format", "json", "--out", str(out)], capsys)
        records, summary = json.loads(out.read_text()), json.loads(summary)
        assert {r.pop("model") for r in records} == {summary["config"].pop("model")} == {model}
        runs.append((code, records, summary))
    assert runs[0] == runs[1] and runs[0][0] == 0


def test_main_rejects_a_point_the_offset_shifts_to_infinity(tmp_path, capsys):
    # z - beta overflows: refused with the config, naming the point and the
    # offset as given, before any trial runs, and no report is written.
    out = tmp_path / "rows.csv"
    code, stdout, err = run_main([*_EQ, "--b", "id:-1e308", "--z=1e308,1", "--out", str(out)],
                                 capsys)
    assert code == 2 and stdout == "" and not out.exists()
    assert err == "error: resolvent point (1e+308+1j) shifted by offset id:-1e+308 is not finite\n"


def test_package_import_loads_only_the_named_module():
    # The package re-exports nothing: importing it costs no numpy, and one
    # module loads only what that module itself imports.
    script = (
        "import sys\n"
        "import mplab\n"
        "assert 'numpy' not in sys.modules, 'import mplab'\n"
        "import mplab.mp_law\n"
        "others = ['mplab.' + m for m in ('ensembles', 'spectra', 'conditions',\n"
        "                                  'equivalence', 'identities', 'cli')]\n"
        "loaded = [m for m in others if m in sys.modules]\n"
        "assert loaded == [], loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mplab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          check=False)
    assert proc.returncode == 0, proc.stderr.decode()


def test_main_norm_drift_rejects_non_isotropic_model(capsys):
    code, out, err = run_main(
        ["conditions", "--model", "gauss-cov:spiked:1,64", "--p", "64",
         "--stat", "norm-drift", "--trials", "2"],
        capsys,
    )
    assert code == 2 and "isotropic" in err and out == ""


def test_cli_import_and_esd_run_leave_scipy_unloaded(tmp_path):
    # The Gauss-Legendre nodes of the law's quadratures are built on first
    # use, so an esd run does not load numpy.polynomial either.
    script = (
        "import sys\n"
        "import mplab.cli\n"
        "assert 'scipy' not in sys.modules, 'import'\n"
        "code = mplab.cli.main(['esd', '--model', 'iid-gauss', '--p', '8', '--n', '8',\n"
        "                       '--trials', '2', '--out', 'rows.csv'])\n"
        "assert code in (0, 1), code\n"
        "assert 'scipy' not in sys.modules, 'esd run'\n"
        "assert 'numpy.polynomial' not in sys.modules, 'esd run'\n"
        "assert mplab.cli.main(['law-tables', '--out', 'law.csv']) == 0\n"
        "assert 'scipy' not in sys.modules, 'law-tables run'\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mplab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=env, cwd=str(tmp_path), check=False)
    assert proc.returncode == 0, proc.stderr.decode()
    assert (tmp_path / "rows.csv").exists()
    assert (tmp_path / "law.csv").exists()


@pytest.mark.parametrize("argv", [
    ["law-tables"],
    ["esd", "--model", "iid-gauss", "--p", "16", "--n", "32", "--trials", "2"],
], ids=["law-tables", "esd"])
def test_runs_need_no_scipy(tmp_path, argv):
    # None in sys.modules makes every import of scipy raise ImportError.
    script = (
        "import sys\n"
        "if sys.argv[1] == 'blocked':\n"
        "    sys.modules['scipy'] = None\n"
        "import mplab.cli\n"
        "sys.exit(mplab.cli.main(sys.argv[2:]))\n"
    )
    runs = []
    for mode in ("blocked", "open"):
        cwd = tmp_path / mode
        cwd.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, mode, *argv, "--out", "r.csv"],
                              capture_output=True, env=_source_env(), cwd=str(cwd),
                              check=False)
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append((proc.stdout, proc.stderr, (cwd / "r.csv").read_bytes()))
    assert runs[0] == runs[1]


def _source_env(**overrides: str | None) -> dict[str, str]:
    """This environment with mplab importable from the tree under test.

    An override of None removes the variable.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(mplab.__file__)))
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _imported(args: list[str], code: int, cwd=None, **env: str | None) -> list[str]:
    """Every module ``python -X importtime <args>`` imported; it must exit with ``code``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          env=_source_env(**env), cwd=cwd, text=True, check=False)
    assert proc.returncode == code, proc.stderr
    return [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("args, code", [
    (["-c", "import mplab.cli"], 0),
    (["-m", "mplab.cli", "--help"], 0),
    (["-m", "mplab.cli", "esd", "--p", "8", "--n", "8"], 2),  # no --model: usage error
])
def test_cli_front_door_loads_no_numpy(args, code):
    # main pins BLAS before numpy loads, so parsing must not load it.
    imported = _imported(args, code)
    assert "mplab.cli" in imported
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []


def _script_target() -> str:
    """The ``mplab`` console-script target named in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "pyproject.toml")
    with open(path, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["mplab"]


_STRICT_RULES = {"version": 1, "rules": [
    {"name": "impossible", "experiment": "esd", "when": {},
     "metric": "ks_mean", "op": "<=", "value": 1e-12}
]}


@pytest.mark.parametrize("argv, code", [
    (["conditions", "--model", "sparse-spike", "--stat", "lindeberg", "--eps", "0.5",
      "--p", "16", "--trials", "5", "--seed", "1"], 0),
    (["esd", "--model", "iid-gauss", "--p", "16", "--n", "32", "--trials", "2",
      "--thresholds", "strict.json"], 1),
    (["esd", "--model", "iid-bogus", "--p", "8", "--n", "8"], 2),
])
def test_console_script_and_python_m_give_the_same_run(tmp_path, argv, code):
    # The script wrapper pip installs imports the target and exits with its result.
    module, _, func = _script_target().partition(":")
    launchers = {
        "python-m": [sys.executable, "-m", "mplab.cli"],
        "script": [sys.executable, "-c",
                   "import sys\nfrom %s import %s\nsys.exit(%s())" % (module, func, func)],
    }
    runs = []
    for name, head in launchers.items():
        cwd = tmp_path / name
        cwd.mkdir()
        (cwd / "strict.json").write_text(json.dumps(_STRICT_RULES))
        proc = subprocess.run([*head, *argv, "--out", "r.csv"], capture_output=True,
                              env=_source_env(), cwd=str(cwd), check=False)
        report = (cwd / "r.csv").read_bytes() if (cwd / "r.csv").exists() else None
        runs.append((proc.returncode, proc.stdout, proc.stderr, report))
    assert runs[0][0] == code, runs[0][2].decode()
    assert runs[1] == runs[0]


def test_run_freezes_the_heap_and_main_leaves_it(tmp_path, monkeypatch, capsys):
    argv = ["conditions", "--model", "iid-gauss", "--stat", "lindeberg", "--eps", "0.5",
            "--p", "8", "--trials", "2", "--out", "r.csv"]
    monkeypatch.chdir(tmp_path)
    frozen = gc.get_freeze_count()
    assert main(argv) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == frozen
    script = (
        "import gc, sys\n"
        "import mplab.cli\n"
        "sys.argv[1:] = %r\n"
        "assert mplab.cli.run() == 0\n"
        "assert gc.get_freeze_count() > 0\n" % (argv,)
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_source_env(), cwd=str(tmp_path), check=False)
    assert proc.returncode == 0, proc.stderr.decode()


#: Modules that only some runs need; each loads where it is first used.
_PER_EXPERIMENT = frozenset({"mplab.equivalence", "mplab.identities", "concurrent.futures"})


@pytest.mark.parametrize("argv, threads, loaded", [
    (["conditions", "--model", "sparse-spike", "--stat", "lindeberg", "--eps", "0.5",
      "--p", "8", "--trials", "3"], None, set()),
    (["esd", "--model", "iid-gauss", "--p", "8", "--n", "8", "--trials", "1"], None, set()),
    (["equivalence", "--model", "iid-rademacher", "--p", "8", "--n", "8", "--trials", "2"],
     "2", {"mplab.equivalence", "concurrent.futures"}),
    (["equivalence", "--model", "iid-rademacher", "--p", "8", "--n", "8", "--trials", "1",
      "--b", "psd:1"], None, {"mplab.equivalence"}),
    (["facts", "--p-max", "4", "--trials", "2"], None, {"mplab.identities"}),
], ids=["conditions-lindeberg", "esd-one-trial", "equivalence-pooled", "equivalence-psd-offset",
        "facts"])
def test_a_run_imports_only_what_its_experiment_uses(tmp_path, argv, threads, loaded):
    # Without MPLAB_THREADS, one-trial and one-vector runs do not pool.
    imported = set(_imported(["-m", "mplab.cli", *argv, "--out", "r.csv", "--no-thresholds"],
                             0, cwd=str(tmp_path), MPLAB_THREADS=threads))
    assert "mplab.cli.experiments" in imported
    assert imported & _PER_EXPERIMENT == loaded


@pytest.mark.parametrize("fields, loads", [
    ({}, False),
    ({"b_spec": "psd:1"}, True),
    ({"c_spec": "const:1.0"}, True),
])
def test_only_offset_configs_load_equivalence(fields, loads):
    script = (
        "import sys\n"
        "from mplab.cli.config import ExperimentConfig\n"
        "ExperimentConfig(experiment='equivalence', model='iid-gauss', p=4, n=4, **%r)\n"
        "assert ('mplab.equivalence' in sys.modules) == %r\n" % (fields, loads)
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          env=_source_env(), check=False)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize(
    "argv",
    [
        ["esd", "--model", "gauss-cov:spiked:5,2", "--p", "3", "--n", "8"],
        ["mp-property", "--model", "gauss-cov:spiked:5,2", "--p", "3", "--n", "8", "--q", "2"],
        ["equivalence", "--model", "gauss-cov:spiked:5,2", "--p", "3", "--n", "8"],
        ["conditions", "--model", "gauss-cov:spiked:5,2", "--p", "3", "--eps", "0.5"],
        ["equivalence", "--model", "iid-gauss", "--p", "3", "--n", "8",
         "--hetero", "spiked:5,2"],
    ],
    ids=["esd", "mp-property", "equivalence", "conditions", "equivalence-hetero"],
)
def test_main_oversized_spike_is_exit_2(argv, capsys):
    code, out, err = run_main(argv + ["--trials", "2"], capsys)
    assert code == 2 and "spike count 5 exceeds dimension 3" in err and out == ""


@pytest.mark.parametrize("cov", ["spiked:1,inf", "band:nan", "band:1,inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["conditions", "--model", "gauss-cov:{cov}", "--stat", "quadform", "--p", "8",
         "--eps", "0.5"],
        ["conditions", "--model", "gauss-cov:{cov}", "--stat", "lindeberg", "--p", "8",
         "--eps", "0.5"],
        ["equivalence", "--model", "iid-gauss", "--p", "8", "--n", "8", "--hetero", "{cov}"],
    ],
    ids=["quadform", "lindeberg", "equivalence-hetero"],
)
def test_main_nonfinite_covariance_spec_is_exit_2(argv, cov, capsys):
    # A non-finite spike is refused when the spec is parsed, before any trial
    # runs or warns; ``band`` is no covariance spec of the grammar.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_main([a.format(cov=cov) for a in argv] + ["--trials", "2"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("rho", ["1e40", "1e-40", "inf", "0"])
def test_main_law_tables_rho_without_a_law_is_exit_2(rho, tmp_path, capsys):
    # The config rejects exactly the aspect ratios MPLaw rejects, before any trial.
    with pytest.raises(DomainError):
        ExperimentConfig(experiment="law-tables", rhos=(float(rho),))
    path = tmp_path / "rows.csv"
    code, out, err = run_main(["law-tables", "--rho", "0.5", "--rho", rho,
                               "--out", str(path)], capsys)
    assert code == 2 and err.startswith("error: aspect ratio") and out == ""
    assert not path.exists()


@pytest.mark.parametrize(
    "stat, model, family",
    [("lindeberg", "weak-ma:1,0.5,0.2", None),
     ("quadform", "gauss-cov:toeplitz:0.5", "random-psd"),
     ("quadform", "iid-rademacher", "fixed-half")],
)
def test_conditions_records_match_library_trials(stat, model, family):
    # The CLI calls the library's per-trial statistic on trial t's stream.
    p, eps = 16, 0.5
    cfg = ExperimentConfig(experiment="conditions", model=model, p=p, eps=eps, stat=stat,
                           family=family, trials=3, seed=5)
    got = [r.value for r in run_experiment(cfg, rules=[]).records]
    m = parse_model_spec(model)
    expected = []
    for t in range(3):
        rng = derive_rng(5, EXPERIMENTS["conditions"].code, t)
        if stat == "lindeberg":
            expected.append(lindeberg_trial(m, p, eps, rng))
        else:
            # A fixed family's draw consumes no stream.
            fam = parse_family_spec(family)
            a = fam.draw(p, rng)
            expected.append(quadform_trial(m, a, quadform_sigma(m, fam, p), rng))
    assert got == expected
