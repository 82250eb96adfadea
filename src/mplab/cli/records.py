"""Flat per-trial result records and their on-disk encodings.

Every experiment run emits one row per trial in a single fixed schema so
downstream tooling never has to branch on the experiment type.  Numeric
cells are written with ``%.17g`` which round-trips IEEE doubles exactly,
and records are emitted in trial order, so a report produced from the
same config and seed is byte-identical run to run.  Where the time went
travels apart, in a ``--profile`` file.
"""

from __future__ import annotations

import csv
import json
import math
import platform
from dataclasses import dataclass, fields
from itertools import chain
from typing import IO, Iterable, NamedTuple

import numpy as np

from .. import __version__
from ..matcore import InvalidInputError, Spectrum

@dataclass(frozen=True, kw_only=True)
class TrialRecord:
    """One scalar observation from one trial of one experiment.

    Its fields, in order and with their types, are the columns of every report.
    """

    experiment: str
    trial: int
    seed: int
    model: str | None = None
    p: int | None = None
    n: int | None = None
    q: int | None = None
    eps: float | None = None
    rho: float | None = None
    z_re: float | None = None
    z_im: float | None = None
    b_spec: str | None = None
    c_spec: str | None = None
    statistic: str
    value: float
    value_im: float | None = None


class TrialTimes(NamedTuple):
    """Usable CPUs, trial workers, the rule that chose them, each trial's (wall ms, thread)."""

    cpus: int
    workers: int
    rule: str
    trials: list[tuple[float, str]]


#: Column order of every report, independent of experiment type.
COLUMNS = tuple(f.name for f in fields(TrialRecord))
_INT_COLS = frozenset(f.name for f in fields(TrialRecord) if f.type.startswith("int"))
_FLOAT_COLS = frozenset(f.name for f in fields(TrialRecord) if f.type.startswith("float"))


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError("report cells must be finite")
    return "%.17g" % x


def _csv_cell(name: str, value: object) -> str:
    if value is None:
        return ""
    if name in _FLOAT_COLS:
        return _fmt_float(value)  # type: ignore[arg-type]
    return str(value)


def _json_cell(name: str, value: object) -> str:
    if value is None:
        return "null"
    if name in _FLOAT_COLS:
        return _fmt_float(value)  # type: ignore[arg-type]
    if name in _INT_COLS:
        return str(int(value))  # type: ignore[call-overload]
    return json.dumps(value)


def write_records_csv(records: Iterable[TrialRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(COLUMNS)
    for rec in records:
        writer.writerow([_csv_cell(name, getattr(rec, name)) for name in COLUMNS])


def write_records_json(records: Iterable[TrialRecord], stream: IO[str]) -> None:
    # Emitted by hand, one object per line, so float formatting matches the
    # CSV path and the output stays streamable for large trial counts.
    stream.write("[")
    first = True
    for rec in records:
        cells = ", ".join(
            '"%s": %s' % (name, _json_cell(name, getattr(rec, name))) for name in COLUMNS
        )
        stream.write(("\n" if first else ",\n") + "  {" + cells + "}")
        first = False
    stream.write("\n]\n" if not first else "]\n")


def write_report(records: Iterable[TrialRecord], stream: IO[str], fmt: str) -> None:
    if fmt == "csv":
        write_records_csv(records, stream)
    elif fmt == "json":
        write_records_json(records, stream)
    else:
        raise InvalidInputError("unknown report format: %r" % (fmt,))


def emit_report(records: Iterable[TrialRecord], path: str, fmt: str) -> None:
    """Stream records to ``path``; refuses to write an empty report."""
    it = iter(records)
    try:
        first = next(it)
    except StopIteration:
        raise InvalidInputError("refusing to emit an empty report") from None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_report(chain([first], it), fh, fmt)


def write_profile(path: str, times: TrialTimes, run_s: float, write_s: float) -> None:
    """Strict-JSON lines: a header of versions and workers, one line per trial, a footer."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines = [{"mplab": __version__, "python": platform.python_version(), "numpy": np.__version__,
              "blas": blas.get("name"), "blas_version": blas.get("version"), "cpus": times.cpus,
              "workers": times.workers, "worker_rule": times.rule}]
    lines += ({"trial": idx, "wall_ms": ms, "thread": thread}
              for idx, (ms, thread) in enumerate(times.trials))
    lines.append({"run_experiment_s": run_s, "write_report_s": write_s})
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(line, allow_nan=False) + "\n" for line in lines)


def _from_row(row: dict[str, object]) -> TrialRecord:
    kwargs: dict[str, object] = {}
    for name in COLUMNS:
        value = row.get(name)
        if value is None or value == "":
            kwargs[name] = None
        elif name in _INT_COLS:
            kwargs[name] = int(value)  # type: ignore[call-overload]
        elif name in _FLOAT_COLS:
            kwargs[name] = float(value)  # type: ignore[arg-type]
        else:
            kwargs[name] = str(value)
    return TrialRecord(**kwargs)  # type: ignore[arg-type]


def read_records(stream: IO[str], fmt: str) -> list[TrialRecord]:
    if fmt == "csv":
        reader = csv.DictReader(stream)
        if reader.fieldnames is None or tuple(reader.fieldnames) != COLUMNS:
            raise InvalidInputError("report header does not match the record schema")
        return [_from_row(row) for row in reader]
    if fmt == "json":
        rows = json.load(stream)
        return [_from_row(row) for row in rows]
    raise InvalidInputError("unknown report format: %r" % (fmt,))


def write_matrix_dump(path: str, m: np.ndarray) -> None:
    """Raw binary dump: two little-endian uint64 dims, then row-major float64."""
    a = np.ascontiguousarray(np.asarray(m, dtype=np.float64))
    if a.ndim != 2:
        raise InvalidInputError("matrix dump requires a 2-d array")
    header = np.asarray(a.shape, dtype="<u8")
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(a.astype("<f8", copy=False).tobytes(order="C"))


def write_esd_csv(path: str, e: Spectrum) -> None:
    """Serialize an ESD as a one-column CSV of ascending eigenvalues."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eigenvalue"])
        for v in e.eigenvalues:
            writer.writerow([f"{float(v):.17g}"])


def read_matrix_dump(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise InvalidInputError("matrix dump is truncated")
    rows, cols = (int(v) for v in np.frombuffer(raw[:16], dtype="<u8"))
    body = np.frombuffer(raw[16:], dtype="<f8")
    if body.size != rows * cols:
        raise InvalidInputError("matrix dump payload does not match its header")
    return body.reshape(rows, cols).copy()
