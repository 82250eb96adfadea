"""Command-line front end: ``mplab <experiment> [flags]``.

Records go to ``--out`` (or stdout) in the fixed trial-record schema; the
run summary, including pass/fail against the acceptance thresholds table,
is printed as JSON.  The exit code is 0 exactly when every matched
threshold rule passes.

Importing this package loads no numpy; ``main`` pins BLAS before it does.
``run`` is the console entry point: ``main`` plus a cheap process exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Sequence

from .config import COMMON, EXPERIMENTS, FLAGS, ExperimentConfig


def build_parser() -> argparse.ArgumentParser:
    """One subparser per row of the experiment table, with a flag for each field it reads."""
    parser = argparse.ArgumentParser(
        prog="mplab",
        description="Monte Carlo experiments around the Marchenko-Pastur law.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")

    front = argparse.ArgumentParser(add_help=False)
    front.add_argument("--out", help="report path (default: stdout)")
    front.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    front.add_argument("--profile", metavar="PATH",
                       help="JSON-lines file of versions, workers and per-trial wall times")
    front.add_argument("--thresholds", metavar="PATH",
                       help="threshold rules file (default: packaged table)")
    front.add_argument("--no-thresholds", action="store_true", help="skip threshold grading")

    # No abbreviations: law-tables would read an unread --p as --profile.
    for name, row in EXPERIMENTS.items():
        subparser = sub.add_parser(name, parents=[front], help=row.help, allow_abbrev=False)
        for field in (*COMMON, *row.fields):
            flag, kwargs = FLAGS.get((name, field), FLAGS[field])
            subparser.add_argument(flag, dest=field, required=field in row.required, **kwargs)
    esd = sub.choices["esd"]
    esd.add_argument("--dump-matrix", metavar="PATH",
                     help="binary dump of trial 0's sample covariance")
    esd.add_argument("--dump-esd", metavar="PATH", help="CSV dump of trial 0's eigenvalues")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config of the flags given (not ``None``); a repeated flag gives a tuple."""
    given = {name: getattr(args, name) for name in (*COMMON, *EXPERIMENTS[args.experiment].fields)}
    return ExperimentConfig(args.experiment, **{
        k: tuple(v) if isinstance(v, list) else v for k, v in given.items() if v is not None})


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Trials are the parallel unit: one BLAS thread, set before numpy loads
    # below.  A program that imported numpy earlier keeps its BLAS threads.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    from ..matcore import DomainError, InvalidInputError
    from ..ensembles import ParseError
    from .experiments import dump_first_trial, load_threshold_rules, run_experiment
    from .records import emit_report, write_profile, write_report

    try:
        cfg = config_from_args(args)
        rules = [] if args.no_thresholds else load_threshold_rules(args.thresholds)
        if args.profile:
            open(args.profile, "w").close()  # an unwritable path fails before any trial
        start = time.perf_counter()
        result = run_experiment(cfg, rules)
        run_s = time.perf_counter() - start
        dumps = getattr(args, "dump_matrix", None), getattr(args, "dump_esd", None)
        if any(dumps):
            dump_first_trial(cfg, *dumps)
        start = time.perf_counter()
        if args.out:
            emit_report(result.records, args.out, args.format)
            summary_stream = sys.stdout
        else:
            write_report(result.records, sys.stdout, args.format)
            summary_stream = sys.stderr
        if args.profile:
            write_profile(args.profile, result.times, run_s, time.perf_counter() - start)
    except (InvalidInputError, DomainError, ParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    json.dump(result.summary, summary_stream, indent=2, allow_nan=False)
    summary_stream.write("\n")
    return 0 if result.summary["pass"] else 1


def run() -> int:
    """``main()`` on the process's argv, for a process that exits right after.

    ``gc.freeze()`` moves every live object out of the collector's reach, so
    interpreter shutdown does not walk numpy's and mplab's module-lifetime
    objects cycle by cycle.  In-process callers of ``main`` keep normal
    collection.
    """
    try:
        return main()
    finally:
        gc.freeze()
