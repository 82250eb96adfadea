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
import dataclasses
import gc
import json
import os
import sys
import time
from typing import Sequence

from .config import CONDITION_STATS, EXPERIMENTS, FRAME_MODES, ExperimentConfig, parse_point


def _parse_z(text: str) -> complex:
    try:
        return parse_point(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a resolvent point as 're,im', got %r" % (text,)
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mplab",
        description="Monte Carlo experiments around the Marchenko-Pastur law.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trials", type=int, help="number of trials")
    common.add_argument("--seed", type=int, help="master seed")
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format")
    common.add_argument("--profile", metavar="PATH",
                        help="JSON-lines file of versions, workers and per-trial wall times")
    common.add_argument("--thresholds", metavar="PATH",
                        help="threshold rules file (default: packaged table)")
    common.add_argument("--no-thresholds", action="store_true",
                        help="skip threshold grading")

    p_esd = sub.add_parser("esd", parents=[common],
                           help="KS distance of sample-covariance spectra to the law")
    p_esd.add_argument("--model", help="model spec, e.g. iid-gauss")
    p_esd.add_argument("--p", type=int, help="vector dimension")
    p_esd.add_argument("--n", type=int, help="number of columns")
    p_esd.add_argument("--dump-matrix", metavar="PATH",
                       help="binary dump of trial 0's sample covariance")
    p_esd.add_argument("--dump-esd", metavar="PATH",
                       help="CSV dump of trial 0's eigenvalues")

    p_cond = sub.add_parser("conditions", parents=[common],
                            help="concentration statistics of a vector model")
    p_cond.add_argument("--model")
    p_cond.add_argument("--p", type=int)
    p_cond.add_argument("--stat", choices=CONDITION_STATS)
    p_cond.add_argument("--family", help="test-matrix family spec, e.g. fixed-half")
    p_cond.add_argument("--eps", type=float, help="exceedance threshold")

    p_mp = sub.add_parser("mp-property", parents=[common],
                          help="KS distance of frame-compressed spectra to the law")
    p_mp.add_argument("--model")
    p_mp.add_argument("--p", type=int)
    p_mp.add_argument("--n", type=int)
    p_mp.add_argument("--q", type=int, help="frame rows")
    p_mp.add_argument("--frame", choices=FRAME_MODES)

    p_eq = sub.add_parser("equivalence", parents=[common],
                          help="resolvent-trace gap against the Gaussian twin")
    p_eq.add_argument("--model")
    p_eq.add_argument("--p", type=int)
    p_eq.add_argument("--n", type=int)
    p_eq.add_argument("--z", dest="zs", type=_parse_z, action="append", metavar="RE,IM",
                      help="resolvent point (repeatable; default 0,1); write a "
                           "negative real part as --z=-1,0.5")
    p_eq.add_argument("--b", dest="b_spec", metavar="SPEC",
                      help="additive offset, id:<beta> or psd:<seed>")
    p_eq.add_argument("--c", dest="c_spec", metavar="SPEC",
                      help="column offset, const:<gamma>")
    p_eq.add_argument("--hetero", action="append", metavar="COVSPEC",
                      help="per-column covariance pattern entry (repeatable, cycled)")
    p_eq.add_argument("--eps", type=float, help="|gap| threshold for the within_freq metric")

    p_law = sub.add_parser("law-tables", parents=[common],
                           help="self-consistency tables of the analytic law")
    p_law.add_argument("--rho", dest="rhos", type=float, action="append", metavar="RHO",
                       help="aspect ratio (repeatable)")

    p_facts = sub.add_parser("facts", parents=[common],
                             help="randomized matrix-inequality suite")
    p_facts.add_argument("--p-max", dest="p", metavar="P_MAX", type=int,
                         help="largest matrix dimension drawn")

    # No flag sets a default: the config fills what is not given from the
    # experiment table, whose required fields are the required flags.
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            if action.dest in EXPERIMENTS[name].required:
                action.required = True
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config fields among the flags' dests; a repeated flag gives a tuple.

    A flag left at ``None`` was not given; the config fills that field.
    """
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in names and value is not None
    })


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
        if getattr(args, "dump_matrix", None) or getattr(args, "dump_esd", None):
            dump_first_trial(cfg, getattr(args, "dump_matrix", None),
                             getattr(args, "dump_esd", None))
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
