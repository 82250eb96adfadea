"""Command-line front end: ``mplab <experiment> [flags]``.

Records go to ``--out`` (or stdout) in the fixed trial-record schema; the
run summary, including pass/fail against the acceptance thresholds table,
is printed as JSON.  The exit code is 0 exactly when every matched
threshold rule passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from ..matcore import DomainError, InvalidInputError
from ..ensembles import ParseError
from .config import CONDITION_STATS, FRAME_MODES, ExperimentConfig
from .experiments import dump_first_trial, load_threshold_rules, run_experiment
from .records import emit_report, write_report


def _parse_z(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
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
    common.add_argument("--trials", type=int, default=8, help="number of trials")
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--out", help="report path (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format")
    common.add_argument("--timing", action="store_true",
                        help="record per-trial wall time (breaks byte determinism)")
    common.add_argument("--thresholds", metavar="PATH",
                        help="threshold rules file (default: packaged table)")
    common.add_argument("--no-thresholds", action="store_true",
                        help="skip threshold grading")

    p_esd = sub.add_parser("esd", parents=[common],
                           help="KS distance of sample-covariance spectra to the law")
    p_esd.add_argument("--model", required=True, help="model spec, e.g. iid-gauss")
    p_esd.add_argument("--p", type=int, required=True, help="vector dimension")
    p_esd.add_argument("--n", type=int, required=True, help="number of columns")
    p_esd.add_argument("--dump-matrix", metavar="PATH",
                       help="binary dump of trial 0's sample covariance")
    p_esd.add_argument("--dump-esd", metavar="PATH",
                       help="CSV dump of trial 0's eigenvalues")

    p_cond = sub.add_parser("conditions", parents=[common],
                            help="concentration statistics of a vector model")
    p_cond.add_argument("--model", required=True)
    p_cond.add_argument("--p", type=int, required=True)
    p_cond.add_argument("--stat", choices=CONDITION_STATS, default="quadform")
    p_cond.add_argument("--family", default="identity",
                        help="test-matrix family spec, e.g. fixed-half")
    p_cond.add_argument("--eps", type=float, default=0.5, help="exceedance threshold")

    p_mp = sub.add_parser("mp-property", parents=[common],
                          help="KS distance of frame-compressed spectra to the law")
    p_mp.add_argument("--model", required=True)
    p_mp.add_argument("--p", type=int, required=True)
    p_mp.add_argument("--n", type=int, required=True)
    p_mp.add_argument("--q", type=int, required=True, help="frame rows")
    p_mp.add_argument("--frame", choices=FRAME_MODES, default="haar")

    p_eq = sub.add_parser("equivalence", parents=[common],
                          help="resolvent-trace gap against the Gaussian twin")
    p_eq.add_argument("--model", required=True)
    p_eq.add_argument("--p", type=int, required=True)
    p_eq.add_argument("--n", type=int, required=True)
    p_eq.add_argument("--z", dest="zs", type=_parse_z, action="append", default=None,
                      metavar="RE,IM", help="resolvent point (repeatable; default 0,1)")
    p_eq.add_argument("--b", dest="b_spec", metavar="SPEC",
                      help="additive offset, id:<beta> or psd:<seed>")
    p_eq.add_argument("--c", dest="c_spec", metavar="SPEC",
                      help="column offset, const:<gamma>")
    p_eq.add_argument("--hetero", action="append", default=None, metavar="COVSPEC",
                      help="per-column covariance pattern entry (repeatable, cycled)")
    p_eq.add_argument("--eps", type=float, default=None,
                      help="|gap| threshold for the within_freq metric")

    p_law = sub.add_parser("law-tables", parents=[common],
                           help="self-consistency tables of the analytic law")
    p_law.add_argument("--rho", dest="rhos", type=float, action="append", default=None,
                       metavar="RHO", help="aspect ratio (repeatable)")

    p_facts = sub.add_parser("facts", parents=[common],
                             help="randomized matrix-inequality suite")
    p_facts.add_argument("--p-max", dest="p", metavar="P_MAX", type=int, default=40,
                         help="largest matrix dimension drawn")

    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config fields among the flags' dests; a repeated flag gives a tuple.

    A flag left at ``None`` was not given and takes the field's default.
    """
    names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    return ExperimentConfig(**{
        name: tuple(value) if isinstance(value, list) else value
        for name, value in vars(args).items()
        if name in names and value is not None
    })


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_from_args(args)
        rules = [] if args.no_thresholds else load_threshold_rules(args.thresholds)
        result = run_experiment(cfg, rules)
        if getattr(args, "dump_matrix", None) or getattr(args, "dump_esd", None):
            dump_first_trial(cfg, getattr(args, "dump_matrix", None),
                             getattr(args, "dump_esd", None))
        if args.out:
            emit_report(result.records, args.out, args.format)
            summary_stream = sys.stdout
        else:
            write_report(result.records, sys.stdout, args.format)
            summary_stream = sys.stderr
    except (InvalidInputError, DomainError, ParseError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    json.dump(result.summary, summary_stream, indent=2, allow_nan=False)
    summary_stream.write("\n")
    return 0 if result.summary["pass"] else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
