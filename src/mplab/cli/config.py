"""Experiment configuration: the experiment table, its flags, validation and a JSON-able form.

An ``EXPERIMENTS`` row is the one list of the fields its experiment reads:
the command line has a flag (``FLAGS``) for each and no other, a config
that sets any other field is refused, and a config fills its unset fields
from the row, so its summary records what ran.  Neither the worker count
nor the BLAS environment (``main`` pins it) reaches the report, so (config,
seed) -> report is a pure function.  Dimensions are capped hard: a silently
accepted ``p`` in the tens of thousands would thrash a workstation long
before producing anything useful.  The numpy-backed parsers load when a
config validates, so the command line parses without numpy; the offset
parsers load only for a config that has an offset.
"""

from __future__ import annotations

import argparse
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, NamedTuple


class Experiment(NamedTuple):
    """Stream code, help line, the fields a run must set and may set, unset fields' values."""

    code: int
    help: str
    required: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    defaults: dict[str, Any] = {}

    @property
    def fields(self) -> tuple[str, ...]:
        return self.required + self.optional


#: Experiment id -> its row.  The code is mixed into every per-trial RNG
#: derivation; the required fields are required flags on the command line.
EXPERIMENTS = {
    "esd": Experiment(1, "KS distance of sample-covariance spectra to the law",
                      ("model", "p", "n")),
    "conditions": Experiment(2, "concentration statistics of a vector model",
                             ("model", "p"), ("stat", "family", "eps"),
                             {"stat": "quadform", "family": "identity", "eps": 0.5}),
    "mp-property": Experiment(3, "KS distance of frame-compressed spectra to the law",
                              ("model", "p", "n", "q"), ("frame",), {"frame": "haar"}),
    "equivalence": Experiment(4, "resolvent-trace gap against the Gaussian twin",
                              ("model", "p", "n"), ("zs", "b_spec", "c_spec", "hetero", "eps"),
                              {"zs": (1j,)}),
    "law-tables": Experiment(5, "self-consistency tables of the analytic law",
                             (), ("rhos",), {"rhos": (0.1, 0.5, 1.0, 2.0, 4.0)}),
    "facts": Experiment(6, "randomized matrix-inequality suite", (), ("p",), {"p": 40}),
}

#: The fields every experiment reads, besides those of its row.
COMMON = ("trials", "seed")

#: Hard ceiling on any matrix dimension accepted by the command line.
MAX_DIM = 4096

CONDITION_STATS = ("quadform", "lindeberg", "norm-drift", "chebyshev")
#: The statistics that read a test matrix, so take a default ``family``.
MATRIX_STATS = ("quadform", "chebyshev")
FRAME_MODES = ("haar", "fixed-half")


#: The fields whose values are specs, which ``parse_spec`` reads as laws.
SPEC_FIELDS = ("model", "family", "b_spec", "c_spec", "hetero")


def parse_spec(name: str, text: str) -> Any:
    """The law a spec field's text names (hetero: entries joined by ';'); offsets load here."""
    from ..ensembles import parse_cov_spec, parse_model_spec
    from ..conditions import parse_family_spec

    if name == "hetero":
        return tuple(parse_cov_spec(s) for s in text.split(";"))
    if name in ("b_spec", "c_spec"):
        from ..equivalence import parse_column_spec, parse_offset_spec

        return (parse_offset_spec if name == "b_spec" else parse_column_spec)(text)
    return (parse_model_spec if name == "model" else parse_family_spec)(text)


def parse_point(text: str) -> complex:
    """A point written ``re,im``, as ``--z`` and a rule's ``z`` take it; raises ValueError."""
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


def _z_flag(text: str) -> complex:
    try:
        return parse_point(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a resolvent point as 're,im', got {text!r}")


#: Config field -> its flag and argparse keywords, none a default; an
#: ``(experiment, field)`` key spells the field's flag for that experiment alone.
FLAGS: dict[str | tuple[str, str], tuple[str, dict[str, Any]]] = {
    "trials": ("--trials", {"type": int, "help": "number of trials"}),
    "seed": ("--seed", {"type": int, "help": "master seed"}),
    "model": ("--model", {"help": "model spec, e.g. iid-gauss"}),
    "p": ("--p", {"type": int, "help": "vector dimension"}),
    "n": ("--n", {"type": int, "help": "number of columns"}),
    "q": ("--q", {"type": int, "help": "frame rows"}),
    "stat": ("--stat", {"choices": CONDITION_STATS}),
    "family": ("--family", {"help": "test-matrix family spec, e.g. fixed-half"}),
    "frame": ("--frame", {"choices": FRAME_MODES}),
    "zs": ("--z", {"type": _z_flag, "action": "append", "metavar": "RE,IM", "help":
                   "resolvent point (repeatable; default 0,1); write -1,0.5 as --z=-1,0.5"}),
    "b_spec": ("--b", {"metavar": "SPEC", "help": "additive offset, id:<beta> or psd:<seed>"}),
    "c_spec": ("--c", {"metavar": "SPEC", "help": "column offset, const:<gamma>"}),
    "hetero": ("--hetero", {"action": "append", "metavar": "COVSPEC",
                            "help": "per-column covariance pattern entry (repeatable, cycled)"}),
    "eps": ("--eps", {"type": float, "help": "threshold of the frequency metrics"}),
    "rhos": ("--rho", {"type": float, "action": "append", "metavar": "RHO",
                       "help": "aspect ratio (repeatable)"}),
    ("facts", "p"): ("--p-max", {"type": int, "help": "largest matrix dimension drawn"}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    trials: int = 8
    seed: int = 0
    model: str | None = None
    p: int | None = None
    n: int | None = None
    q: int | None = None
    eps: float | None = None
    zs: tuple[complex, ...] = ()
    stat: str | None = None
    family: str | None = None
    frame: str | None = None
    b_spec: str | None = None
    c_spec: str | None = None
    hetero: tuple[str, ...] = ()
    rhos: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        from ..matcore import DomainError, InvalidInputError, require_upper_half
        from ..mp_law import MPLaw
        from ..ensembles import parse_cov_spec

        row = EXPERIMENTS.get(self.experiment)
        if row is None:
            raise InvalidInputError("unknown experiment: %r" % (self.experiment,))
        reads = ("experiment", *COMMON, *row.fields)
        unread = [f.name for f in fields(self)
                  if f.name not in reads and getattr(self, f.name) not in (None, ())]
        missing = [name for name in row.required if getattr(self, name) in (None, ())]
        for problem, names in (("reads no", unread), ("requires", missing)):
            if names:
                flags = ", ".join(FLAGS[name][0] for name in names)
                raise InvalidInputError("%s %s %s" % (self.experiment, problem, flags))
        for name, value in row.defaults.items():
            if name == "family" and self.stat not in MATRIX_STATS:
                continue
            if getattr(self, name) in (None, ()):
                object.__setattr__(self, name, value)
        if self.trials < 1:
            raise InvalidInputError("trials must be positive")
        if not 0 <= self.seed < 2**63:
            raise InvalidInputError("seed must fit in a non-negative 63-bit integer")
        for name in ("p", "n", "q"):
            dim = getattr(self, name)
            if dim is None:
                continue
            if dim < 1:
                raise InvalidInputError("%s must be positive" % name)
            if dim > MAX_DIM:
                raise DomainError("%s=%d exceeds the dimension cap %d; refusing to run"
                                  % (name, dim, MAX_DIM))
        if self.eps is not None and not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError("eps must be positive and finite, got %r" % (self.eps,))
        for z in self.zs:
            require_upper_half(z)
        for name in ("model", "family", "b_spec", "c_spec"):
            if getattr(self, name) is not None:
                parse_spec(name, getattr(self, name))
        if self.stat is not None and self.stat not in CONDITION_STATS:
            raise InvalidInputError("unknown statistic: %r" % (self.stat,))
        if self.frame is not None and self.frame not in FRAME_MODES:
            raise InvalidInputError("unknown frame mode: %r" % (self.frame,))
        for spec in self.hetero:
            parse_cov_spec(spec)
        for rho in self.rhos:
            MPLaw(rho)  # raises DomainError where the law is undefined

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order, tuples as lists and each z as [re, im]."""
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        out["zs"] = [[z.real, z.imag] for z in self.zs]
        return out
