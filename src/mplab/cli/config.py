"""Experiment configuration: the experiment table, validation and a JSON-able form.

``EXPERIMENTS`` says what a run of each experiment needs and assumes; a
config fills its unset fields from it, so its summary records what ran.
A config captures everything that determines a run; neither the worker
count nor the BLAS environment (``main`` pins it) reaches the report, so
(config, seed) -> report is a pure function.  Dimensions are capped hard:
the laboratory targets workstation-scale matrices, and a silently accepted
``p`` in the tens of thousands would thrash the host long before producing
anything useful.  The numpy-backed parsers load when a config validates,
so the command line parses without numpy; the offset parsers load only
for a config that has an offset.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, NamedTuple


class Experiment(NamedTuple):
    """An experiment's stream code, the fields a run must set, the values unset fields take."""

    code: int
    required: tuple[str, ...] = ()
    defaults: dict[str, Any] = {}


#: Experiment id -> its row.  The code is mixed into every per-trial RNG
#: derivation; the required fields are required flags on the command line.
EXPERIMENTS = {
    "esd": Experiment(1, ("model", "p", "n")),
    "conditions": Experiment(2, ("model", "p"),
                             {"stat": "quadform", "family": "identity", "eps": 0.5}),
    "mp-property": Experiment(3, ("model", "p", "n", "q"), {"frame": "haar"}),
    "equivalence": Experiment(4, ("model", "p", "n"), {"zs": (1j,)}),
    "law-tables": Experiment(5, (), {"rhos": (0.1, 0.5, 1.0, 2.0, 4.0)}),
    "facts": Experiment(6, (), {"p": 40}),
}

#: Hard ceiling on any matrix dimension accepted by the command line.
MAX_DIM = 4096

CONDITION_STATS = ("quadform", "lindeberg", "norm-drift", "chebyshev")
#: The statistics that read a test matrix, so take a default ``family``.
MATRIX_STATS = ("quadform", "chebyshev")
FRAME_MODES = ("haar", "fixed-half")


def parse_point(text: str) -> complex:
    """A point written ``re,im``, as ``--z`` and a rule's ``z`` take it; raises ValueError."""
    re_part, im_part = text.split(",")
    return complex(float(re_part), float(im_part))


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
        from ..ensembles import parse_model_spec
        from ..conditions import parse_family_spec

        row = EXPERIMENTS.get(self.experiment)
        if row is None:
            raise InvalidInputError("unknown experiment: %r" % (self.experiment,))
        missing = [name for name in row.required if getattr(self, name) in (None, ())]
        if missing:
            raise InvalidInputError(
                "%s requires %s" % (self.experiment, ", ".join("--" + m for m in missing))
            )
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
                raise DomainError(
                    "%s=%d exceeds the dimension cap %d; refusing to run"
                    % (name, dim, MAX_DIM)
                )
        if self.eps is not None and not (self.eps > 0.0 and math.isfinite(self.eps)):
            raise DomainError("eps must be positive and finite, got %r" % (self.eps,))
        for z in self.zs:
            require_upper_half(z)
        if self.model is not None:
            parse_model_spec(self.model)  # raises ParseError on bad grammar
        if self.family is not None:
            parse_family_spec(self.family)
        if self.b_spec is not None:
            from ..equivalence import parse_offset_spec

            parse_offset_spec(self.b_spec)
        if self.c_spec is not None:
            from ..equivalence import parse_column_spec

            parse_column_spec(self.c_spec)
        if self.stat is not None and self.stat not in CONDITION_STATS:
            raise InvalidInputError("unknown statistic: %r" % (self.stat,))
        if self.frame is not None and self.frame not in FRAME_MODES:
            raise InvalidInputError("unknown frame mode: %r" % (self.frame,))
        for spec in self.hetero:
            parse_model_spec("gauss-cov:" + spec)
        for rho in self.rhos:
            MPLaw(rho)  # raises DomainError where the law is undefined

    def to_dict(self) -> dict[str, Any]:
        """The fields in declaration order, tuples as lists and each z as [re, im]."""
        out = {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}
        out["zs"] = [[z.real, z.imag] for z in self.zs]
        return out
