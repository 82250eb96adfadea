"""Experiment configuration: validation and a JSON-able round trip.

A config captures everything that determines a run except the worker
count, so (config, seed) -> report is a pure function.  Dimensions are
capped hard: the laboratory targets workstation-scale matrices, and a
silently accepted ``p`` in the tens of thousands would thrash the host
long before producing anything useful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Mapping

from ..matcore import DomainError, InvalidInputError
from ..ensembles import parse_model_spec
from ..conditions import parse_family_spec

EXPERIMENTS = ("esd", "conditions", "mp-property", "equivalence", "law-tables", "facts")

#: Experiment id -> stream code mixed into every per-trial RNG derivation.
EXPERIMENT_CODES = {
    "esd": 1,
    "conditions": 2,
    "mp-property": 3,
    "equivalence": 4,
    "law-tables": 5,
    "facts": 6,
}

#: Hard ceiling on any matrix dimension accepted by the command line.
MAX_DIM = 4096

CONDITION_STATS = ("quadform", "lindeberg", "norm-drift", "chebyshev")
FRAME_MODES = ("haar", "fixed-half")


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
    timing: bool = False

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError("unknown experiment: %r" % (self.experiment,))
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
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise DomainError("resolvent point %r is not finite" % (z,))
            if not z.imag > 0.0:
                raise DomainError("resolvent points must satisfy Im z > 0")
        if self.model is not None:
            parse_model_spec(self.model)  # raises ParseError on bad grammar
        if self.family is not None:
            parse_family_spec(self.family)
        if self.stat is not None and self.stat not in CONDITION_STATS:
            raise InvalidInputError("unknown statistic: %r" % (self.stat,))
        if self.frame is not None and self.frame not in FRAME_MODES:
            raise InvalidInputError("unknown frame mode: %r" % (self.frame,))
        for spec in self.hetero:
            parse_model_spec("gauss-cov:" + spec)
        for rho in self.rhos:
            if not rho > 0.0:
                raise DomainError("aspect ratios must be positive")

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "trials": self.trials,
            "seed": self.seed,
            "model": self.model,
            "p": self.p,
            "n": self.n,
            "q": self.q,
            "eps": self.eps,
            "zs": [[z.real, z.imag] for z in self.zs],
            "stat": self.stat,
            "family": self.family,
            "frame": self.frame,
            "b_spec": self.b_spec,
            "c_spec": self.c_spec,
            "hetero": list(self.hetero),
            "rhos": list(self.rhos),
            "timing": self.timing,
        }


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    extra = set(data) - known
    if extra:
        raise InvalidInputError("unknown config keys: %s" % ", ".join(sorted(extra)))
    kwargs: dict[str, Any] = dict(data)
    if "zs" in kwargs:
        kwargs["zs"] = tuple(complex(re, im) for re, im in kwargs["zs"])
    if "hetero" in kwargs:
        kwargs["hetero"] = tuple(kwargs["hetero"])
    if "rhos" in kwargs:
        kwargs["rhos"] = tuple(float(r) for r in kwargs["rhos"])
    return ExperimentConfig(**kwargs)


def with_seed(cfg: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(cfg, seed=seed)

