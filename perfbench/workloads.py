"""The benchmark's workloads: CLI invocations, their environment and expected outputs.

Every full-size invocation is a configuration of the packaged threshold table,
so the CLI's own verdicts grade it, and each names the rules it must match.
``small=True`` shrinks every dimension and trial count for the self-test; no
threshold rule matches at those sizes, so no rule names are expected there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Environment variables that set BLAS/OpenMP thread counts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Invocation:
    """One CLI run, ``mplab <argv> --seed S --out F``, and what it must produce."""

    label: str
    argv: tuple[str, ...]
    records: int
    rules: frozenset[str]

    def command(self, seed: int, out: str) -> list[str]:
        args = [a.replace("{seed}", str(seed)) for a in self.argv]
        return [*args, "--seed", str(seed), "--out", out]

    def problems(self, code: int, summary: bytes, report: bytes) -> list[str]:
        """Output checks: exit code 0, a passing verdict, matched rules, record count."""
        found = [] if code == 0 else ["exit code %d" % code]
        try:
            doc = json.loads(summary)
            passed, matched = doc["pass"], {c["name"] for c in doc["thresholds"]}
        except (ValueError, KeyError, TypeError) as exc:
            return found + ["unreadable summary: %s" % exc]
        if passed is not True:
            found.append("summary pass is %r" % passed)
        if not self.rules <= matched:
            found.append("rules not matched: %s" % ", ".join(sorted(self.rules - matched)))
        try:
            if "json" in self.argv:
                count = len(json.loads(report))
            else:
                count = report.count(b"\n") - 1
        except ValueError as exc:
            return found + ["unreadable report: %s" % exc]
        if count != self.records:
            found.append("%d records, expected %d" % (count, self.records))
        return found


@dataclass(frozen=True)
class Workload:
    name: str
    #: Variables set in the CLI's environment; ``None`` removes the variable.
    env: dict[str, str | None]
    invocations: tuple[Invocation, ...]
    #: Minimal run of the workload's experiment: one trial, smallest dimension.
    setup: Invocation
    #: Rerun every invocation at MPLAB_THREADS=1 and require identical bytes.
    determinism: bool = False


def _inv(small: bool, label: str, head: list[str], dims: dict[str, int],
         tail: list[str], rules: set[str], zs: int = 1) -> Invocation:
    if small:
        dims = {k: min(v, 3) if k == "trials" else max(2, v // 16) for k, v in dims.items()}
        rules = set()
    argv = [*head, *(arg for k, v in dims.items() for arg in ("--" + k, str(v))), *tail]
    return Invocation(label, tuple(argv), dims["trials"] * zs, frozenset(rules))


def _setup(*argv: str) -> Invocation:
    return Invocation("setup", (*argv, "--trials", "1"), 1, frozenset())


_ONE_BLAS_THREAD: dict[str, str | None] = dict.fromkeys(BLAS_THREAD_VARS, "1")


def spectra_ks(small: bool = False) -> Workload:
    esd = ["esd", "--format", "csv"]
    return Workload(
        name="spectra-ks",
        # Two OpenBLAS threads on two cores cut esd-sparse wall time by about
        # a tenth for 1.6x its CPU, and doubled its run-to-run spread.
        env={"MPLAB_THREADS": None, **_ONE_BLAS_THREAD},
        invocations=(
            _inv(small, "esd-gauss", [*esd, "--model", "iid-gauss"],
                 dict(p=512, n=1024, trials=10), [], {"esd-gauss-mean-ks"}),
            _inv(small, "esd-rademacher", [*esd, "--model", "iid-rademacher"],
                 dict(p=512, n=1024, trials=10), [], {"esd-rademacher-mean-ks"}),
            _inv(small, "esd-sparse", [*esd, "--model", "sparse-spike"],
                 dict(p=1024, n=2048, trials=10), [], {"esd-sparse-every-seed-far"}),
            _inv(small, "mp-haar", ["mp-property", "--format", "json", "--model", "iid-gauss",
                                    "--frame", "haar"],
                 dict(p=1024, n=1024, q=512, trials=10), [], {"projected-gauss-haar-close"}),
        ),
        setup=_setup("esd", "--model", "iid-gauss", "--p", "1", "--n", "1"),
    )


def swap_gap(small: bool = False) -> Workload:
    eq = ["equivalence", "--format", "csv"]
    bound = "swap-gap-norm-bound"
    return Workload(
        name="swap-gap",
        env={"MPLAB_THREADS": "2", **_ONE_BLAS_THREAD},
        invocations=(
            _inv(small, "eq-rademacher", [*eq, "--model", "iid-rademacher"],
                 dict(p=512, n=1024, trials=10), ["--z", "0,1"],
                 {"swap-rademacher-small-gap", bound}),
            _inv(small, "eq-sparse", [*eq, "--model", "sparse-spike"],
                 dict(p=512, n=1024, trials=10), ["--z", "0,1"],
                 {"swap-sparse-large-gap", bound}),
            _inv(small, "eq-hetero", [*eq, "--model", "iid-gauss"],
                 dict(p=256, n=512, trials=40),
                 ["--z", "0,1", "--eps", "0.03", "--hetero", "identity",
                  "--hetero", "toeplitz:0.5"],
                 {"swap-hetero-alternating", bound}),
            _inv(small, "eq-multiz-psd", ["equivalence", "--format", "json",
                                          "--model", "iid-rademacher"],
                 dict(p=256, n=512, trials=10),
                 ["--z", "0,1", "--z=-1,0.5", "--b", "psd:{seed}"], {bound}, zs=2),
        ),
        setup=_setup("equivalence", "--model", "iid-rademacher", "--p", "1", "--n", "1"),
        determinism=True,
    )


def vector_stats(small: bool = False) -> Workload:
    cond = ["conditions", "--format", "csv"]
    return Workload(
        name="vector-stats",
        env={"MPLAB_THREADS": None, **dict.fromkeys(BLAS_THREAD_VARS)},
        invocations=(
            _inv(small, "lindeberg-sparse", [*cond, "--model", "sparse-spike",
                                             "--stat", "lindeberg", "--eps", "0.5"],
                 dict(p=1024, trials=1000), [], {"lindeberg-sparse-unit-mass"}),
            _inv(small, "quadform-blockxi", [*cond, "--model", "block-xi", "--stat", "quadform",
                                             "--family", "fixed-half", "--eps", "0.25"],
                 dict(p=1024, trials=200), [], {"quadform-blockxi-fixed-half"}),
            _inv(small, "quadform-identity", [*cond, "--model", "gauss-cov:identity",
                                              "--stat", "quadform", "--family", "identity",
                                              "--eps", "0.5"],
                 dict(p=2048, trials=100), [], {"quadform-gauss-identity-concentrates"}),
            _inv(small, "quadform-spiked", [*cond, "--model", "gauss-cov:spiked:1,2048",
                                            "--stat", "quadform", "--family", "identity",
                                            "--eps", "0.5"],
                 dict(p=2048, trials=100), [], {"quadform-gauss-spiked-disperses"}),
        ),
        setup=_setup("conditions", "--model", "sparse-spike", "--stat", "lindeberg",
                     "--eps", "0.5", "--p", "1"),
    )


WORKLOADS = {"spectra-ks": spectra_ks, "swap-gap": swap_gap, "vector-stats": vector_stats}
