"""mplab: a numerical laboratory for Marchenko-Pastur spectral statistics.

The package bundles exact reference curves for the Marchenko-Pastur law,
a collection of random-vector models with and without the concentration
properties that drive the law, spectral-distribution comparison helpers,
and paired-resolvent experiments that measure how far a given model sits
from its Gaussian twin.
"""

from __future__ import annotations

from .matcore import (
    ConvergenceError,
    DomainError,
    InvalidInputError,
    Spectrum,
    as_frame,
    as_symmetric,
    eigh,
    haar_frame,
    psd_sqrt,
    rank_one_trace_update,
    resolvent_trace,
    spectral_norm,
)
from .mp_law import MPLaw
from .ensembles import (
    BandToeplitz,
    BlockXi,
    CovSpec,
    GaussianCov,
    IIDGaussian,
    IIDRademacher,
    IIDSparseSpike,
    Identity,
    ParseError,
    Spiked,
    Toeplitz,
    VectorModel,
    WeakDependent,
    derive_rng,
    parse_cov_spec,
    parse_model_spec,
    sample_data_matrix,
    sample_vector,
)
from .spectra import (
    esd,
    ks_distance,
    projected_covariance,
    sample_covariance,
)
from .conditions import mp_property_trial, norm_drift_stat
from .equivalence import (
    ConstantColumns,
    RandomPSDUnitNorm,
    ScaledIdentity,
    SwapConfig,
    resolvent_gap,
)
from .identities import run_check

__version__ = "0.1.0"

__all__ = [
    "BandToeplitz",
    "BlockXi",
    "ConstantColumns",
    "ConvergenceError",
    "CovSpec",
    "DomainError",
    "GaussianCov",
    "IIDGaussian",
    "IIDRademacher",
    "IIDSparseSpike",
    "Identity",
    "InvalidInputError",
    "MPLaw",
    "ParseError",
    "RandomPSDUnitNorm",
    "ScaledIdentity",
    "Spectrum",
    "Spiked",
    "SwapConfig",
    "Toeplitz",
    "VectorModel",
    "WeakDependent",
    "as_frame",
    "as_symmetric",
    "derive_rng",
    "eigh",
    "esd",
    "haar_frame",
    "ks_distance",
    "mp_property_trial",
    "norm_drift_stat",
    "parse_cov_spec",
    "parse_model_spec",
    "projected_covariance",
    "psd_sqrt",
    "rank_one_trace_update",
    "resolvent_gap",
    "resolvent_trace",
    "run_check",
    "sample_covariance",
    "sample_data_matrix",
    "sample_vector",
    "spectral_norm",
    "__version__",
]
