"""Trigonometric-series engine for Gaussian processes.

Builds sine/cosine series expansions of Gaussian processes from cosine
coefficients of covariance generating functions, simulates paths from them,
validates covariances and convergence rates, and product-quantizes the
resulting expansions.
"""

__version__ = "0.1.0"

from .errors import (
    BadParameter,
    BranchMismatch,
    ClampWarning,
    DeltaOutOfRange,
    GramSingularWarning,
    InsufficientData,
    NegativeC0,
    NegativeRadicand,
    NonConvergenceWarning,
    NonFiniteEvaluation,
    NumericalFailure,
    QuadratureNonConvergence,
    SingularityTooStrong,
    SpecgaussError,
    StarViolated,
    TailEstimateUnavailable,
    TooFewPaths,
)
from .gamma import GammaSpec, StarReport, builtin_gamma, check_star, fit_singularity_exponent, negate_spec
from .fourier import (
    CosineSeries,
    OracleResult,
    coeffs_closed,
    coeffs_quadrature,
    decay_fit,
    fbm_coefficients,
    lemma2_transform,
    oracle_coeff,
    power_series_coeffs,
    tail_sum,
)
from .expansion import (
    PathBatch,
    SeriesExpansion,
    build_fbm,
    build_generalized_ou,
    build_type_a,
    build_type_b,
    build_type_c,
    sample_paths,
    sample_paths_aliased,
    sample_paths_fast,
    truncation_for_tolerance,
)
from .validate import (
    CovModel,
    RateProbeResult,
    analytic_cov,
    covariance_report,
    empirical_cov,
    empirical_cov_grid,
    lemma1_check,
    rate_probe,
    series_cov,
    series_cov_grid,
    series_cov_uniform,
    series_var_uniform,
)
from .quantize import (
    FunctionalQuantizer,
    GramMatrix,
    Quantizer1D,
    ReducedKL,
    allocate_levels,
    distortion_mc,
    gauss1d_quantizer,
    gram_matrix,
    kl_reduce,
    product_quantizer,
)

__all__ = [name for name in dir() if not name.startswith("_")]
