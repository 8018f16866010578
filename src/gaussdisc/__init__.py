"""Discrimination of correlated versus uncorrelated two-mode Gaussian states.

The package brackets the minimum error probability of telling an
uncorrelated pair of thermal modes from the maximally correlated separable
state of the same local energy.  It covers an optimal global (joint)
detector and the best local strategy built on single-mode Gaussian
measurements, in single-copy and asymptotic multi-copy settings, and ships a
truncated-Fock-space oracle that validates every closed form by direct
matrix algebra.
"""

from .asymptotic import ExponentReport, GainPoint, exponents, gain_curves, multicopy_p_upper
from .entropy import (
    CorrelationBudget,
    binary_entropy,
    correlation_budget,
    delta_c,
    delta_d,
    entropy_h,
    info_bounds,
    mu_from_delta_d,
)
from .errors import ConvergenceError, DomainError, NumericalError, ReportFailure
from .fock import (
    FockConfig,
    build_correlated,
    build_thermal,
    build_thermal_product,
    coherent_state,
    displaced_thermal,
    oracle_fidelity,
    oracle_s_overlap,
    partial_trace,
    quadrature_moments,
    s_overlap_converged,
    s_overlap_curve,
)
from .global_bounds import (
    GlobalBounds,
    SOverlapResult,
    bhattacharyya_global,
    g_weight,
    lambda_weight,
    qcb_global,
    s_overlap_global,
    s_overlap_two_mode,
)
from .local_bounds import (
    ConditionalPreparation,
    GaussianPovm,
    OptimalityScan,
    averaged_fidelity_bound,
    condition_on_povm,
    fidelity_heterodyne,
    gaussian_fidelity_one_mode,
    heterodyne_epsilon,
    p_lower_local,
    p_upper_local,
    s_overlap_heterodyne,
    s_overlap_local,
    verify_fidelity_optimality,
    verify_heterodyne_optimality,
)
from .report import (
    REPORT_FIELDS,
    DiscriminationReport,
    discrimination_report,
    discrimination_reports,
    report_violations,
)
from .states import (
    OMEGA,
    OMEGA2,
    SymmetricTwoModeCM,
    WilliamsonDecomposition,
    check_bona_fide,
    make_state_one,
    make_state_zero,
    make_symmetric_state,
    williamson_numeric,
    williamson_symmetric,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationBudget",
    "ConditionalPreparation",
    "ConvergenceError",
    "DiscriminationReport",
    "DomainError",
    "ExponentReport",
    "FockConfig",
    "GainPoint",
    "GaussianPovm",
    "GlobalBounds",
    "NumericalError",
    "OMEGA",
    "OMEGA2",
    "OptimalityScan",
    "REPORT_FIELDS",
    "ReportFailure",
    "SOverlapResult",
    "SymmetricTwoModeCM",
    "WilliamsonDecomposition",
    "averaged_fidelity_bound",
    "bhattacharyya_global",
    "binary_entropy",
    "build_correlated",
    "build_thermal",
    "build_thermal_product",
    "check_bona_fide",
    "coherent_state",
    "condition_on_povm",
    "correlation_budget",
    "delta_c",
    "delta_d",
    "discrimination_report",
    "discrimination_reports",
    "displaced_thermal",
    "entropy_h",
    "exponents",
    "fidelity_heterodyne",
    "g_weight",
    "gain_curves",
    "gaussian_fidelity_one_mode",
    "heterodyne_epsilon",
    "info_bounds",
    "lambda_weight",
    "make_state_one",
    "make_state_zero",
    "make_symmetric_state",
    "mu_from_delta_d",
    "multicopy_p_upper",
    "oracle_fidelity",
    "oracle_s_overlap",
    "p_lower_local",
    "p_upper_local",
    "partial_trace",
    "qcb_global",
    "quadrature_moments",
    "report_violations",
    "s_overlap_converged",
    "s_overlap_curve",
    "s_overlap_global",
    "s_overlap_heterodyne",
    "s_overlap_local",
    "s_overlap_two_mode",
    "verify_fidelity_optimality",
    "verify_heterodyne_optimality",
    "williamson_numeric",
    "williamson_symmetric",
]
