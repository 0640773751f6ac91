"""Exact finite-sample moment theory of rank correlation coefficients
under bivariate normal and contaminated-normal models.
"""

from .correlation import (PairedSample, SStatistic, compute_ranks,
                          inequality_check, kendall, pearson, spearman,
                          spearman_via_s)
from .orthant import CorrelationMatrix4, orthant_p2, orthant_p3, orthant_p4
from .binormal import (OmegaValues, cov_rs_rk_asymptotic, cov_rs_rk_exact,
                       cov_series_asymptotic, lemma2_moments, omega4, omegas,
                       var_rs_asymptotic, var_rs_exact)
from .contaminated import (ContaminationParams, MixtureCorrelations,
                           expected_rk_contaminated, expected_rs_contaminated,
                           mixture_correlations, rival_formula_star,
                           sample_contaminated_block)
from .estimators import (EstimatorKind, are, bias_theoretical, crlb,
                         estimates, variance_theoretical)
from .simulate import (ExperimentConfig, TrialReport, compare_report,
                       run_experiment, sample_binormal_block)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "PairedSample", "SStatistic", "compute_ranks", "inequality_check",
    "kendall", "pearson", "spearman", "spearman_via_s",
    "CorrelationMatrix4", "orthant_p2", "orthant_p3", "orthant_p4",
    "OmegaValues", "cov_rs_rk_asymptotic", "cov_rs_rk_exact",
    "cov_series_asymptotic", "lemma2_moments", "omega4", "omegas",
    "var_rs_asymptotic", "var_rs_exact",
    "ContaminationParams", "MixtureCorrelations", "expected_rk_contaminated",
    "expected_rs_contaminated", "mixture_correlations", "rival_formula_star",
    "sample_contaminated_block",
    "EstimatorKind", "are", "bias_theoretical", "crlb",
    "estimates", "variance_theoretical",
    "ExperimentConfig", "TrialReport", "compare_report", "run_experiment",
    "sample_binormal_block",
    "errors",
]
