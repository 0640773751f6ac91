"""Exact finite-sample moment theory of rank correlation coefficients
under bivariate normal and contaminated-normal models.
"""

from .correlation import (PairedSample, inequality_check, kendall, pearson,
                          spearman)
from .orthant import CorrelationMatrix4, orthant_p4
from .binormal import (OmegaValues, cov_rs_rk_asymptotic, cov_rs_rk_exact,
                       cov_series_asymptotic, lemma2_moments, omegas,
                       var_rs_asymptotic, var_rs_exact)
from .contaminated import (ContaminationParams, expected_rk_contaminated,
                           expected_rs_contaminated, rival_formula_star)
from .estimators import (EstimatorKind, are, bias_theoretical, estimates,
                         variance_theoretical)
from .simulate import (ExperimentConfig, TrialReport, compare_report,
                       run_experiment)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "PairedSample", "inequality_check", "kendall", "pearson", "spearman",
    "CorrelationMatrix4", "orthant_p4",
    "OmegaValues", "cov_rs_rk_asymptotic", "cov_rs_rk_exact",
    "cov_series_asymptotic", "lemma2_moments", "omegas",
    "var_rs_asymptotic", "var_rs_exact",
    "ContaminationParams", "expected_rk_contaminated",
    "expected_rs_contaminated", "rival_formula_star",
    "EstimatorKind", "are", "bias_theoretical",
    "estimates", "variance_theoretical",
    "ExperimentConfig", "TrialReport", "compare_report", "run_experiment",
    "errors",
]
