"""Pliable lasso: sparse linear models whose coefficients bend with
observed (or learned) modifier variables, fit by blockwise coordinate
descent over a warm-started penalty path.
"""

from .model import Dataset, DimensionError, PliableFit, objective, predict
from .preprocess import (StandardizationError, StandardizationMap,
                         destandardize_fit, standardize)
from .solver import (ConvergenceError, KktReport, ProxSolveError,
                     SolverConfig, check_kkt, fit_single_lambda, prox_group,
                     soft_threshold)
from .path import PathResult, fit_path, lambda_grid, lambda_max
from .cv import CvResult, k_fold_cv
from .simulate import SPEC_NAMES, SimData, SimSpec, generate
from .extras import (DfEstimate, HteResult, UnknownZConfig, UnknownZResult,
                     bootstrap_df, covariance_df, fit_unknown_z,
                     run_hte_scenario, treatment_effect)
from .io import (DataFormatError, LoadedModel, load_model, read_delimited,
                 save_model, write_table)

__version__ = "0.1.0"

__all__ = [
    "Dataset", "DimensionError", "PliableFit", "objective", "predict",
    "StandardizationError", "StandardizationMap", "destandardize_fit",
    "standardize",
    "ConvergenceError", "KktReport", "ProxSolveError", "SolverConfig",
    "check_kkt", "fit_single_lambda", "prox_group", "soft_threshold",
    "PathResult", "fit_path", "lambda_grid", "lambda_max",
    "CvResult", "k_fold_cv",
    "SPEC_NAMES", "SimData", "SimSpec", "generate",
    "DfEstimate", "HteResult", "UnknownZConfig", "UnknownZResult",
    "bootstrap_df", "covariance_df", "fit_unknown_z", "run_hte_scenario",
    "treatment_effect",
    "DataFormatError", "LoadedModel", "load_model", "read_delimited",
    "save_model", "write_table",
    "__version__",
]
