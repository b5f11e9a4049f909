"""Sparse feature selection and kernel classification toolkit.

Numerical core: coordinate-descent solvers for L1 and L1+L2 penalized
least squares, an SVM-reduction route to the same optimum, PCA, a kernel
extreme learning machine, and a small from-scratch CNN for 2.5D volume
patches. The pipeline layer adds k-fold evaluation and paired selector
comparisons; the `enetpipe` console script exposes the batch workflow.
"""

from .cnn import (DEFAULT_CENTER_COUNT, DEFAULT_CHANNELS, DEFAULT_INPUT_SIZE,
                  CnnConfig, CnnNetwork, CnnTrainResult, cnn_forward_batch,
                  cnn_init, cnn_loss_grad, cnn_train_sgd,
                  extract_image_features, load_cnn, save_cnn)
from .data import (StandardizationRecord, SyntheticSpec, Volume3D,
                   apply_standardization, duplicate_columns,
                   generate_synthetic, load_feature_csv, load_volume_raw3d,
                   save_feature_csv, save_volume_raw3d, standardize_columns,
                   validate_feature_matrix, validate_labels)
from .elm import (DEFAULT_RIDGE_C, ElmModel, elm_predict, elm_train,
                  predicted_labels)
from .errors import (ConfigError, ContractError, DataError, DataFormatError,
                     DimensionError, EnetPipeError, InsufficientDataError,
                     NumericalError, UndefinedMetricError)
from .patches import PATCH_SIZE, default_patch_centers, extract_patch_2_5d
from .pca import PcaModel, pca_fit, pca_inverse, pca_transform
from .pipeline import (ComparisonBlock, EvaluationReport, FoldOutcome,
                       PipelineConfig, accuracy, compare_selectors,
                       holdout_split, kfold_split, run_pipeline,
                       stddev_population)
from .report import (REPORT_FORMATS, emit_report, load_report_json,
                     report_from_json, report_to_json)
from .rng import PortableRng
from .solvers import (PenaltyConfig, SolverResult, elastic_net_fit_cd,
                      elastic_net_objective, kkt_violation, lasso_fit,
                      select_support, soft_threshold)
from .sven import elastic_net_fit_svm_reduction

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CENTER_COUNT", "DEFAULT_CHANNELS", "DEFAULT_INPUT_SIZE",
    "CnnConfig", "CnnNetwork", "CnnTrainResult", "cnn_forward_batch",
    "cnn_init", "cnn_loss_grad", "cnn_train_sgd", "extract_image_features",
    "load_cnn", "save_cnn",
    "StandardizationRecord", "SyntheticSpec", "Volume3D",
    "apply_standardization", "duplicate_columns", "generate_synthetic",
    "load_feature_csv", "load_volume_raw3d", "save_feature_csv",
    "save_volume_raw3d", "standardize_columns", "validate_feature_matrix",
    "validate_labels",
    "DEFAULT_RIDGE_C", "ElmModel", "elm_predict", "elm_train",
    "predicted_labels",
    "ConfigError", "ContractError", "DataError", "DataFormatError",
    "DimensionError", "EnetPipeError", "InsufficientDataError",
    "NumericalError", "UndefinedMetricError",
    "PATCH_SIZE", "default_patch_centers", "extract_patch_2_5d",
    "PcaModel", "pca_fit", "pca_inverse", "pca_transform",
    "ComparisonBlock", "EvaluationReport", "FoldOutcome", "PipelineConfig",
    "accuracy", "compare_selectors", "holdout_split", "kfold_split",
    "run_pipeline", "stddev_population",
    "REPORT_FORMATS", "emit_report", "load_report_json", "report_from_json",
    "report_to_json",
    "PortableRng",
    "PenaltyConfig", "SolverResult", "elastic_net_fit_cd",
    "elastic_net_objective", "kkt_violation", "lasso_fit",
    "select_support", "soft_threshold",
    "elastic_net_fit_svm_reduction",
    "__version__",
]
