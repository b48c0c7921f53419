"""Local average regression with divide-and-conquer block averaging."""

from .avm import (
    AvmModel,
    BatchPrediction,
    KnnRule,
    Variant,
    data_dependent_bandwidth,
    fit_avm,
    knn_k_rule,
    nwk_bandwidth_rule,
    predict_batch,
)
from .core import (
    Dataset,
    EstimatorConfig,
    EstimatorFamily,
    InvalidDataError,
    mse,
    read_csv,
    write_csv,
)
from .datagen import (
    RoadNetworkData,
    TargetKind,
    TargetModel,
    eval_target,
    generate_dataset,
    generate_test_set,
    load_road_network,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    Scenario,
    SummaryTable,
    compute_ge_le_ae,
    format_summary_text,
    knn_admissible_m,
    run_experiment,
    summarize,
    write_result_csv,
    write_summary_csv,
)
from .kernels import KernelKind
from .lar import WeightVector, nwk_weights
from .partition import (
    PartitionedDataset,
    default_candidates,
    mesh_norm_report,
    random_partition,
)
from .tuning import CvConfig, cv_score_grid, cv_select_constant, default_constant_grid

__version__ = "0.1.0"

__all__ = [
    "AvmModel",
    "BatchPrediction",
    "CvConfig",
    "Dataset",
    "EstimatorConfig",
    "EstimatorFamily",
    "ExperimentConfig",
    "ExperimentResult",
    "InvalidDataError",
    "KernelKind",
    "KnnRule",
    "PartitionedDataset",
    "RoadNetworkData",
    "Scenario",
    "SummaryTable",
    "TargetKind",
    "TargetModel",
    "Variant",
    "WeightVector",
    "compute_ge_le_ae",
    "cv_score_grid",
    "cv_select_constant",
    "data_dependent_bandwidth",
    "default_candidates",
    "default_constant_grid",
    "eval_target",
    "fit_avm",
    "format_summary_text",
    "generate_dataset",
    "generate_test_set",
    "knn_admissible_m",
    "knn_k_rule",
    "load_road_network",
    "mesh_norm_report",
    "mse",
    "nwk_bandwidth_rule",
    "nwk_weights",
    "predict_batch",
    "random_partition",
    "read_csv",
    "run_experiment",
    "summarize",
    "write_csv",
    "write_result_csv",
    "write_summary_csv",
]
