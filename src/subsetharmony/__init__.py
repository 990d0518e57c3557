"""subsetharmony: harmony-search wrapper feature selection with baselines.

A small numpy toolkit for selecting fixed-size feature subsets by wrapping
a classifier (from-scratch MLP or deterministic kNN) in stratified
cross-validation and searching the subset space with discrete harmony
search, plus GA, binary PSO, and PCA baselines and a seeded experiment
harness for grid, comparison, and fraction-sweep reports.
"""

from .baselines import (
    GaConfig,
    PcaConfig,
    PcaModel,
    PcaSweepResult,
    PsoConfig,
    evaluate_components,
    ga_run,
    pca_fit,
    pca_run,
    pca_transform,
    pso_run,
)
from .classifiers import (
    KnnConfig,
    MlpConfig,
    MlpModel,
    TrainingDivergedError,
    default_hidden_neurons,
    knn_predict,
    mlp_gradient,
    mlp_loss,
    mlp_predict,
    mlp_train,
)
from .dataset import (
    Dataset,
    DatasetError,
    load_csv,
    project,
    standardize,
    stratified_kfold,
    take_rows,
    write_csv,
)
from .harmony import (
    Harmony,
    HsConfig,
    RunHistory,
    hs_run,
)
from .harness import (
    ComparisonReport,
    ComparisonRow,
    FractionSweepReport,
    GridReport,
    compare_optimizers,
    emit_report,
    fraction_to_size,
    read_comparison_csv,
    read_fractions_csv,
    read_grid_csv,
    render_report,
    sweep_fractions,
    sweep_grid,
)
from .seeding import derive_seed
from .subsets import FeatureSubset
from .synth import blob_dataset, planted_dataset
from .wrapper import (
    EvaluationResult,
    LeaveOneOutObjective,
    ObjectiveConfig,
    SubsetObjective,
    accuracy,
    confidence_interval,
    evaluate_subset,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ComparisonRow",
    "Dataset",
    "DatasetError",
    "EvaluationResult",
    "FeatureSubset",
    "FractionSweepReport",
    "GaConfig",
    "GridReport",
    "Harmony",
    "HsConfig",
    "KnnConfig",
    "LeaveOneOutObjective",
    "MlpConfig",
    "MlpModel",
    "ObjectiveConfig",
    "PcaConfig",
    "PcaModel",
    "PcaSweepResult",
    "PsoConfig",
    "RunHistory",
    "SubsetObjective",
    "TrainingDivergedError",
    "accuracy",
    "blob_dataset",
    "compare_optimizers",
    "confidence_interval",
    "default_hidden_neurons",
    "derive_seed",
    "emit_report",
    "evaluate_components",
    "evaluate_subset",
    "fraction_to_size",
    "ga_run",
    "hs_run",
    "knn_predict",
    "load_csv",
    "mlp_gradient",
    "mlp_loss",
    "mlp_predict",
    "mlp_train",
    "pca_fit",
    "pca_run",
    "pca_transform",
    "planted_dataset",
    "project",
    "pso_run",
    "read_comparison_csv",
    "read_fractions_csv",
    "read_grid_csv",
    "render_report",
    "sweep_fractions",
    "sweep_grid",
    "standardize",
    "stratified_kfold",
    "take_rows",
    "write_csv",
]
