"""Two-stage deletion classifier: sparse text stage, derived open-text
feature, dense stage, and ablation."""

from .bundle import ModelBundle, load_bundle, save_bundle
from .pipeline import (
    DenseScaler,
    EvalMetrics,
    TrainConfig,
    ablate,
    balanced_sample,
    evaluate,
    fit_and_evaluate,
    prepare_training_data,
    replied_sample,
    stage2_design,
    stratified_folds,
    stratified_split,
    train_stage2,
    two_stage_train,
)
from .smo import RbfSvmModel
from .stage1 import (
    LinearSvmModel,
    NaiveBayesModel,
    SparseRows,
    derived_feature,
    train_stage1,
)
from .trees import AdaBoostModel, DecisionTree

__all__ = [
    "AdaBoostModel",
    "DecisionTree",
    "DenseScaler",
    "EvalMetrics",
    "LinearSvmModel",
    "ModelBundle",
    "NaiveBayesModel",
    "RbfSvmModel",
    "SparseRows",
    "TrainConfig",
    "ablate",
    "balanced_sample",
    "derived_feature",
    "evaluate",
    "fit_and_evaluate",
    "load_bundle",
    "prepare_training_data",
    "replied_sample",
    "save_bundle",
    "stage2_design",
    "stratified_folds",
    "stratified_split",
    "train_stage1",
    "train_stage2",
    "two_stage_train",
]
