"""Attention-weighted autoencoder with domain transfer for tabular
brain-ROI features, plus classical domain-adaptation baselines and an
evaluation toolkit.
"""

from .data import (
    Dataset,
    FeatureStats,
    apply_standardizer,
    by_domain,
    dataset_from_arrays,
    fit_standardizer,
    load_csv,
    split_stratified,
    synth_domains,
    write_csv,
)
from .evaluation import (
    Confusion,
    MetricsReport,
    RoiRanking,
    auc,
    confusion,
    evaluate_predictions,
    metrics,
    rank_rois,
)
from .losses import KernelSpec, cross_entropy, l1_recon, mmd_sq
from .network import (
    ForwardCache,
    ModelParams,
    attention_forward,
    backward,
    classifier_backward,
    classify,
    encode,
    forward,
    init_params,
    load_model,
    save_model,
)
from .roi_names import AAL90
from .training import (
    AdamState,
    Scores,
    TrainConfig,
    TrainHistory,
    adam_step,
    export_latent,
    finetune,
    predict,
    score,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AAL90",
    "AdamState",
    "Confusion",
    "Dataset",
    "FeatureStats",
    "ForwardCache",
    "KernelSpec",
    "MetricsReport",
    "ModelParams",
    "RoiRanking",
    "Scores",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "apply_standardizer",
    "attention_forward",
    "auc",
    "backward",
    "by_domain",
    "classifier_backward",
    "classify",
    "confusion",
    "cross_entropy",
    "dataset_from_arrays",
    "encode",
    "evaluate_predictions",
    "export_latent",
    "finetune",
    "fit_standardizer",
    "forward",
    "init_params",
    "l1_recon",
    "load_csv",
    "load_model",
    "metrics",
    "mmd_sq",
    "predict",
    "rank_rois",
    "save_model",
    "score",
    "split_stratified",
    "synth_domains",
    "train",
    "write_csv",
]
