"""Zero-shot classification over precomputed features.

A semantic embedding branch fuses per-class vectors from several
modalities into the visual feature space; unseen-class samples are
classified by nearest embedded prototype under a configurable distance
metric. Includes a synthetic multi-modal dataset generator and an
ablation harness.
"""

from zsl_embed.data import (
    Dataset,
    FeatureMatrix,
    SemanticTable,
    class_prototypes,
    load_dataset,
    load_feature_matrix,
    load_semantic_table,
    load_split,
    save_dataset,
    save_feature_matrix,
    save_semantic_table,
    save_split,
)
from zsl_embed.evaluation import (
    AblationCell,
    EvalResult,
    ablate,
    emit_report,
    evaluate,
    hubness_skewness,
)
from zsl_embed.metric import (
    MetricKind,
    cosine_sim,
    ec_distance,
    metric_distance,
    pairwise_distances,
    top_k_classes,
)
from zsl_embed.network import (
    EmbeddingModel,
    NetConfig,
    ParamBuffer,
    ReluStack,
    gradient_check,
    init_model,
)
from zsl_embed.synthetic import ModalitySpec, SynthConfig, generate
from zsl_embed.training import (
    Adam,
    SgdMomentum,
    TrainConfig,
    TrainHistory,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "AblationCell",
    "Adam",
    "Dataset",
    "EmbeddingModel",
    "EvalResult",
    "FeatureMatrix",
    "MetricKind",
    "ModalitySpec",
    "NetConfig",
    "ParamBuffer",
    "ReluStack",
    "SemanticTable",
    "SgdMomentum",
    "SynthConfig",
    "TrainConfig",
    "TrainHistory",
    "ablate",
    "class_prototypes",
    "cosine_sim",
    "ec_distance",
    "emit_report",
    "evaluate",
    "generate",
    "gradient_check",
    "hubness_skewness",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "load_feature_matrix",
    "load_semantic_table",
    "load_split",
    "metric_distance",
    "pairwise_distances",
    "save_checkpoint",
    "save_dataset",
    "save_feature_matrix",
    "save_semantic_table",
    "save_split",
    "top_k_classes",
    "train",
]
