"""marginlab: a numerical laboratory for normalized-softmax margin losses.

Five loss variants (plain normalized softmax, CosFace, ArcFace, MV-softmax
and NPCFace's negative-positive collaborative margins) with exact analytic
gradients, a synthetic hypersphere training harness, hardness diagnostics,
and face-verification-style evaluation metrics.
"""

__version__ = "0.1.0"

from .data import SyntheticDatasetSpec, generate_dataset
from .geometry import cos_shifted, cosine_matrix, normalize, normalize_rows
from .hardness import RowScan, collaborative_margin, compute_mask, row_scan
from .losses import (
    Frozen,
    GradientBundle,
    LossConfig,
    Variant,
    backward_cosines,
    backward_logits,
    backward_parameters,
    finite_difference_check,
    forward_logits,
    freeze,
    loss_and_gradients,
    loss_value,
    softmax_probabilities,
)
from .metrics import (
    build_pairs,
    kfold_threshold_accuracy,
    rank1_identification,
    roc,
    tar_at_far,
)
from .model import EmbeddingNet, ModelSpec
from .optim import OptimizerState, TrainingSchedule, sgd_step
from .train import TrainingLog, TrainResult, train

__all__ = [
    "__version__",
    "SyntheticDatasetSpec", "generate_dataset",
    "cos_shifted", "cosine_matrix", "normalize", "normalize_rows",
    "compute_mask", "collaborative_margin", "RowScan", "row_scan",
    "GradientBundle", "LossConfig", "Variant", "Frozen", "freeze",
    "forward_logits", "softmax_probabilities", "loss_value",
    "backward_logits", "backward_cosines", "backward_parameters",
    "loss_and_gradients", "finite_difference_check",
    "build_pairs", "roc", "tar_at_far", "rank1_identification",
    "kfold_threshold_accuracy",
    "EmbeddingNet", "ModelSpec",
    "OptimizerState", "TrainingSchedule", "sgd_step",
    "TrainingLog", "TrainResult", "train",
]
