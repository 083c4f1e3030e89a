"""Desk-scale training loop: synthetic batches through the embedding net,
normalized-softmax margin loss, SGD with momentum on every parameter
including the classifier rows.

Each iteration re-mines the hard mask and the collaborative margins from the
current cosines, then treats them as constants for the backward pass. Class
weights are stored raw and normalized only inside the cosine computation.
Each iteration runs ``losses.head_forward`` and ``losses.head_backward``,
the same head pipeline the gradient checks test.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import hardness, losses
from .data import SyntheticDatasetSpec, generate_dataset
from .errors import DivergedLoss, ZeroNorm
from .geometry import cosine_matrix, normalize_rows, row_blocks
from .model import EmbeddingNet, ModelSpec, init_class_weights
from .optim import OptimizerState, TrainingSchedule, sgd_step
from .seeds import named_rng


@dataclass
class EpochDiagnostics:
    """One epoch's row of ``diagnostics.csv``, in column order, followed by
    the notes that say why a statistic is None (the epoch lacks the samples
    to define it)."""

    epoch: int
    mean_loss: float
    lr: float
    train_accuracy: float
    n_misclassified: int
    pearson_r: float | None
    mean_pos_distance: float | None
    mean_neg_distance: float | None
    overlap_rate: float | None
    hardness_note: str | None
    overlap_note: str | None


@dataclass
class TrainingLog:
    """Every iteration's loss plus one diagnostics row per epoch."""

    iterations: list = field(default_factory=list)  # (iteration, epoch, loss)
    epochs: list = field(default_factory=list)      # EpochDiagnostics

    def losses(self) -> np.ndarray:
        return np.array([row[2] for row in self.iterations])

    def epoch_mean_loss(self, epoch: int) -> float:
        vals = [row[2] for row in self.iterations if row[1] == epoch]
        return float(np.mean(vals))


@dataclass
class TrainResult:
    model: EmbeddingNet
    class_weights: np.ndarray
    log: TrainingLog


def full_set_cosines(model: EmbeddingNet, class_weights, inputs):
    """Cosines of every input against every class, yielded in the row blocks
    of ``geometry.row_blocks`` (about 1 MiB each); the forward pass and both
    normalizations run once, and only the unit rows are kept. Every block is
    written into one array sized for the largest block, so a consumer must
    be done with one block before the next."""
    features = normalize_rows(model.forward(inputs)[0])
    weights = normalize_rows(class_weights)
    blocks = row_blocks(features.shape[0], weights.shape[0])
    buffer = np.empty((max((b.stop - b.start for b in blocks), default=0), weights.shape[0]))
    for rows in blocks:
        yield cosine_matrix(features[rows], weights, out=buffer[:rows.stop - rows.start])


def epoch_diagnostics(epoch, lr, mean_loss, model, class_weights, inputs, labels,
                      m0) -> EpochDiagnostics:
    """The diagnostics row of the full training set. A statistic the epoch
    cannot define stays None with a note (``RowScan.statistics``) instead of
    aborting the run."""
    scan = hardness.row_scan(full_set_cosines(model, class_weights, inputs), labels, m0)
    statistics, _ = scan.statistics()
    return EpochDiagnostics(epoch, mean_loss, lr, scan.accuracy(labels), **statistics)


def train(experiment) -> TrainResult:
    """Run the full schedule described by an ExperimentConfig.

    Deterministic given the config seeds. Raises DivergedLoss (with the
    partial log attached) the moment a non-finite loss appears or the
    embeddings collapse to zero norm.
    """
    dataset_spec: SyntheticDatasetSpec = experiment.dataset
    model_spec: ModelSpec = experiment.model
    config: losses.LossConfig = experiment.loss
    schedule: TrainingSchedule = experiment.schedule

    inputs, labels = generate_dataset(dataset_spec)
    model = EmbeddingNet(model_spec)
    class_weights = init_class_weights(
        experiment.n_classes, model_spec.embedding_dim, model_spec.init_scale,
        experiment.classifier_seed,
    )
    params = model.params + [class_weights]
    state = OptimizerState.for_params(
        params, lr=schedule.lr_initial,
        momentum=experiment.momentum, weight_decay=experiment.weight_decay,
    )

    log = TrainingLog()
    iteration = 0
    try:
        for epoch in range(1, schedule.total_epochs + 1):
            state.lr = schedule.lr_at(epoch)
            order = named_rng(experiment.shuffle_seed, "shuffle", epoch).permutation(len(labels))
            for start in range(0, len(labels), schedule.batch_size):
                idx = order[start:start + schedule.batch_size]
                batch, batch_labels = inputs[idx], labels[idx]

                emb, cache = model.forward(batch)
                try:
                    loss, head = losses.head_forward(emb, class_weights, batch_labels, config)
                except ZeroNorm as exc:
                    # a batch row that embeds to exact zeros because no hidden unit fires
                    if (model.n_layers > 1 and exc.row < len(emb) and not emb[exc.row].any()
                            and not cache["activations"][-2][exc.row].any()):
                        exc.args = (f"{exc}; its input has no active hidden unit",)
                    raise

                iteration += 1
                log.iterations.append((iteration, epoch, loss))
                if not math.isfinite(loss):
                    raise DivergedLoss(
                        f"non-finite loss at iteration {iteration} (epoch {epoch})", log=log
                    )

                bundle = losses.head_backward(loss, head)
                grads = model.backward(cache, bundle.d_features) + [bundle.d_weights]
                sgd_step(state, params, grads)

            log.epochs.append(epoch_diagnostics(
                epoch, state.lr, log.epoch_mean_loss(epoch),
                model, class_weights, inputs, labels, config.m0,
            ))
    except ZeroNorm as exc:
        raise DivergedLoss(
            f"collapsed embeddings after iteration {iteration} (epoch {epoch}): {exc}", log=log
        ) from exc
    return TrainResult(model=model, class_weights=class_weights, log=log)


def end_to_end_check(model: EmbeddingNet, class_weights, inputs, labels,
                     config: losses.LossConfig, epsilon: float = 1e-5,
                     corrupt_first_gradient: float = 0.0):
    """Central-difference check of the composite loss(model(inputs)) gradient
    over every model parameter and classifier row.

    The mask and collaborative margins are frozen from the unperturbed
    forward pass. The perturbed copies of a parameter run stacked through
    its layer and the ones after it, from the activations ``forward``
    cached. Returns (max_relative_error, worst_coordinate_name).
    ``corrupt_first_gradient`` is a negative-control hook: it biases one
    analytic entry so a working checker must report a failure.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    class_weights = np.array(class_weights, dtype=np.float64)

    emb, cache = model.forward(inputs)
    loss, head = losses.head_forward(emb, class_weights, labels, config)
    bundle = losses.head_backward(loss, head)
    param_grads = model.backward(cache, bundle.d_features)
    if corrupt_first_gradient:
        param_grads[0] = param_grads[0].copy()
        param_grads[0].flat[0] += corrupt_first_gradient

    n, d = emb.shape
    activations = cache["activations"]

    def layer_losses(i, kind):
        def losses_of(stack):
            weight, bias = model.weights[i], model.biases[i]
            if kind == "weight":
                weight = stack.reshape(-1, *weight.shape)
            else:
                bias = stack.reshape(-1, 1, bias.size)
            stacked = model.forward_from(i, activations[i], weight, bias)
            return losses.stacked_losses(head, features=stacked.reshape(-1, d))
        return losses_of

    layers = [(i, kind) for i in range(model.n_layers) for kind in ("weight", "bias")]
    tensors = [(f"layer{i}.{kind}", param, grad, layer_losses(i, kind))
               for (i, kind), param, grad in zip(layers, model.params, param_grads)]
    tensors.append(("class_weights", class_weights, bundle.d_weights,
                    lambda stack: losses.stacked_losses(head, weights=stack)))
    # per copy: the tensor itself, its activations (N x width), the cosines
    c = class_weights.shape[0]
    copy_entries = max(max(p.size for p in model.params), c * d,
                       n * max(c, *model.spec.layer_widths))
    return losses.central_difference(tensors, epsilon, copy_entries)
