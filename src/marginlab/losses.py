"""Forward and backward passes for the five normalized-softmax margin losses.

Variants
--------
norm_softmax   plain rescaled cosine logits
cosface        additive cosine margin on the positive logit
arcface        additive angular margin on the positive logit
mv_softmax     arcface positive plus multiplicative emphasis s*(t*cos + t - 1)
               on masked hard-negative logits (an additive-cosine positive is
               available via ``mv_positive="cos"``)
npcface        per-sample collaborative positive margin plus disentangled
               hard-negative emphasis s*(t*cos + alpha)

``LossConfig._rule`` is the per-variant logit table; its ``label_logits``
maps the label entries' cosines to their logits, or to their slopes.

The hard mask and the collaborative margins are *frozen* auxiliaries: they
are recomputed from the current cosines every iteration but treated as
constants by every backward pass, so no gradient flows through the mining
step. ``head_forward`` / ``head_backward`` are the one pipeline from raw
features and weights to the loss and its gradients; training, the gradient
checks and ``loss_and_gradients`` all call them. ``central_difference``
checks them with the auxiliaries held fixed: ``stacked_losses`` runs the
same logit map, softmax and per-row loss over many perturbed copies of a
batch in one pass. The head returns fresh arrays on every call.

Every stage after the cosines reads the labels, mask and margins from one
checked ``Frozen`` record (``freeze``): the label entries' flat indices, the
margins and the mask's flat indices on its minority side, the hard entries
while under half (the sparse route, where the margins sum them too), else
the easy ones (the dense route). The record carries the N x C ``shape`` it
indexes, and each stage takes its matrix through ``Frozen.fit``, which
rejects any other shape. Both hard-entry blends map the majority over the
whole matrix and put the minority's values at those indices.
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigMismatch, DimensionMismatch
from .geometry import cos_shifted, cosine_matrix, normalize_rows
from .hardness import collaborative_margin, compute_mask

PROB_FLOOR = 1e-300
# central-difference steps the gradient checks accept, both ends inclusive
EPSILON_RANGE = (1e-7, 1e-4)
# float64 entries of the largest array one chunk of a gradient check's
# perturbed copies builds (64 KB). Larger chunks raise the peak RSS of the
# benchmark's gradcheck workload (128 KB: +0.7 MB, 2 MB: +9 MB) and save
# at most a fifth of a check's time.
STACK_ENTRIES = 1 << 13


class Variant(str, Enum):
    NORM_SOFTMAX = "norm_softmax"
    COSFACE = "cosface"
    ARCFACE = "arcface"
    MV_SOFTMAX = "mv_softmax"
    NPCFACE = "npcface"


#: variants whose negative logits depend on the hard mask
MASKED_VARIANTS = (Variant.MV_SOFTMAX, Variant.NPCFACE)


class _Rule(NamedTuple):
    """What a variant does to the logits (``LossConfig._rule``); every head
    stage reads this one decision, forward and backward.

    mines          hard negatives (the frozen mask) get s*(t*cos + hard_offset)
    hard_offset    t - 1 (mv_softmax) or alpha (npcface)
    positive       None (plain s*cos), "cos" (s*(cos - m)) or "arc" (s*cos(theta + m))
    collaborative  the positive margin is the mined m_i instead of config.m
    """

    mines: bool
    hard_offset: float
    positive: str | None
    collaborative: bool

    def require(self, config, frozen):
        """Raise ConfigMismatch when ``frozen`` lacks an auxiliary the variant reads."""
        if self.mines and frozen.few is None:
            raise ConfigMismatch(f"{config.variant.value} requires a hard mask")
        if self.collaborative and frozen.margins is None:
            raise ConfigMismatch("npcface requires collaborative margins")

    def label_logits(self, config, pos_cos, margins, slope=False):
        """Logits of the label entries from their cosines ``pos_cos``, or
        with ``slope`` their derivative in the cosine."""
        if self.positive == "cos":
            return config.s if slope else config.s * (pos_cos - config.m)
        m = margins if self.collaborative else config.m
        return config.s * cos_shifted(pos_cos, m, slope)


@dataclass(frozen=True)
class LossConfig:
    """Variant selector plus every scalar hyperparameter.

    s      logit re-scaling (softmax sharpness)
    m      fixed positive margin (cosface / arcface / mv_softmax)
    t      multiplicative emphasis on hard-negative logits, >= 1
    alpha  additive emphasis on hard-negative logits (npcface)
    m0     basic collaborative margin (npcface; also the mask criterion)
    m1     collaborative margin range (npcface)
    mv_positive  "arc" or "cos": positive-margin flavor for mv_softmax
    """

    variant: Variant = Variant.NPCFACE
    s: float = 64.0
    m: float = 0.5
    t: float = 1.1
    alpha: float = 0.25
    m0: float = 0.4
    m1: float = 0.2
    mv_positive: str = "arc"

    def __post_init__(self):
        # an int scalar would make the logit and factor tables integer arrays
        for name in ("s", "m", "t", "alpha", "m0", "m1"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 < self.s < np.inf:
            raise ValueError(f"s must be positive and finite, got {self.s}")
        if not 1 <= self.t < np.inf:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if not 0 <= self.m < np.pi:
            raise ValueError(f"m must lie in [0, pi), got {self.m}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 <= self.m0 < np.pi:
            raise ValueError(f"m0 must lie in [0, pi), got {self.m0}")
        if not (self.m1 >= 0 and self.m0 + self.m1 < np.pi):
            raise ValueError(f"need 0 <= m1 and m0 + m1 < pi, got m1={self.m1}")
        if self.mv_positive not in ("arc", "cos"):
            raise ValueError(f"mv_positive must be 'arc' or 'cos', got {self.mv_positive!r}")

    @cached_property
    def _rule(self) -> _Rule:
        """The variant's logit map; decided once per config because the
        gradient checks read it on every perturbed evaluation."""
        variant = self.variant
        if variant is Variant.NORM_SOFTMAX:
            positive = None
        elif variant is Variant.COSFACE or (variant is Variant.MV_SOFTMAX and self.mv_positive == "cos"):
            positive = "cos"
        else:
            positive = "arc"
        hard_offset = self.alpha if variant is Variant.NPCFACE else self.t - 1.0
        return _Rule(variant in MASKED_VARIANTS, hard_offset, positive, variant is Variant.NPCFACE)


@dataclass
class GradientBundle:
    """Gradients of the batch loss at every stage of the pipeline.

    d_features / d_weights are with respect to the *raw*, pre-normalization
    arrays. Each row of d_logits sums to zero: the softmax gradient identity.
    """

    loss: float
    d_logits: np.ndarray
    d_cosines: np.ndarray
    d_features: np.ndarray
    d_weights: np.ndarray


class Frozen(NamedTuple):
    """One batch's frozen auxiliaries as flat positions in its N x C
    matrices, of ``shape`` (N, C): each row's label entry (row * C + label),
    npcface's collaborative margins and, given a mask, its minority side:
    the hard entries on the sparse route (``sparse``), else the easy ones.
    Both index arrays ascend."""

    shape: tuple
    label: np.ndarray
    margins: np.ndarray | None = None
    few: np.ndarray | None = None
    sparse: bool = True

    def masked(self, mask) -> "Frozen":
        """This record with the minority side of ``mask``, a boolean of its matrix's shape."""
        sparse = np.count_nonzero(mask) < _SPARSE_HARD * mask.size
        return self._replace(few=np.flatnonzero(mask if sparse else ~mask), sparse=sparse)

    def fit(self, array) -> np.ndarray:
        """``array`` as float64; raises DimensionMismatch unless it is the
        N x C matrix the record indexes."""
        array = np.asarray(array, dtype=np.float64)
        if array.shape != self.shape:
            raise DimensionMismatch(f"record for {self.shape} does not fit {array.shape}")
        return array


# Below this share of hard entries the sparse route, at or above it the dense
# route; an entry gets the same float operations on either.
_SPARSE_HARD = 0.5


def freeze(shape, labels, mask=None, margins=None) -> Frozen:
    """The ``Frozen`` record of unchecked labels, mask and margins; raises
    DimensionMismatch when one does not fit an N x C ``shape``."""
    n, c = shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels shape {labels.shape}, expected ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DimensionMismatch("label out of range for the class count")
    if margins is not None and np.shape(margins) != (n,):
        raise DimensionMismatch(f"margins shape {np.shape(margins)}, expected ({n},)")
    frozen = Frozen((n, c), np.arange(n) * c + labels.astype(np.intp), margins)
    if mask is None:
        return frozen
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != frozen.shape:
        raise DimensionMismatch(f"mask shape {mask.shape}, expected {frozen.shape}")
    return frozen.masked(mask)


def _blend(source, frozen, s, hard_map):
    """Fresh array of ``source * s`` at the easy entries and ``hard_map`` of
    ``source`` at the hard ones: the majority's elementwise map runs over
    the whole matrix, the minority's values are put at their indices."""
    few = frozen.few
    if frozen.sparse:
        out = source * s
        np.put(out, few, hard_map(source.take(few)))
    else:
        out = hard_map(source)
        np.put(out, few, source.take(few) * s)
    return out


def forward_logits(cosines, frozen: Frozen, config: LossConfig) -> np.ndarray:
    """Margined logit matrix of one batch under its ``Frozen`` record, whose
    hard entries and margins only mv_softmax / npcface read."""
    cosines = frozen.fit(cosines)
    rule = config._rule
    rule.require(config, frozen)
    logits = config.s * cosines if not rule.mines else _blend(
        cosines, frozen, config.s,
        lambda hard_cos: config.s * (config.t * hard_cos + rule.hard_offset))
    if rule.positive:
        np.put(logits, frozen.label, rule.label_logits(
            config, cosines.take(frozen.label), frozen.margins))
    return logits


def softmax_probabilities(logits, out=None) -> np.ndarray:
    """Row-stable softmax: subtract the row max before exponentiating.

    Written into ``out`` when given (``out=logits`` works in place).
    """
    logits = np.asarray(logits, dtype=np.float64)
    probs = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def row_losses(probs, frozen: Frozen) -> np.ndarray:
    """Cross-entropy -log p_y of every row, at the record's label entries;
    probabilities floored at 1e-300."""
    probs = frozen.fit(probs)
    return -np.log(np.maximum(probs.take(frozen.label), PROB_FLOOR))


def loss_value(probs, frozen: Frozen) -> float:
    """Mean cross-entropy over the rows (``row_losses``)."""
    return float(np.mean(row_losses(probs, frozen)))


def backward_logits(probs, frozen: Frozen) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits.

    Entry (i, k) = (p_ik - [k == y_i]) / N, so every row sums to zero.
    """
    probs = frozen.fit(probs)
    n = probs.shape[0]
    grad = probs / n
    np.put(grad, frozen.label, (probs.take(frozen.label) - 1.0) / n)
    return grad


def backward_cosines(d_logits, cosines, frozen: Frozen, config: LossConfig) -> np.ndarray:
    """Chain ``d_logits`` through the margined logit map: returns dL/dcos,
    under the ``Frozen`` record that produced the matching forward logits."""
    d_logits = np.asarray(d_logits, dtype=np.float64)
    cosines = frozen.fit(cosines)
    if d_logits.shape != cosines.shape:
        raise DimensionMismatch(f"d_logits shape {d_logits.shape}, expected {cosines.shape}")
    rule = config._rule
    rule.require(config, frozen)
    d_cosines = d_logits * config.s if not rule.mines else _blend(
        d_logits, frozen, config.s, lambda hard_d: hard_d * (config.s * config.t))
    if rule.positive:
        np.put(d_cosines, frozen.label, d_logits.take(frozen.label) * rule.label_logits(
            config, cosines.take(frozen.label), frozen.margins, slope=True))
    return d_cosines


def backward_parameters(d_cosines, cache: "HeadCache"):
    """Pull dL/dcos back through normalization onto the raw arrays.

    cos_ij = <x_i/|x_i|, w_j/|w_j|>, so
        dcos/dx_i = (w_hat_j - cos_ij * x_hat_i) / |x_i|
    and symmetrically for w_j, from the unit rows and row norms
    ``head_forward`` cached. The mixes sum_j g_ij cos_ij = <x_hat_i, (G W_hat)_i>
    and sum_i g_ij cos_ij = <w_hat_j, (G^T X_hat)_j> come from the two products
    the gradients need anyway. Returns (d_features, d_weights).
    """
    d_cosines = np.asarray(d_cosines, dtype=np.float64)
    x_hat, w_hat = cache.features, cache.weights
    pulled_x = d_cosines @ w_hat
    pulled_w = d_cosines.T @ x_hat
    row_mix = np.einsum("ij,ij->i", pulled_x, x_hat)
    col_mix = np.einsum("ij,ij->i", pulled_w, w_hat)
    d_features = (pulled_x - row_mix[:, None] * x_hat) / cache.feature_norms[:, None]
    d_weights = (pulled_w - col_mix[:, None] * w_hat) / cache.weight_norms[:, None]
    return d_features, d_weights


def frozen_auxiliaries(cosines, labels, config: LossConfig) -> Frozen:
    """The batch's ``Frozen`` record with the hard mask a variant mines from
    ``cosines`` (none for the plain variants) and npcface's margins."""
    frozen = freeze(cosines.shape, labels)      # before compute_mask reads the labels
    rule = config._rule
    if not rule.mines:
        return frozen
    mask = compute_mask(cosines, labels, config.m0)
    frozen = frozen.masked(mask)
    if rule.collaborative:
        frozen = frozen._replace(margins=collaborative_margin(
            cosines, mask, config.m0, config.m1, hard=frozen.few if frozen.sparse else None))
    return frozen


@dataclass
class HeadCache:
    """What ``head_backward`` reads from the forward pass: the unit rows and
    raw row norms of both inputs, the cosines, the batch's ``Frozen`` record
    (the only copy of its mask, as indices) and the softmax probabilities."""

    features: np.ndarray
    weights: np.ndarray
    feature_norms: np.ndarray
    weight_norms: np.ndarray
    config: LossConfig
    cosines: np.ndarray
    frozen: Frozen
    probs: np.ndarray
    _tiles: dict = field(default_factory=dict, repr=False)

    def tiled(self, groups):
        """The ``Frozen`` record of ``groups`` copies of the batch stacked
        row-wise, of shape (groups * N, C), tiled once per number of copies."""
        if groups not in self._tiles:
            (n, c), label, margins, few, sparse = self.frozen
            shifts = np.arange(groups)[:, None] * (n * c)      # flat offset of each copy
            shift = lambda a: None if a is None else (shifts + a).ravel()
            self._tiles[groups] = Frozen((groups * n, c), shift(label), None if margins is None
                                         else np.tile(margins, groups), shift(few), sparse)
        return self._tiles[groups]


def head_forward(raw_features, raw_weights, labels, config: LossConfig, mask=None, margins=None):
    """Batch loss from raw features and weights: returns (loss, HeadCache).

    When both ``mask`` and ``margins`` are omitted they are mined from the
    current cosines (the per-iteration semantics). Pass them to evaluate the
    head under given auxiliaries: a cache's frozen ones, or a chosen mask such
    as an empty one, under which mv_softmax reduces to arcface; a masked
    variant given margins without a mask raises ConfigMismatch. ``freeze``
    checks the labels and the given auxiliaries once.
    """
    features, feature_norms = normalize_rows(raw_features, return_norms=True)
    weights, weight_norms = normalize_rows(raw_weights, return_norms=True)
    cosines = cosine_matrix(features, weights)
    rule = config._rule
    if rule.mines and mask is None and margins is None:
        frozen = frozen_auxiliaries(cosines, labels, config)
    else:
        frozen = freeze(cosines.shape, labels, mask if rule.mines else None, margins)
    logits = forward_logits(cosines, frozen, config)
    probs = softmax_probabilities(logits, out=logits)
    loss = loss_value(probs, frozen)
    return loss, HeadCache(features, weights, feature_norms, weight_norms, config,
                           cosines, frozen, probs)


def head_backward(loss: float, cache: HeadCache) -> GradientBundle:
    """Gradients of ``loss`` at every stage, with the cached auxiliaries frozen."""
    d_logits = backward_logits(cache.probs, cache.frozen)
    d_cosines = backward_cosines(d_logits, cache.cosines, cache.frozen, cache.config)
    d_features, d_weights = backward_parameters(d_cosines, cache)
    return GradientBundle(loss, d_logits, d_cosines, d_features, d_weights)


def loss_and_gradients(raw_features, raw_weights, labels, config: LossConfig,
                       mask=None, margins=None) -> GradientBundle:
    """Full forward/backward sweep from raw features and weights; mining
    follows ``head_forward``."""
    return head_backward(*head_forward(raw_features, raw_weights, labels, config, mask, margins))


def stacked_losses(cache: HeadCache, features=None, weights=None) -> np.ndarray:
    """Losses of K copies of the batch in ``cache``, each with its
    ``Frozen`` record, in one head pass.

    Pass either ``features``, K copies of the raw features stacked as K*N
    rows (the class weights are the cached ones), or ``weights``, K copies
    of the raw class weights stacked as K*C rows (the features are the
    cached ones). Entry k is the loss ``head_forward`` gives for copy k under
    the mask and margins of ``cache.frozen``, bit for bit, provided the
    stack is laid out in memory like the array it copies: the row norms then
    sum in the same order.
    """
    n, c = cache.frozen.shape
    if weights is None:
        cosines = cosine_matrix(normalize_rows(features), cache.weights)
    else:
        # one product against all K*C rows, regrouped into K batches of N rows
        cosines = cosine_matrix(cache.features, normalize_rows(weights))
        cosines = cosines.reshape(n, -1, c).swapaxes(0, 1).reshape(-1, c)
    groups = cosines.shape[0] // n
    frozen = cache.tiled(groups)
    logits = forward_logits(cosines, frozen, cache.config)
    probs = softmax_probabilities(logits, out=logits)
    return row_losses(probs, frozen).reshape(groups, n).mean(axis=1)


def check_epsilon(epsilon: float) -> None:
    """Raise ValueError unless epsilon lies in ``EPSILON_RANGE``."""
    low, high = EPSILON_RANGE
    if not low <= epsilon <= high:
        raise ValueError(f"epsilon must lie in [{low:g}, {high:g}], got {epsilon}")


def _copies(array, count):
    """``count`` copies of ``array`` concatenated along its first axis and
    laid out in memory like ``array``: C order, or F order for an F-ordered
    array."""
    if array.flags.c_contiguous:
        return np.concatenate([array] * count)
    return np.concatenate([array.T] * count, axis=-1).T


def central_difference(tensors, epsilon: float, copy_entries: int):
    """Compare analytic gradients with central differences of the loss.

    ``tensors`` lists (name, array, analytic gradient, losses). Each
    coordinate of ``array``, in index order, gets a copy of the array moved
    by +epsilon there and one moved by -epsilon. The copies of a chunk of
    coordinates are concatenated along the first axis (the +epsilon copies,
    then the -epsilon ones), laid out like ``array``, and ``losses(stack)``
    returns the loss of every copy. A chunk is sized so that no array with
    ``copy_entries`` entries per copy exceeds ``STACK_ENTRIES`` entries.

    The relative error of a coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12); the worst is
    the first coordinate with the largest error, and a NaN error (a
    non-finite loss) is the worst possible and ends the scan. Returns
    (max_relative_error, "name[index]" of the worst coordinate). Raises
    ValueError when epsilon lies outside ``EPSILON_RANGE``.
    """
    check_epsilon(epsilon)
    per_chunk = max(1, STACK_ENTRIES // (2 * copy_entries))
    worst, worst_name = 0.0, ""
    for name, array, analytic, losses in tensors:
        analytic = np.ravel(analytic)        # index order, like the coordinates
        rows = array.shape[0]
        for start in range(0, array.size, per_chunk):
            flat = np.arange(start, min(start + per_chunk, array.size))
            k = flat.size
            idx = np.unravel_index(flat, array.shape)
            stack = _copies(array, 2 * k)
            first_row = np.arange(k) * rows + idx[0]
            stack[(first_row,) + idx[1:]] = array[idx] + epsilon
            stack[(first_row + k * rows,) + idx[1:]] = array[idx] - epsilon
            loss = losses(stack)
            numeric = (loss[:k] - loss[k:]) / (2.0 * epsilon)
            exact = analytic[flat]
            err = np.abs(exact - numeric) / np.maximum(
                np.maximum(np.abs(exact), np.abs(numeric)), 1e-12)
            nan = np.flatnonzero(np.isnan(err))
            pick = nan[0] if nan.size else np.argmax(err)
            if nan.size or err[pick] > worst:
                where = tuple(int(i) for i in np.unravel_index(flat[pick], array.shape))
                worst, worst_name = float(err[pick]), f"{name}[{where}]"
            if nan.size:
                return worst, worst_name
    return worst, worst_name


def finite_difference_check(features, weights, labels, config: LossConfig,
                            epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    with respect to the raw features and weights.

    The mask and collaborative margins are computed once from the
    unperturbed inputs and held fixed across every perturbed evaluation,
    matching the frozen-auxiliary backward pass.
    """
    features = np.array(features, dtype=np.float64)
    weights = np.array(weights, dtype=np.float64)
    loss, cache = head_forward(features, weights, labels, config)
    bundle = head_backward(loss, cache)
    tensors = [
        ("features", features, bundle.d_features,
         lambda stack: stacked_losses(cache, features=stack)),
        ("weights", weights, bundle.d_weights,
         lambda stack: stacked_losses(cache, weights=stack)),
    ]
    (n, d), c = features.shape, weights.shape[0]
    return central_difference(tensors, epsilon, max(n * c, n * d, c * d))[0]
