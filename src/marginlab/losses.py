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

``head_forward`` checks the labels once and takes the mask's flat indices
once, on its minority side: the hard entries while they are under half
(the sparse route, where the margins sum them too), else the easy ones
(the dense route). Both hard-entry blends map the majority over the whole
matrix and put the minority's values at those indices. The ``HeadIndex``
carries them, with the label entries' flat indices, to every later stage.
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

    def require(self, config, mask, margins):
        """Raise ConfigMismatch when a frozen auxiliary the variant reads is missing."""
        if self.mines and mask is None:
            raise ConfigMismatch(f"{config.variant.value} requires a hard mask")
        if self.collaborative and margins is None:
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


class HeadIndex(NamedTuple):
    """Flat positions in one head call's N x C matrices: each row's label
    entry (row * C + label) and, given a mask, its minority side: the hard
    entries on the sparse route (``sparse``), else the easy ones."""

    label: np.ndarray
    few: np.ndarray | None = None
    sparse: bool = True


# Below this share of hard entries the sparse route, at or above it the dense
# route; an entry gets the same float operations on either.
_SPARSE_HARD = 0.5


def _mask_index(label, mask) -> HeadIndex:
    """The ``HeadIndex`` of flat label positions and a boolean mask."""
    sparse = np.count_nonzero(mask) < _SPARSE_HARD * mask.size
    return HeadIndex(label, np.flatnonzero(mask if sparse else ~mask), sparse)


def _head_index(shape, labels, mask=None) -> HeadIndex:
    """The ``HeadIndex`` of unchecked labels and mask; raises
    DimensionMismatch when either does not fit an N x C ``shape``."""
    n, c = shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"labels shape {labels.shape}, expected ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= c):
        raise DimensionMismatch("label out of range for the class count")
    label = np.arange(n) * c + labels.astype(np.intp)
    if mask is None:
        return HeadIndex(label)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise DimensionMismatch(f"mask shape {mask.shape}, expected {shape}")
    return _mask_index(label, mask)


def _blend(source, index, s, hard_map):
    """Fresh array of ``source * s`` at the easy entries and ``hard_map`` of
    ``source`` at the hard ones: the majority's elementwise map runs over
    the whole matrix, the minority's values are put at their indices."""
    few = index.few
    if index.sparse:
        out = source * s
        np.put(out, few, hard_map(source.take(few)))
    else:
        out = hard_map(source)
        np.put(out, few, source.take(few) * s)
    return out


def forward_logits(cosines, labels, config: LossConfig, mask=None, margins=None, *,
                   index=None) -> np.ndarray:
    """Margined logit matrix for one batch.

    ``mask`` (N x C binary, zero on the label column) and ``margins``
    (length N) are consulted only by mv_softmax / npcface; the other
    variants ignore them. ``index`` is the ``HeadIndex`` of these labels
    and this mask; without it they are checked here.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    rule = config._rule
    rule.require(config, mask, margins)
    if index is None:
        index = _head_index(cosines.shape, labels, mask if rule.mines else None)
    logits = config.s * cosines if not rule.mines else _blend(
        cosines, index, config.s,
        lambda hard_cos: config.s * (config.t * hard_cos + rule.hard_offset))
    if rule.positive:
        np.put(logits, index.label, rule.label_logits(config, cosines.take(index.label), margins))
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


def row_losses(probs, labels, *, index=None) -> np.ndarray:
    """Cross-entropy -log p_y of every row; probabilities floored at 1e-300.
    ``index`` as in ``forward_logits``."""
    probs = np.asarray(probs, dtype=np.float64)
    index = _head_index(probs.shape, labels) if index is None else index
    return -np.log(np.maximum(probs.take(index.label), PROB_FLOOR))


def loss_value(probs, labels, *, index=None) -> float:
    """Mean cross-entropy over the rows (``row_losses``)."""
    return float(np.mean(row_losses(probs, labels, index=index)))


def backward_logits(probs, labels, *, index=None) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits.

    Entry (i, k) = (p_ik - [k == y_i]) / N, so every row sums to zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    index = _head_index(probs.shape, labels) if index is None else index
    n = probs.shape[0]
    grad = probs / n
    np.put(grad, index.label, (probs.take(index.label) - 1.0) / n)
    return grad


def backward_cosines(d_logits, cosines, labels, config: LossConfig, mask=None,
                     margins=None, *, index=None) -> np.ndarray:
    """Chain ``d_logits`` through the margined logit map: returns dL/dcos.

    The mask and the collaborative margins must be the same frozen arrays
    that produced the matching forward logits; ``index`` as in
    ``forward_logits``.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    cosines = np.asarray(cosines, dtype=np.float64)
    if d_logits.shape != cosines.shape:
        raise DimensionMismatch(f"d_logits shape {d_logits.shape}, expected {cosines.shape}")
    rule = config._rule
    rule.require(config, mask, margins)
    if index is None:
        index = _head_index(cosines.shape, labels, mask if rule.mines else None)
    d_cosines = d_logits * config.s if not rule.mines else _blend(
        d_logits, index, config.s, lambda hard_d: hard_d * (config.s * config.t))
    if rule.positive:
        np.put(d_cosines, index.label, d_logits.take(index.label) * rule.label_logits(
            config, cosines.take(index.label), margins, slope=True))
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


def frozen_auxiliaries(cosines, labels, config: LossConfig):
    """Mask and collaborative margins for the variants that need them, and
    their ``HeadIndex``; Nones for the plain variants."""
    rule = config._rule
    if not rule.mines:
        return None, None, None
    label = _head_index(cosines.shape, labels).label
    mask = compute_mask(cosines, labels, config.m0)
    index = _mask_index(label, mask)
    margins = None if not rule.collaborative else collaborative_margin(
        cosines, mask, config.m0, config.m1, hard=index.few if index.sparse else None)
    return mask, margins, index


@dataclass
class HeadCache:
    """What ``head_backward`` reads from the forward pass: the unit rows and
    raw row norms of both inputs, the cosines, the frozen auxiliaries and
    their ``HeadIndex``, and the softmax probabilities."""

    features: np.ndarray
    weights: np.ndarray
    feature_norms: np.ndarray
    weight_norms: np.ndarray
    labels: np.ndarray
    config: LossConfig
    cosines: np.ndarray
    mask: np.ndarray | None
    margins: np.ndarray | None
    index: HeadIndex
    probs: np.ndarray
    _tiles: dict = field(default_factory=dict, repr=False)

    def tiled(self, groups):
        """Labels, mask, margins and ``HeadIndex`` of ``groups`` copies of
        the batch stacked row-wise, tiled once per number of copies."""
        if groups not in self._tiles:
            n, c = self.cosines.shape
            shifts = np.arange(groups)[:, None] * (n * c)      # flat offset of each copy
            tile = lambda a: None if a is None else np.concatenate([a] * groups)
            shift = lambda a: None if a is None else (shifts + a).ravel()
            label, few, sparse = self.index
            self._tiles[groups] = (tile(self.labels), tile(self.mask), tile(self.margins),
                                   HeadIndex(shift(label), shift(few), sparse))
        return self._tiles[groups]


def head_forward(raw_features, raw_weights, labels, config: LossConfig, mask=None, margins=None):
    """Batch loss from raw features and weights: returns (loss, HeadCache).

    When ``mask``/``margins`` are omitted they are mined from the current
    cosines (the per-iteration semantics). Pass them to evaluate the head
    under given auxiliaries: a cache's frozen ones, or a chosen mask such as
    an empty one, under which mv_softmax reduces to arcface. The labels, and
    a given mask, are checked once, here.
    """
    features, feature_norms = normalize_rows(raw_features, return_norms=True)
    weights, weight_norms = normalize_rows(raw_weights, return_norms=True)
    cosines = cosine_matrix(features, weights)
    rule = config._rule
    if mask is None and rule.mines:
        mask, margins, index = frozen_auxiliaries(cosines, labels, config)
    else:
        index = _head_index(cosines.shape, labels, mask if rule.mines else None)
    logits = forward_logits(cosines, labels, config, mask, margins, index=index)
    probs = softmax_probabilities(logits, out=logits)
    loss = loss_value(probs, labels, index=index)
    cache = HeadCache(features, weights, feature_norms, weight_norms, labels, config,
                      cosines, mask, margins, index, probs)
    return loss, cache


def head_backward(loss: float, cache: HeadCache) -> GradientBundle:
    """Gradients of ``loss`` at every stage, with the cached auxiliaries frozen."""
    index = cache.index
    d_logits = backward_logits(cache.probs, cache.labels, index=index)
    d_cosines = backward_cosines(d_logits, cache.cosines, cache.labels, cache.config,
                                 cache.mask, cache.margins, index=index)
    d_features, d_weights = backward_parameters(d_cosines, cache)
    return GradientBundle(loss, d_logits, d_cosines, d_features, d_weights)


def loss_and_gradients(raw_features, raw_weights, labels, config: LossConfig,
                       mask=None, margins=None) -> GradientBundle:
    """Full forward/backward sweep from raw features and weights; mining
    follows ``head_forward``."""
    return head_backward(*head_forward(raw_features, raw_weights, labels, config, mask, margins))


def stacked_losses(cache: HeadCache, features=None, weights=None) -> np.ndarray:
    """Losses of K copies of the batch in ``cache``, each with its labels
    and frozen auxiliaries, in one head pass.

    Pass either ``features``, K copies of the raw features stacked as K*N
    rows (the class weights are the cached ones), or ``weights``, K copies
    of the raw class weights stacked as K*C rows (the features are the
    cached ones). Entry k is the loss ``head_forward`` gives for copy k with
    ``cache.mask`` and ``cache.margins``, bit for bit, provided the stack is
    laid out in memory like the array it copies: the row norms then sum in
    the same order.
    """
    n, c = cache.cosines.shape
    if weights is None:
        cosines = cosine_matrix(normalize_rows(features), cache.weights)
    else:
        # one product against all K*C rows, regrouped into K batches of N rows
        cosines = cosine_matrix(cache.features, normalize_rows(weights))
        cosines = cosines.reshape(n, -1, c).swapaxes(0, 1).reshape(-1, c)
    groups = cosines.shape[0] // n
    labels, mask, margins, index = cache.tiled(groups)
    logits = forward_logits(cosines, labels, cache.config, mask, margins, index=index)
    probs = softmax_probabilities(logits, out=logits)
    return row_losses(probs, labels, index=index).reshape(groups, n).mean(axis=1)


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
