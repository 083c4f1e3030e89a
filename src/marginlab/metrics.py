"""Verification and identification metrics over embedding sets.

Scores are cosine similarities; acceptance always means score >= threshold.
Ties are broken by the lowest index everywhere so results reproduce
bit-for-bit.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AllRejected, DimensionMismatch, InsufficientData
from .geometry import normalize_rows, row_blocks
from .seeds import named_rng


@dataclass
class PairSet:
    """Verification pairs: parallel index arrays plus same-identity flags."""

    index_a: np.ndarray
    index_b: np.ndarray
    is_same: np.ndarray

    def __len__(self):
        return self.index_a.size


@dataclass
class RocCurve:
    """Operating points swept over every distinct score, threshold ascending.

    The final point uses threshold = inf (accept nothing), so far and tar
    both step down to zero; both arrays are non-increasing.
    """

    thresholds: np.ndarray
    far: np.ndarray
    tar: np.ndarray

    def points(self):
        return list(zip(self.thresholds, self.far, self.tar))


def build_pairs(labels, n_positive: int, n_negative: int, seed: int) -> PairSet:
    """Seeded sampling of same-class and cross-class index pairs, without
    replacement within each kind."""
    labels = np.asarray(labels)
    n = labels.size
    if n_positive < 1 or n_negative < 1:
        raise InsufficientData("need at least one positive and one negative pair")

    # each class's members in index order, classes in ascending label order
    order = np.argsort(labels, kind="stable")
    _, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    # every (i, j > i) within a class of each size, i-major like a double loop
    within = {size: np.column_stack(np.triu_indices(size, k=1)) for size in set(sizes.tolist())}
    positives = np.concatenate([np.empty((0, 2), dtype=np.intp)] + [
        order[start + within[size]] for start, size in zip(starts.tolist(), sizes.tolist())])
    if len(positives) < n_positive:
        raise InsufficientData(
            f"requested {n_positive} positive pairs, only {len(positives)} exist"
        )
    total = n * (n - 1) // 2
    n_cross = total - len(positives)
    if n_cross < n_negative:
        raise InsufficientData(
            f"requested {n_negative} negative pairs, only {n_cross} exist"
        )

    rng = named_rng(seed, "pairs")
    pos_pick = positives[rng.permutation(len(positives))[:n_positive]]

    # Rejection sampling of cross-class pairs, each kept at most once. A
    # block of draws is the stream of one scalar draw per endpoint (a, b, a,
    # b, ...); its pairs are accepted in draw order, as a draw-by-draw loop
    # would accept them. The rng is not used after the last pair is kept.
    # A block's first keys and the kept keys are each distinct, so ``isin``
    # may skip its ``np.unique``, which imports numpy.ma (~1.7 MB of RSS).
    neg_pick = np.empty((0, 2), dtype=np.intp)
    while len(neg_pick) < n_negative:
        draws = rng.integers(n, size=(n_negative - len(neg_pick), 2))
        draws = draws[labels[draws[:, 0]] != labels[draws[:, 1]]]
        draws.sort(axis=1)
        keys = draws[:, 0] * n + draws[:, 1]
        _, first = np.unique(keys, return_index=True)
        first.sort()
        fresh = first[~np.isin(keys[first], neg_pick[:, 0] * n + neg_pick[:, 1], assume_unique=True)]
        neg_pick = np.concatenate([neg_pick, draws[fresh]])
    neg_pick = neg_pick[:n_negative]

    index_a = np.concatenate([pos_pick[:, 0], neg_pick[:, 0]])
    index_b = np.concatenate([pos_pick[:, 1], neg_pick[:, 1]])
    is_same = np.concatenate([np.ones(n_positive, bool), np.zeros(n_negative, bool)])
    return PairSet(index_a, index_b, is_same)


def pair_scores(embeddings, pairs: PairSet) -> np.ndarray:
    """Cosine similarity of each pair's embeddings."""
    unit = normalize_rows(np.asarray(embeddings, dtype=np.float64))
    return np.sum(unit[pairs.index_a] * unit[pairs.index_b], axis=1)


def _validated_scores(scores, flags):
    scores = np.asarray(scores, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    if scores.shape != flags.shape or scores.ndim != 1:
        raise DimensionMismatch("scores and flags must be matching 1-d arrays")
    if not np.isfinite(scores).all():
        raise InsufficientData("scores must be finite")
    if not flags.any() or flags.all():
        raise InsufficientData("need at least one positive and one negative score")
    return scores, flags


def _accepted(scores, flags, thresholds):
    """Exact counts of positive and of negative scores >= each threshold."""
    return tuple(part.size - np.searchsorted(part, thresholds, side="left")
                 for part in (np.sort(scores[flags]), np.sort(scores[~flags])))


def roc(scores, flags) -> RocCurve:
    """Sweep every distinct score as a threshold (plus an accept-nothing
    sentinel): FAR = accepted negatives / negatives, TAR = accepted
    positives / positives."""
    scores, flags = _validated_scores(scores, flags)
    thresholds = np.concatenate([np.unique(scores), [np.inf]])
    accepted_pos, accepted_neg = _accepted(scores, flags, thresholds)
    return RocCurve(thresholds, far=accepted_neg / np.sum(~flags), tar=accepted_pos / np.sum(flags))


def tar_at_far(curve: RocCurve, far_target: float) -> float:
    """TAR at the smallest threshold whose FAR <= far_target.

    A conservative step convention: no interpolation between operating
    points. When only the accept-nothing sentinel qualifies, warns
    AllRejected and returns 0.0.
    """
    if not 0.0 < far_target <= 1.0:
        raise ValueError(f"far_target must lie in (0, 1], got {far_target}")
    qualifying = np.flatnonzero(curve.far <= far_target)
    first = int(qualifying[0])  # far is non-increasing: the set is a suffix
    if first == curve.thresholds.size - 1 and curve.tar[first] == 0.0:
        warnings.warn(
            f"no operating point reaches FAR <= {far_target}; every pair rejected",
            AllRejected,
        )
    return float(curve.tar[first])


def rank1_identification(probe_embeddings, probe_labels, gallery_embeddings,
                         gallery_labels, distractor_embeddings) -> float:
    """Rank-1 accuracy over the gallery plus distractors, cosine similarity.

    A probe scores correct iff the single highest-cosine candidate is a
    gallery entry carrying the probe's label. Ties resolve to the lowest
    candidate index (gallery rows come before distractor rows). The
    similarities are taken one probe block (``geometry.row_blocks``) at a time.
    """
    probes = normalize_rows(np.asarray(probe_embeddings, dtype=np.float64))
    gallery = normalize_rows(np.asarray(gallery_embeddings, dtype=np.float64))
    probe_labels = np.asarray(probe_labels)
    gallery_labels = np.asarray(gallery_labels)
    distractors = np.asarray(distractor_embeddings, dtype=np.float64)
    if distractors.size:
        candidates = np.vstack([gallery, normalize_rows(distractors)])
    else:
        candidates = gallery

    missing = np.setdiff1d(probe_labels, gallery_labels)
    if missing.size:
        raise InsufficientData(f"probe labels missing from gallery: {missing[:5].tolist()}")

    best = np.empty(probes.shape[0], dtype=np.intp)
    for rows in row_blocks(probes.shape[0], candidates.shape[0]):
        best[rows] = (probes[rows] @ candidates.T).argmax(axis=1)  # the first maximum
    in_gallery = best < gallery.shape[0]
    correct = in_gallery & (gallery_labels[np.minimum(best, gallery.shape[0] - 1)] == probe_labels)
    return float(np.mean(correct))


def _candidate_thresholds(scores):
    """Midpoints between consecutive distinct scores, plus an accept-all and
    an accept-nothing endpoint.

    Interior thresholds generalize across folds (a perfectly separated score
    set scores 1.0 for any k); the trade-off is that exact invariance under
    monotone score transforms holds only for transforms that preserve
    midpoint sides, e.g. affine ones.
    """
    distinct = np.unique(scores)
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    return np.concatenate([[distinct[0] - 1.0], mids, [np.inf]])


def _best_threshold(scores, flags):
    """Accuracy-maximizing threshold; ties resolve to the lowest value.
    Correct pairs are accepted_pos - accepted_neg plus a constant, and
    argmax keeps the first maximum of these exact integer counts."""
    candidates = _candidate_thresholds(scores)
    accepted_pos, accepted_neg = _accepted(scores, flags, candidates)
    return candidates[np.argmax(accepted_pos - accepted_neg)]


def check_folds(n: int, k: int) -> None:
    """Raise InsufficientData unless ``n`` pairs fill ``k`` >= 2 folds."""
    if k < 2:
        raise InsufficientData(f"k must be >= 2, got {k}")
    if n < k:
        raise InsufficientData(f"{n} pairs cannot fill {k} folds")


def kfold_threshold_accuracy(scores, flags, k: int, seed: int) -> float:
    """LFW-style protocol: per fold, tune the threshold on the other k-1
    folds and score the held-out fold; returns the mean accuracy."""
    scores, flags = _validated_scores(scores, flags)
    check_folds(scores.size, k)

    order = named_rng(seed, "folds").permutation(scores.size)
    folds = np.array_split(order, k)
    accs = []
    for held_out in range(k):
        test_idx = folds[held_out]
        train_idx = np.concatenate([folds[i] for i in range(k) if i != held_out])
        t = _best_threshold(scores[train_idx], flags[train_idx])
        accs.append(float(np.mean((scores[test_idx] >= t) == flags[test_idx])))
    return float(np.mean(accs))
