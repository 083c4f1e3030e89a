"""Hard-sample mining and the diagnostics built on top of it.

A sample is "hard to class j" when its cosine to w_j exceeds its own
margined positive cosine; rows with at least one hard entry are the
mis-classified samples. The collaborative margin grows each such sample's
positive margin by the mean cosine of its hard negatives.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVariance, EmptyPartition, InsufficientSamples
from .geometry import cos_shifted

DEFAULT_BINS = 50


@dataclass
class HardnessReport:
    """Correlation between positive and negative hardness.

    ``pos_distances`` / ``neg_distances`` keep the raw series (cosine
    distance to the ground-truth center / to the nearest other center) so
    alternative statistics can be recomputed from the report.
    """

    pearson_r: float
    n_misclassified: int
    mean_pos_distance: float
    mean_neg_distance: float
    pos_distances: np.ndarray
    neg_distances: np.ndarray


@dataclass
class DistributionOverlap:
    """Normalized cosine-to-ground-truth histograms, split by hardness."""

    histogram_mis: np.ndarray
    histogram_well: np.ndarray
    overlap_rate: float
    bin_edges: np.ndarray


def compute_mask(cosines, labels, m0: float) -> np.ndarray:
    """Binary N x C mask: entry (i, j) marks sample i as hard to class j.

    M_ij = 1 iff j != y_i and cos(theta_ij) > cos(theta_iy + m0). The label
    column is always zero. m0 = 0 reduces to plain mis-classification.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n = cosines.shape[0]
    rows = np.arange(n)
    threshold = cos_shifted(cosines[rows, labels], m0)
    mask = cosines > np.asarray(threshold).reshape(n, 1)
    mask[rows, labels] = False
    return mask


def collaborative_margin(cosines, mask, m0: float, m1: float) -> np.ndarray:
    """Per-sample positive margin m0 + m1 * mean(hard-negative cosines).

    Rows without hard negatives fall back to exactly m0. Values stay inside
    [m0 - m1, m0 + m1] because cosines are bounded by 1 in magnitude.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    counts = mask.sum(axis=1)
    sums = np.where(mask, cosines, 0.0).sum(axis=1)
    margins = np.full(cosines.shape[0], float(m0))
    has_hard = counts > 0
    margins[has_hard] = m0 + (sums[has_hard] / counts[has_hard]) * m1
    return margins


def misclassified_rows(mask) -> np.ndarray:
    """Boolean selector of rows with at least one hard entry."""
    return np.asarray(mask, dtype=bool).any(axis=1)


def _nearest_negative(cosines, labels, rows):
    """Largest non-label cosine of each selected row; boolean indexing
    copies the rows, so ``cosines`` itself is never written."""
    negatives = cosines[rows]
    negatives[np.arange(negatives.shape[0]), labels[rows]] = -np.inf
    return negatives.max(axis=1)


def hardness_correlation(cosines, labels, mask) -> HardnessReport:
    """Pearson correlation between the two hardness distances.

    For every mis-classified sample: d_pos = 1 - cos(theta_iy) and
    d_neg = 1 - max over j != y of cos(theta_ij) (nearest of *all* other
    classes, masked or not). Raises InsufficientSamples below two rows and
    DegenerateVariance when either series is constant.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    mis = misclassified_rows(mask)
    n_mis = int(mis.sum())
    if n_mis < 2:
        raise InsufficientSamples(f"need >= 2 mis-classified samples, got {n_mis}")

    d_pos = 1.0 - cosines[mis, labels[mis]]
    d_neg = 1.0 - _nearest_negative(cosines, labels, mis)
    if np.ptp(d_pos) == 0.0 or np.ptp(d_neg) == 0.0:
        raise DegenerateVariance("a distance series is constant")
    r = float(np.clip(np.corrcoef(d_pos, d_neg)[0, 1], -1.0, 1.0))
    return HardnessReport(
        pearson_r=r,
        n_misclassified=n_mis,
        mean_pos_distance=float(d_pos.mean()),
        mean_neg_distance=float(d_neg.mean()),
        pos_distances=d_pos,
        neg_distances=d_neg,
    )


def similarity_distributions(cosines, labels, mask, n_bins: int = DEFAULT_BINS) -> DistributionOverlap:
    """Cosine-to-ground-truth histograms of mis- vs well-classified samples.

    Both histograms use the same equal-width bins over [-1, 1] (so runs of
    different dimensionality stay comparable) and are normalized to sum to
    one; the overlap rate is their bin-wise intersection.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    cosines = np.asarray(cosines, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    pos_cos = cosines[np.arange(cosines.shape[0]), labels]
    mis = misclassified_rows(mask)
    if not mis.any() or mis.all():
        group = "mis-classified" if not mis.any() else "well-classified"
        raise EmptyPartition(f"no {group} samples in this batch")

    h_mis, edges = np.histogram(pos_cos[mis], bins=n_bins, range=(-1.0, 1.0))
    h_well, _ = np.histogram(pos_cos[~mis], bins=n_bins, range=(-1.0, 1.0))
    h_mis = h_mis / h_mis.sum()
    h_well = h_well / h_well.sum()
    overlap = float(np.minimum(h_mis, h_well).sum())
    return DistributionOverlap(h_mis, h_well, overlap, edges)


def nearest_negative_histogram(cosines, labels, mask, n_bins: int = DEFAULT_BINS):
    """Histogram of mis-classified samples' nearest non-label cosine.

    The input to the embedding-dimension robustness study. Returns
    (bin_edges, density) with density normalized to sum to one; raises
    EmptyPartition when nothing is mis-classified.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    mis = misclassified_rows(mask)
    if not mis.any():
        raise EmptyPartition("no mis-classified samples in this batch")
    nearest = _nearest_negative(cosines, labels, mis)
    counts, edges = np.histogram(nearest, bins=n_bins, range=(-1.0, 1.0))
    return edges, counts / counts.sum()
