"""Hard-sample mining and the diagnostics built on top of it.

A sample is "hard to class j" when its cosine to w_j exceeds its own
margined positive cosine; rows with at least one hard entry are the
mis-classified samples. The collaborative margin grows each such sample's
positive margin by the mean cosine of its hard negatives.

The full-set diagnostics come from ``row_scan``: one pass over row blocks
of the N x C cosine matrix that keeps four length-N vectors in a
``RowScan``; a whole matrix is one block. ``RowScan.statistics`` maps a
scan to the hardness statistics of one ``diagnostics.csv`` row (the
correlation and the overlap of the similarity distributions), with a note
for each statistic the rows cannot define; ``train`` and ``analyze`` both
read it. ``RowScan.nearest_histogram`` feeds ``dimstudy``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData
from .geometry import cos_shifted

DEFAULT_BINS = 50


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


def collaborative_margin(cosines, mask, m0: float, m1: float, *, hard=None) -> np.ndarray:
    """Per-sample positive margin m0 + m1 * mean(hard-negative cosines).

    Rows without hard negatives fall back to exactly m0. Values stay inside
    [m0 - m1, m0 + m1] because cosines are bounded by 1 in magnitude.
    ``hard`` is ``np.flatnonzero(mask)`` when the caller already has it.
    Each row's hard cosines are one run of the ascending flat indices, and
    the run is summed by itself, so the cost follows the hard entries.
    """
    cosines = np.asarray(cosines, dtype=np.float64)
    n, c = cosines.shape
    if hard is None:
        hard = np.flatnonzero(np.broadcast_to(mask, cosines.shape))
    bounds = np.searchsorted(hard, np.arange(n + 1) * c)
    counts = np.diff(bounds)
    has_hard = counts > 0
    sums = np.add.reduceat(cosines.take(hard), bounds[:-1][has_hard])
    margins = np.full(n, float(m0))
    margins[has_hard] = m0 + (sums / counts[has_hard]) * m1
    return margins


@dataclass
class RowScan:
    """Per-row summary of an N x C cosine matrix, enough for every full-set
    diagnostic: each row's label cosine, nearest non-label cosine, argmax
    class and whether it has a hard entry (is mis-classified)."""

    pos_cos: np.ndarray
    nearest: np.ndarray
    pred: np.ndarray
    mis: np.ndarray

    def accuracy(self, labels) -> float:
        return float(np.mean(self.pred == labels))

    def statistics(self, n_bins: int = DEFAULT_BINS):
        """The hardness statistics of a ``diagnostics.csv`` row, and the
        overlap's histograms.

        Returns (statistics, histograms). ``statistics`` maps, in this
        order, n_misclassified, pearson_r, mean_pos_distance,
        mean_neg_distance, overlap_rate, hardness_note and overlap_note. A
        statistic the rows cannot define is None, and its note gives the
        reason; a note is None otherwise. ``histograms`` is the
        [bin_edges, histogram_mis, histogram_well] of ``overlap``, or None
        when the overlap is undefined.
        """
        r = mean_pos = mean_neg = rate = histograms = hardness_note = overlap_note = None
        try:
            r, mean_pos, mean_neg = self.correlation()
        except InsufficientData as exc:
            hardness_note = str(exc)
        try:
            rate, *histograms = self.overlap(n_bins)
        except InsufficientData as exc:
            overlap_note = str(exc)
        return {"n_misclassified": int(self.mis.sum()), "pearson_r": r,
                "mean_pos_distance": mean_pos, "mean_neg_distance": mean_neg,
                "overlap_rate": rate, "hardness_note": hardness_note,
                "overlap_note": overlap_note}, histograms

    def correlation(self):
        """Pearson correlation between the two hardness distances:
        (pearson_r, mean_pos_distance, mean_neg_distance).

        For every mis-classified row: d_pos = 1 - cos(theta_iy) and
        d_neg = 1 - max over j != y of cos(theta_ij), the nearest non-label
        class. Raises InsufficientData below two rows or when either series
        is constant.
        """
        n_mis = int(self.mis.sum())
        if n_mis < 2:
            raise InsufficientData(f"need >= 2 mis-classified samples, got {n_mis}")
        d_pos = 1.0 - self.pos_cos[self.mis]
        d_neg = 1.0 - self.nearest[self.mis]
        if np.ptp(d_pos) == 0.0 or np.ptp(d_neg) == 0.0:
            raise InsufficientData("a distance series is constant")
        r = float(np.clip(np.corrcoef(d_pos, d_neg)[0, 1], -1.0, 1.0))
        return r, float(d_pos.mean()), float(d_neg.mean())

    def overlap(self, n_bins: int = DEFAULT_BINS):
        """Cosine-to-ground-truth histograms of mis- vs well-classified rows:
        (overlap_rate, bin_edges, histogram_mis, histogram_well).

        Both histograms use the same n_bins equal-width bins over [-1, 1] (so
        runs of different dimensionality stay comparable) and are normalized
        to sum to one; the overlap rate is their bin-wise intersection.
        Raises ValueError below two bins and InsufficientData when either group
        is empty.
        """
        if n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {n_bins}")
        mis = self.mis
        if not mis.any() or mis.all():
            group = "mis-classified" if not mis.any() else "well-classified"
            raise InsufficientData(f"no {group} rows among the {mis.size} scanned")
        h_mis, edges = np.histogram(self.pos_cos[mis], bins=n_bins, range=(-1.0, 1.0))
        h_well, _ = np.histogram(self.pos_cos[~mis], bins=n_bins, range=(-1.0, 1.0))
        h_mis = h_mis / h_mis.sum()
        h_well = h_well / h_well.sum()
        return float(np.minimum(h_mis, h_well).sum()), edges, h_mis, h_well

    def nearest_histogram(self, n_bins: int = DEFAULT_BINS):
        """Histogram of the mis-classified rows' nearest non-label cosine.

        The input to the embedding-dimension robustness study. Returns
        (bin_edges, density) over n_bins equal-width bins on [-1, 1], with
        density normalized to sum to one; raises InsufficientData when nothing
        is mis-classified.
        """
        if not self.mis.any():
            raise InsufficientData(f"no mis-classified rows among the {self.mis.size} scanned")
        counts, edges = np.histogram(self.nearest[self.mis], bins=n_bins, range=(-1.0, 1.0))
        return edges, counts / counts.sum()


def row_scan(blocks, labels, m0: float) -> RowScan:
    """One pass over consecutive row blocks of an N x C cosine matrix.

    ``blocks`` yields the matrix's rows top to bottom in (k, C) pieces;
    ``labels`` covers all N rows. Only the per-row vectors are kept, so the
    memory held is one block plus O(N), whatever N is, and a block may reuse
    the previous block's memory. With the label entry set to -inf, one
    argmax per row finds the nearest negative; the row's argmax class is the
    label where the label cosine beats it or ties from a lower index (the
    first-maximum rule of ``argmax``), and the row has a hard entry (as in
    ``compute_mask``) iff the nearest negative exceeds the margined label
    cosine. Both hold for finite cosines. The blocks are consumed: their
    label entries are overwritten.
    """
    labels = np.asarray(labels, dtype=np.intp)
    parts = []
    start = 0
    for block in blocks:
        rows = np.arange(block.shape[0])
        block_labels = labels[start:start + block.shape[0]]
        start += block.shape[0]
        pos_cos = block[rows, block_labels]
        block[rows, block_labels] = -np.inf
        negative = block.argmax(axis=1)
        nearest = block[rows, negative]
        label_wins = (pos_cos > nearest) | ((pos_cos == nearest) & (block_labels < negative))
        pred = np.where(label_wins, block_labels, negative)
        parts.append((pos_cos, nearest, pred, nearest > cos_shifted(pos_cos, m0)))
    if start != labels.size:
        raise ValueError(f"blocks cover {start} rows, labels {labels.size}")
    return RowScan(*(np.concatenate(column) for column in zip(*parts)))
