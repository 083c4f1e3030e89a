"""Unit-sphere primitives: l2 normalization, cosine similarity, shifted cosine.

Everything here runs in double precision on immutable inputs; the gradient
checks downstream assume no single-precision shortcuts were taken.
"""

import numpy as np

from .errors import DimensionMismatch, ZeroNorm

DEFAULT_EPS = 1e-12
# below this sin(theta), the slope of ``cos_shifted`` is its analytic limit
# cos(m) instead of sin(theta + m)/sin(theta)
SIN_LIMIT = 1e-12
# bytes of float64 one ``row_blocks`` block holds: half of a 2 MB L2 cache
BLOCK_BYTES = 1 << 20


def normalize_rows(m, *, return_norms=False):
    """Row-wise unit normalization of an (n, d) matrix; with
    ``return_norms`` also the row norms it divided by."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    if np.any(norms < DEFAULT_EPS):
        bad = int(np.argmin(norms))
        raise ZeroNorm(f"row {bad} has norm {norms[bad]:.3e} below eps={DEFAULT_EPS:.1e}", bad)
    unit = m / norms[:, None]
    return (unit, norms) if return_norms else unit


def cosine_matrix(features: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Cosine similarities between unit feature rows and unit weight rows.

    Returns an (N, C) matrix with entry (i, j) = <x_i, w_j>, clamped into
    [-1, 1] so accumulated rounding can never push a value outside the
    arccos domain (only when its min or max leaves [-1, 1] or is NaN; NaN
    entries stay NaN). Written into ``out`` when given, else a fresh array.
    """
    features = np.asarray(features, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if features.ndim != 2 or weights.ndim != 2 or features.shape[1] != weights.shape[1]:
        raise DimensionMismatch(
            f"features {features.shape} vs weights {weights.shape}"
        )
    product = np.matmul(features, weights.T, out=out)
    if product.size and not (product.min() >= -1.0 and product.max() <= 1.0):
        np.clip(product, -1.0, 1.0, out=product)
    return product


def row_blocks(n: int, width: int) -> list:
    """Slices covering rows 0..n-1 in blocks of at most ``BLOCK_BYTES`` of
    float64 rows of ``width`` entries, and at least two rows: a one-row tail
    joins the block before it, which may then hold one row more, because
    BLAS takes a one-row product as a matrix-vector one, with other bits."""
    rows = max(2, BLOCK_BYTES // (8 * max(width, 1)))
    starts = range(0, n - 1, rows) if n > 1 else range(n)
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], n])]


def cos_shifted(c, m, slope=False):
    """cos(min(theta + m, pi)), theta = arccos(c), without going through
    arccos, or with ``slope`` its derivative in c, sin(theta + m) / sin(theta).

    ``c`` is a cosine (scalar or array, pre-clamped into [-1, 1]) and ``m``
    a non-negative angle (scalar or broadcastable array, < pi). The summed
    angle is clamped at pi, so the value saturates at -1 instead of
    climbing back up the cosine's far side and the slope is exactly zero
    there. Where sin(theta) < ``SIN_LIMIT`` the slope is its analytic
    limit cos(m). m = 0 returns c, and a slope of 1, bit-exactly.
    """
    c = np.asarray(c, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    cos_m, sin_m = np.cos(m), np.sin(m)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - c * c))
    # arccos(c) + m > pi  <=>  c < cos(pi - m)
    clamped = c < np.cos(np.pi - m)
    if slope:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(clamped, 0.0,
                           np.where(sin_t < SIN_LIMIT, cos_m, cos_m + c * sin_m / sin_t))
    else:
        out = np.where(clamped, -1.0, c * cos_m - sin_t * sin_m)
    return float(out) if out.ndim == 0 else out
