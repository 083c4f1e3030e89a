import numpy as np
import pytest

from marginlab.errors import DimensionMismatch, ZeroNorm
from marginlab.geometry import (
    BLOCK_BYTES,
    cos_shifted,
    cosine_matrix,
    normalize_rows,
    row_blocks,
)

from oracles import scalar_normalize


def test_normalize_three_four_five():
    np.testing.assert_allclose(normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], rtol=0, atol=1e-15)


def test_normalize_already_unit():
    np.testing.assert_array_equal(normalize_rows([[1.0, 0.0, 0.0]]), [[1.0, 0.0, 0.0]])


def test_normalize_zero_vector_raises():
    with pytest.raises(ZeroNorm) as info:
        normalize_rows([[0.0, 0.0]])
    assert info.value.row == 0


def test_normalize_norm_within_tolerance():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.standard_normal(rng.integers(1, 12)) * 10.0 ** rng.integers(-3, 4)
        assert abs(np.linalg.norm(normalize_rows([v])) - 1.0) < 1e-9


def test_normalize_idempotent():
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.standard_normal(6)
        once = normalize_rows([v])
        np.testing.assert_allclose(normalize_rows(once), once, rtol=0, atol=1e-12)


def test_normalize_rows_matches_normalize():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 4))
    rows = normalize_rows(m)
    for i in range(5):
        np.testing.assert_allclose(rows[i], scalar_normalize(m[i]), rtol=0, atol=1e-15)


def test_cosine_matrix_self_similarity():
    rng = np.random.default_rng(3)
    x = normalize_rows(rng.standard_normal((4, 6)))
    np.testing.assert_allclose(np.diag(cosine_matrix(x, x)), 1.0, atol=1e-12)


def test_cosine_matrix_orthogonal():
    assert cosine_matrix(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0, 0] == 0.0


def test_cosine_matrix_against_entrywise_dot():
    rng = np.random.default_rng(4)
    x = normalize_rows(rng.standard_normal((3, 5)))
    w = normalize_rows(rng.standard_normal((4, 5)))
    got = cosine_matrix(x, w)
    for i in range(3):
        for j in range(4):
            expected = sum(x[i, k] * w[j, k] for k in range(5))
            assert abs(got[i, j] - expected) < 1e-12


def test_cosine_matrix_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        cosine_matrix(np.ones((2, 3)), np.ones((2, 4)))


def test_cosine_matrix_clamped():
    rng = np.random.default_rng(5)
    x = normalize_rows(rng.standard_normal((50, 2)))
    c = cosine_matrix(x, x)
    assert c.max() <= 1.0 and c.min() >= -1.0


def test_cosine_matrix_returns_an_in_range_product_as_it_is():
    rng = np.random.default_rng(6)
    x = normalize_rows(rng.standard_normal((40, 8)))
    w = normalize_rows(rng.standard_normal((30, 8)))
    product = x @ w.T
    assert -1.0 <= product.min() and product.max() <= 1.0
    assert cosine_matrix(x, w).tobytes() == product.tobytes()


def test_cosine_matrix_clips_a_product_of_non_unit_rows():
    rng = np.random.default_rng(7)
    x = 2.0 * normalize_rows(rng.standard_normal((40, 8)))
    w = normalize_rows(rng.standard_normal((30, 8)))
    product = x @ w.T
    assert product.max() > 1.0 and product.min() < -1.0
    assert cosine_matrix(x, w).tobytes() == np.clip(product, -1.0, 1.0).tobytes()


def test_cosine_matrix_keeps_nan_and_clips_around_it():
    x = np.array([[np.nan, 0.0], [2.0, 0.0], [0.5, 0.0]])
    c = cosine_matrix(x, np.array([[1.0, 0.0]]))
    assert np.isnan(c[0, 0]) and c[1, 0] == 1.0 and c[2, 0] == 0.5
    assert cosine_matrix(np.ones((0, 2)), np.ones((3, 2))).shape == (0, 3)


@pytest.mark.parametrize("width", [1, 9, 500, 1000, 10 ** 6])
@pytest.mark.parametrize("n", [0, 1, 2, 130, 131, 132, 133, 1000, 2097])
def test_row_blocks_cover_the_rows_without_one_row_blocks(n, width):
    blocks = row_blocks(n, width)
    sizes = [b.stop - b.start for b in blocks]
    covered = [np.arange(n)[b] for b in blocks]
    assert np.concatenate(covered or [[]]).tolist() == list(range(n))
    assert all(size >= 2 for size in sizes) or sizes == [1]
    rows = max(2, BLOCK_BYTES // (8 * width))
    assert all(size == rows for size in sizes[:-1])
    assert all(size <= rows + 1 for size in sizes)


def test_row_blocks_fill_a_mebibyte():
    assert row_blocks(10 ** 6, 1000)[0].stop == 131          # 131 * 1000 * 8 <= 2 ** 20
    assert [b.stop - b.start for b in row_blocks(263, 1000)] == [131, 132]


def test_cos_shifted_quarter_margin():
    assert abs(cos_shifted(1.0, 0.4) - 0.921061) < 1e-6


def test_cos_shifted_zero_margin_exact():
    rng = np.random.default_rng(6)
    c = rng.uniform(-1.0, 1.0, 500)
    np.testing.assert_array_equal(cos_shifted(c, 0.0), c)
    assert cos_shifted(0.5, 0.0) == 0.5
    np.testing.assert_array_equal(cos_shifted(np.append(c, [-1.0, 1.0]), 0.0, slope=True), 1.0)
    assert cos_shifted(0.5, 0.0, slope=True) == 1.0


def test_cos_shifted_clamps_at_pi():
    assert cos_shifted(-1.0, 0.5) == -1.0
    assert cos_shifted(-0.999, 3.0) == -1.0
    assert cos_shifted(-1.0, 0.3, slope=True) == 0.0
    assert cos_shifted(-0.999, 3.0, slope=True) == 0.0


def test_cos_shifted_slope_at_zero_angle_is_cos_margin():
    for m in (0.1, 0.5, 1.2, 3.0):
        assert cos_shifted(1.0, m, slope=True) == np.cos(m)
    m = np.array([0.2, 0.4])
    np.testing.assert_array_equal(cos_shifted(np.ones(2), m, slope=True), np.cos(m))


def test_cos_shifted_slope_matches_central_difference():
    rng = np.random.default_rng(10)
    c = rng.uniform(-0.95, 0.95, 2000)
    m = rng.uniform(0.0, 1.5, 2000)
    keep = np.arccos(c) + m < np.pi - 0.05      # away from the clamp at pi
    c, m, h = c[keep], m[keep], 1e-6
    numeric = (cos_shifted(c + h, m) - cos_shifted(c - h, m)) / (2 * h)
    slope = cos_shifted(c, m, slope=True)
    np.testing.assert_allclose(slope, numeric, rtol=1e-6, atol=1e-8)


def test_cos_shifted_matches_arccos_form():
    rng = np.random.default_rng(7)
    for _ in range(500):
        c = float(rng.uniform(-1.0, 1.0))
        m = float(rng.uniform(0.0, 1.5))
        expected = np.cos(min(np.arccos(c) + m, np.pi))
        assert abs(cos_shifted(c, m) - expected) < 1e-12


def test_cos_shifted_monotone_in_margin():
    rng = np.random.default_rng(8)
    c = rng.uniform(-1.0, 1.0, 50)
    margins = np.sort(rng.uniform(0.0, 3.0, 20))
    prev = cos_shifted(c, margins[0])
    for m in margins[1:]:
        cur = cos_shifted(c, m)
        assert np.all(cur <= prev + 5e-16)
        prev = cur


def test_cos_shifted_never_exceeds_input():
    rng = np.random.default_rng(9)
    c = rng.uniform(-1.0, 1.0, 1000)
    m = rng.uniform(0.0, 3.0, 1000)
    assert np.all(cos_shifted(c, m) <= c + 5e-16)
