import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marginlab.errors import InsufficientData
from marginlab.geometry import BLOCK_BYTES, cos_shifted, cosine_matrix, normalize_rows, row_blocks
from marginlab.hardness import collaborative_margin, compute_mask, row_scan
from marginlab.model import EmbeddingNet, ModelSpec, init_class_weights
from marginlab.train import full_set_cosines
from oracles import scalar_pearson


class TestComputeMask:
    def test_spec_row(self):
        cos = np.array([[0.8, 0.5, 0.9]])
        mask = compute_mask(cos, np.array([0]), 0.4)
        # margined positive ~ 0.504: only the 0.9 negative beats it
        np.testing.assert_array_equal(mask, [[False, False, True]])

    def test_correctly_classified_row_is_empty(self):
        cos = np.array([[0.9, 0.5, 0.2]])
        mask = compute_mask(cos, np.array([0]), 0.0)
        assert not mask.any()

    def test_maximal_violation(self):
        cos = np.array([[-1.0, 1.0, 0.0]])
        mask = compute_mask(cos, np.array([0]), 0.3)
        assert mask[0, 1]

    def test_label_column_never_masked(self):
        rng = np.random.default_rng(20)
        cos = rng.uniform(-1, 1, (50, 7))
        labels = rng.integers(0, 7, 50)
        mask = compute_mask(cos, labels, 0.4)
        assert not mask[np.arange(50), labels].any()

    def test_zero_margin_reduces_to_misclassification(self):
        rng = np.random.default_rng(21)
        cos = rng.uniform(-1, 1, (100, 9))
        labels = rng.integers(0, 9, 100)
        mask = compute_mask(cos, labels, 0.0)
        for i in range(100):
            for j in range(9):
                expected = j != labels[i] and cos[i, j] > cos[i, labels[i]]
                assert mask[i, j] == expected


class TestCollaborativeMargin:
    def test_empty_row_gives_basic_margin(self):
        cos = np.array([[0.9, 0.1, 0.0]])
        mask = np.zeros((1, 3), dtype=bool)
        assert collaborative_margin(cos, mask, 0.4, 0.2)[0] == 0.4

    def test_single_hard_negative_at_extreme(self):
        cos = np.array([[0.1, 1.0]])
        mask = np.array([[False, True]])
        assert abs(collaborative_margin(cos, mask, 0.4, 0.2)[0] - 0.6) < 1e-15

    def test_two_hard_negatives_mean(self):
        cos = np.array([[0.1, 0.5, 0.3]])
        mask = np.array([[False, True, True]])
        got = collaborative_margin(cos, mask, 0.4, 0.2)[0]
        assert abs(got - 0.48) < 1e-15

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            n, c = int(rng.integers(1, 7)), int(rng.integers(2, 10))
            cos = rng.uniform(-1, 1, (n, c))
            labels = rng.integers(0, c, n)
            mask = compute_mask(cos, labels, float(rng.uniform(0, 0.6)))
            m0, m1 = float(rng.uniform(0, 0.5)), float(rng.uniform(0, 0.3))
            margins = collaborative_margin(cos, mask, m0, m1)
            assert np.all(margins >= m0 - m1 - 1e-12)
            assert np.all(margins <= m0 + m1 + 1e-12)
            empty = ~mask.any(axis=1)
            assert np.all(margins[empty] == m0)

            # raising one masked cosine never decreases the margin
            if mask.any():
                i, j = map(int, np.argwhere(mask)[0])
                bumped = cos.copy()
                bumped[i, j] = min(1.0, bumped[i, j] + rng.uniform(0, 0.5))
                new_margins = collaborative_margin(bumped, mask, m0, m1)
                assert new_margins[i] >= margins[i] - 1e-12

    def test_zero_range_is_exactly_basic(self):
        rng = np.random.default_rng(23)
        cos = rng.uniform(-1, 1, (20, 5))
        labels = rng.integers(0, 5, 20)
        mask = compute_mask(cos, labels, 0.4)
        assert np.all(collaborative_margin(cos, mask, 0.4, 0.0) == 0.4)


class TestHardnessCorrelation:
    def cosines_with_all_rows_hard(self, rng, n, c):
        cos = rng.uniform(-0.5, 0.5, (n, c))
        labels = rng.integers(0, c, n)
        rows = np.arange(n)
        # plant a negative above the positive so every row is mis-classified
        neg = (labels + 1) % c
        cos[rows, neg] = cos[rows, labels] + rng.uniform(0.05, 0.3, n)
        return np.clip(cos, -1, 1), labels

    def test_perfect_anticorrelation(self):
        # distance pairs (0.1, 0.9) and (0.9, 0.1); the wide mask margin
        # marks both rows as hard
        cos = np.array([[0.9, 0.1, -0.5], [0.1, 0.9, -0.5]])
        labels = np.array([0, 0])
        stats, _ = row_scan([cos.copy()], labels, 1.5).statistics()
        assert stats["n_misclassified"] == 2
        assert abs(stats["pearson_r"] + 1.0) < 1e-12

    def test_constant_series_raises(self):
        cos = np.array([[0.5, 0.7, 0.0], [0.5, 0.7, -0.2]])
        labels = np.array([0, 0])
        with pytest.raises(InsufficientData, match="^a distance series is constant$"):
            row_scan([cos.copy()], labels, 0.0).correlation()

    def test_insufficient_samples(self):
        cos = np.array([[0.9, 0.1], [0.8, 0.2]])
        labels = np.array([0, 0])
        scan = row_scan([cos.copy()], labels, 0.0)  # nothing mis-classified
        with pytest.raises(InsufficientData, match="^need >= 2 mis-classified samples, got 0$"):
            scan.correlation()

    def test_matches_two_pass_pearson(self):
        rng = np.random.default_rng(24)
        cos, labels = self.cosines_with_all_rows_hard(rng, 50, 8)
        stats, _ = row_scan([cos.copy()], labels, 0.0).statistics()
        assert stats["n_misclassified"] == 50

        d_pos = [1.0 - cos[i, labels[i]] for i in range(50)]
        d_neg = [1.0 - max(cos[i, j] for j in range(8) if j != labels[i])
                 for i in range(50)]
        expected = scalar_pearson(d_pos, d_neg)
        assert abs(stats["pearson_r"] - expected) < 1e-12
        assert abs(stats["mean_pos_distance"] - np.mean(d_pos)) < 1e-12
        assert abs(stats["mean_neg_distance"] - np.mean(d_neg)) < 1e-12

    def test_nearest_negative_excludes_the_label_column(self):
        # at m0 > 0 a row is hard while its label cosine is still the row
        # maximum: cos(arccos 0.8 + 0.2) ~ 0.665 < 0.75 and
        # cos(arccos 0.6 + 0.2) ~ 0.429 < 0.58, so d_neg must come from the
        # nearest non-label class, not from the label column
        cos = np.array([[0.8, 0.75, 0.1], [0.6, 0.3, 0.58]])
        labels = np.array([0, 0])
        scan = row_scan([cos.copy()], labels, 0.2)
        np.testing.assert_array_equal(scan.nearest, [0.75, 0.58])
        np.testing.assert_array_equal(scan.mis, [True, True])
        np.testing.assert_array_equal(scan.pred, labels)
        stats = scan.statistics()[0]
        assert abs(stats["mean_neg_distance"] - 0.335) < 1e-15
        assert abs(stats["mean_pos_distance"] - 0.3) < 1e-15


class TestSimilarityDistributions:
    def split_cosines(self, mis_values, well_values, c=4):
        """Rows whose positive cosine is given; mis rows get a hard negative."""
        values = list(mis_values) + list(well_values)
        n = len(values)
        cos = np.full((n, c), -1.0)
        labels = np.zeros(n, dtype=int)
        cos[np.arange(n), 0] = values
        for i in range(len(mis_values)):
            cos[i, 1] = min(1.0, values[i] + 0.1)
        return np.clip(cos, -1, 1), labels

    def test_identical_populations_overlap_one(self):
        values = np.linspace(-0.5, 0.5, 200)
        cos, labels = self.split_cosines(values, values)
        stats, _ = row_scan([cos.copy()], labels, 0.0).statistics(n_bins=20)
        assert abs(stats["overlap_rate"] - 1.0) < 1e-12

    def test_disjoint_supports_overlap_zero(self):
        cos, labels = self.split_cosines(np.linspace(-0.8, -0.5, 50),
                                         np.linspace(0.5, 0.8, 50))
        stats, _ = row_scan([cos.copy()], labels, 0.0).statistics()
        assert stats["overlap_rate"] == 0.0

    def test_half_overlapping_uniform_populations(self):
        # mis ~ U[-0.5, 0.5], well ~ U[0, 1]: exact intersection mass is 0.5;
        # 40 bins over [-1, 1] align edges with 0.5 so only the grid
        # granularity contributes error
        mis = np.linspace(-0.5, 0.5, 4001)
        well = np.linspace(0.0, 1.0, 4001)
        cos, labels = self.split_cosines(mis, well)
        stats, _ = row_scan([cos.copy()], labels, 0.0).statistics(n_bins=40)
        assert abs(stats["overlap_rate"] - 0.5) < 2e-3

    def test_histograms_normalized(self):
        rng = np.random.default_rng(25)
        cos, labels = self.split_cosines(rng.uniform(-1, 0, 100), rng.uniform(0, 1, 300))
        _, (edges, h_mis, h_well) = row_scan([cos.copy()], labels, 0.0).statistics()
        assert abs(h_mis.sum() - 1.0) < 1e-9
        assert abs(h_well.sum() - 1.0) < 1e-9
        assert len(edges) == len(h_mis) + 1

    def test_empty_partition_raises(self):
        cos = np.array([[0.9, 0.1], [0.8, 0.0]])
        labels = np.array([0, 0])
        # the message names the whole scan, not a batch
        with pytest.raises(InsufficientData, match="^no mis-classified rows among the 2 scanned$"):
            row_scan([cos.copy()], labels, 0.0).overlap()
        with pytest.raises(InsufficientData, match="^no well-classified rows among the 2 scanned$"):
            row_scan([cos.copy()], 1 - labels, 0.0).overlap()

    def test_overlap_symmetric_in_groups(self):
        rng = np.random.default_rng(26)
        a = rng.uniform(-0.6, 0.2, 150)
        b = rng.uniform(-0.2, 0.6, 150)
        cos1, labels1 = self.split_cosines(a, b)
        cos2, labels2 = self.split_cosines(b, a)
        o1, *_ = row_scan([cos1.copy()], labels1, 0.0).overlap()
        o2, *_ = row_scan([cos2.copy()], labels2, 0.0).overlap()
        assert abs(o1 - o2) < 1e-12


class TestStatistics:
    def test_one_misclassified_row_defines_only_the_overlap(self):
        cos = np.array([[0.2, 0.5], [0.9, 0.1], [0.8, 0.0]])
        stats, histograms = row_scan([cos.copy()], np.zeros(3, dtype=int), 0.0).statistics()
        assert stats == {
            "n_misclassified": 1, "pearson_r": None, "mean_pos_distance": None,
            "mean_neg_distance": None, "overlap_rate": 0.0,
            "hardness_note": "need >= 2 mis-classified samples, got 1", "overlap_note": None,
        }
        assert len(histograms) == 3

    def test_no_misclassified_row_notes_both_statistics(self):
        cos = np.array([[0.9, 0.1], [0.8, 0.0]])
        stats, histograms = row_scan([cos.copy()], np.zeros(2, dtype=int), 0.0).statistics()
        assert list(stats) == ["n_misclassified", "pearson_r", "mean_pos_distance",
                               "mean_neg_distance", "overlap_rate", "hardness_note",
                               "overlap_note"]
        assert stats["n_misclassified"] == 0
        assert stats["pearson_r"] is stats["overlap_rate"] is histograms is None
        assert stats["hardness_note"] == "need >= 2 mis-classified samples, got 0"
        assert stats["overlap_note"] == "no mis-classified rows among the 2 scanned"

    def test_constant_series_is_noted(self):
        cos = np.array([[0.5, 0.7, 0.0], [0.5, 0.7, -0.2]])
        stats, _ = row_scan([cos.copy()], np.zeros(2, dtype=int), 0.0).statistics()
        assert stats["n_misclassified"] == 2
        assert stats["pearson_r"] is stats["mean_pos_distance"] is None
        assert stats["hardness_note"] == "a distance series is constant"
        assert stats["overlap_note"] == "no well-classified rows among the 2 scanned"


class TestNearestNegativeHistogram:
    def test_density_sums_to_one(self):
        rng = np.random.default_rng(27)
        cos = rng.uniform(-1, 1, (200, 6))
        labels = rng.integers(0, 6, 200)
        scan = row_scan([cos.copy()], labels, 0.3)
        if scan.mis.any():
            edges, density = scan.nearest_histogram()
            assert abs(density.sum() - 1.0) < 1e-9
            assert len(edges) == len(density) + 1

    def test_empty_mask_raises(self):
        cos = np.array([[0.99, -0.9], [0.95, -0.8]])
        labels = np.array([0, 0])
        scan = row_scan([cos.copy()], labels, 0.0)
        with pytest.raises(InsufficientData, match="^no mis-classified rows among the 2 scanned$"):
            scan.nearest_histogram()


def outcome(fn, *args, **kwargs):
    """A call's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, InsufficientData) as exc:
        return type(exc), str(exc)


def assert_same(got, expected):
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        assert got == expected
    else:
        for a, b in zip(got, expected, strict=True):
            np.testing.assert_array_equal(a, b)


# a few repeated values make ties within rows (argmax, nearest negative,
# the strict mask comparison) and across rows (histograms) common
TIED = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])


@st.composite
def scan_cases(draw):
    n = draw(st.integers(1, 40))
    c = draw(st.sampled_from([1, 2, 3, 7]))
    value = st.one_of(TIED, st.floats(-1.0, 1.0))
    cosines = np.array(draw(st.lists(value, min_size=n * c, max_size=n * c))).reshape(n, c)
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n)))
    block = draw(st.integers(1, n + 3))
    m0 = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    return cosines, labels, block, m0


class TestRowScan:
    @settings(max_examples=300, deadline=None)
    @given(scan_cases(), st.integers(2, 12))
    def test_blocked_scan_matches_numpy_and_one_block(self, case, n_bins):
        cosines, labels, block, m0 = case
        blocks = (cosines[i:i + block].copy() for i in range(0, len(labels), block))
        scan = row_scan(blocks, labels, m0)

        rows = np.arange(len(labels))
        negatives = cosines.copy()
        negatives[rows, labels] = -np.inf
        np.testing.assert_array_equal(scan.mis, compute_mask(cosines, labels, m0).any(axis=1))
        np.testing.assert_array_equal(scan.pos_cos, cosines[rows, labels])
        np.testing.assert_array_equal(scan.nearest, negatives.max(axis=1))
        np.testing.assert_array_equal(scan.pred, cosines.argmax(axis=1))
        assert scan.accuracy(labels) == float(np.mean(cosines.argmax(axis=1) == labels))

        whole = row_scan([cosines.copy()], labels, m0)
        assert_same(outcome(scan.correlation), outcome(whole.correlation))
        assert_same(outcome(scan.overlap, n_bins), outcome(whole.overlap, n_bins))
        assert_same(outcome(scan.nearest_histogram, n_bins),
                    outcome(whole.nearest_histogram, n_bins))
        assert scan.statistics(n_bins)[0] == whole.statistics(n_bins)[0]

    # the label cosine ties the nearest negative: argmax keeps the first
    # maximum, so the label wins only from the lower index
    @pytest.mark.parametrize("labels", [[0], [2]], ids=["label_left", "label_right"])
    def test_tie_with_nearest_negative_follows_argmax(self, labels):
        cosines = np.array([[0.7, 0.2, 0.7]])
        scan = row_scan([cosines.copy()], np.array(labels), 0.1)
        np.testing.assert_array_equal(scan.pred, cosines.argmax(axis=1))

    def test_nearest_negative_at_the_threshold_is_not_hard(self):
        threshold = cos_shifted(0.8, 0.3)
        cosines = np.array([[0.8, threshold, -0.5], [0.8, np.nextafter(threshold, 1.0), -0.5]])
        labels = np.array([0, 0])
        scan = row_scan([cosines.copy()], labels, 0.3)
        np.testing.assert_array_equal(scan.mis, [False, True])
        np.testing.assert_array_equal(scan.mis, compute_mask(cosines, labels, 0.3).any(axis=1))

    def test_blocks_must_cover_every_label(self):
        cosines = np.zeros((4, 3))
        with pytest.raises(ValueError):
            row_scan([cosines[:3]], np.zeros(4, dtype=int), 0.0)

    def test_peak_memory_is_a_fraction_of_the_matrix(self):
        n, c, d = 6000, 500, 8
        rng = np.random.default_rng(28)
        inputs = rng.standard_normal((n, d))
        labels = rng.integers(0, c, n)
        model = EmbeddingNet(ModelSpec(layer_widths=(d, 8, d), seed=1))
        weights = init_class_weights(c, d, 1.0, 2)
        tracemalloc.start()
        try:
            scan = row_scan(full_set_cosines(model, weights, inputs), labels, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert scan.pos_cos.shape == (n,)
        assert peak < n * c * 8 / 2
        # one block buffer of at most BLOCK_BYTES, plus the length-N vectors
        assert peak < 2 * BLOCK_BYTES

    def test_blocked_scan_is_the_one_block_scan_bit_for_bit(self):
        # one row past three full blocks: the tail row joins the last block
        c, d = 500, 8
        rows = row_blocks(10 ** 6, c)[0].stop
        n = 3 * rows + 1
        rng = np.random.default_rng(29)
        inputs = rng.standard_normal((n, d))
        labels = rng.integers(0, c, n)
        model = EmbeddingNet(ModelSpec(layer_widths=(d, 8, d), seed=1))
        weights = init_class_weights(c, d, 1.0, 2)
        sizes = [block.shape[0] for block in full_set_cosines(model, weights, inputs)]
        assert sizes == [rows, rows, rows + 1]
        blocked = row_scan(full_set_cosines(model, weights, inputs), labels, 0.1)
        whole = cosine_matrix(normalize_rows(model.forward(inputs)[0]), normalize_rows(weights))
        one_block = row_scan([whole], labels, 0.1)
        for name in ("pos_cos", "nearest", "pred", "mis"):
            assert getattr(blocked, name).tobytes() == getattr(one_block, name).tobytes()
