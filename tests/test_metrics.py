import tracemalloc

import numpy as np
import pytest

from marginlab.config import build_config
from marginlab.data import evaluation_split
from marginlab.geometry import normalize_rows, row_blocks
from marginlab.errors import AllRejected, InsufficientData
from marginlab.metrics import (
    _best_threshold,
    build_pairs,
    kfold_threshold_accuracy,
    pair_scores,
    rank1_identification,
    roc,
    tar_at_far,
)
from marginlab.seeds import named_rng
from oracles import (
    brute_force_best_threshold,
    brute_force_rank1,
    brute_force_roc,
    brute_force_tar_at_far,
    brute_force_threshold_accuracy,
    loop_build_pairs,
)


class TestBuildPairs:
    def test_two_by_two(self):
        pairs = build_pairs(np.array([0, 0, 1, 1]), 1, 1, seed=0)
        assert len(pairs) == 2
        assert pairs.is_same.tolist() == [True, False]
        a, b = pairs.index_a[0], pairs.index_b[0]
        assert {a, b} in ({0, 1}, {2, 3})

    def test_too_many_positives(self):
        with pytest.raises(InsufficientData, match="^requested 3 positive pairs, only 2 exist$"):
            build_pairs(np.array([0, 0, 1, 1]), 3, 1, seed=0)

    def test_too_many_negatives(self):
        with pytest.raises(InsufficientData, match="^requested 5 negative pairs, only 4 exist$"):
            build_pairs(np.array([0, 0, 1, 1]), 1, 5, seed=0)

    def test_deterministic(self):
        labels = np.repeat(np.arange(10), 4)
        a = build_pairs(labels, 30, 60, seed=5)
        b = build_pairs(labels, 30, 60, seed=5)
        np.testing.assert_array_equal(a.index_a, b.index_a)
        np.testing.assert_array_equal(a.index_b, b.index_b)

    def test_pairs_are_valid_and_unique(self):
        labels = np.repeat(np.arange(8), 5)
        pairs = build_pairs(labels, 40, 120, seed=9)
        seen = set()
        for a, b, same in zip(pairs.index_a, pairs.index_b, pairs.is_same):
            assert a != b
            assert (labels[a] == labels[b]) == same
            key = (min(a, b), max(a, b))
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("labels, n_positive, n_negative", [
        ([0] * 5 + [1] * 2 + [2] * 7 + [3] * 3, 34, 40),     # uneven classes, every positive
        ([0] * 5 + [1] * 2 + [2] * 7 + [3] * 3, 12, 40),
        ([0, 0, 0, 1, 2, 2, 2, 2], 9, 10),                   # a single-member class
        ([3, 1, 2, 1, 3, 0, 2, 2, 1, 3, 0, 1], 13, 30),      # unsorted labels
    ])
    def test_matches_double_loop_oracle(self, labels, n_positive, n_negative):
        pairs = build_pairs(np.array(labels), n_positive, n_negative, seed=4)
        index_a, index_b, is_same = loop_build_pairs(labels, n_positive, n_negative,
                                                     named_rng(4, "pairs"))
        assert pairs.index_a.dtype == pairs.index_b.dtype == np.int64
        assert pairs.index_a.tolist() == index_a
        assert pairs.index_b.tolist() == index_b
        assert pairs.is_same.tolist() == is_same

    @pytest.mark.parametrize("eval_values", [
        {"dataset.n_classes": 100, "eval.samples_per_class": 10,           # crowded task
         "eval.n_positive_pairs": 2500, "eval.n_negative_pairs": 8000},
        {},                                                                # shipped defaults
    ], ids=["crowded", "default"])
    def test_block_draws_match_the_draw_by_draw_loop(self, eval_values):
        # every TAR depends on these draws: the negatives drawn in blocks must
        # be the pairs, in the order, that one scalar draw per endpoint gives
        experiment = build_config(eval_values)
        ev = experiment.eval
        labels = evaluation_split(experiment.dataset, ev.samples_per_class,
                                  ev.n_distractors, experiment.eval_seed).labels
        for seed in range(40):
            pairs = build_pairs(labels, ev.n_positive_pairs, ev.n_negative_pairs, seed)
            index_a, index_b, is_same = loop_build_pairs(
                labels.tolist(), ev.n_positive_pairs, ev.n_negative_pairs,
                named_rng(seed, "pairs"))
            assert pairs.index_a.tolist() == index_a
            assert pairs.index_b.tolist() == index_b
            assert pairs.is_same.tolist() == is_same

    def test_pair_scores_are_cosines(self):
        rng = np.random.default_rng(0)
        emb = rng.standard_normal((8, 5))
        labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
        pairs = build_pairs(labels, 4, 4, seed=1)
        scores = pair_scores(emb, pairs)
        for k in range(len(pairs)):
            a, b = pairs.index_a[k], pairs.index_b[k]
            expected = emb[a] @ emb[b] / (np.linalg.norm(emb[a]) * np.linalg.norm(emb[b]))
            assert abs(scores[k] - expected) < 1e-12


class TestRoc:
    def test_perfect_separation_has_ideal_point(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        flags = np.array([True, True, False, False])
        curve = roc(scores, flags)
        assert any(f == 0.0 and t == 1.0 for _, f, t in curve.points())

    def test_all_equal_scores_degenerate_two_points(self):
        curve = roc(np.array([0.5, 0.5, 0.5]), np.array([True, False, True]))
        assert len(curve.thresholds) == 2
        assert (curve.far[0], curve.tar[0]) == (1.0, 1.0)
        assert (curve.far[1], curve.tar[1]) == (0.0, 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(30)
        for trial in range(50):
            n = int(rng.integers(4, 30))
            scores = np.round(rng.standard_normal(n), 2)  # force some ties
            flags = rng.integers(0, 2, n).astype(bool)
            if flags.all() or not flags.any():
                continue
            curve = roc(scores, flags)
            expected = brute_force_roc(scores.tolist(), flags.tolist())
            assert len(curve.thresholds) == len(expected)
            for (t, f, ta), (et, ef, eta) in zip(curve.points(), expected):
                assert t == et and f == ef and ta == eta

    def test_monotone_invariants(self):
        rng = np.random.default_rng(31)
        scores = rng.standard_normal(200)
        flags = rng.integers(0, 2, 200).astype(bool)
        curve = roc(scores, flags)
        assert np.all(np.diff(curve.far) <= 0)
        assert np.all(np.diff(curve.tar) <= 0)

    def test_degenerate_input(self):
        with pytest.raises(InsufficientData,
                           match="^need at least one positive and one negative score$"):
            roc(np.array([0.5, 0.6]), np.array([True, True]))

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(32)
        scores = rng.standard_normal(100)
        flags = rng.integers(0, 2, 100).astype(bool)
        a = roc(scores, flags)
        b = roc(np.tanh(scores) * 3 + 1, flags)
        np.testing.assert_array_equal(a.far, b.far)
        np.testing.assert_array_equal(a.tar, b.tar)


class TestTarAtFar:
    def test_loose_target_accepts_everything(self):
        scores = np.array([0.9, 0.7, 0.5, 0.3])
        flags = np.array([True, True, False, False])
        assert tar_at_far(roc(scores, flags), 1.0) == 1.0

    def test_perfect_separation_any_target(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        flags = np.array([True, True, False, False])
        for target in (0.9, 0.5, 0.01):
            assert tar_at_far(roc(scores, flags), target) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(33)
        for trial in range(50):
            scores = np.round(rng.standard_normal(20), 1)
            flags = rng.integers(0, 2, 20).astype(bool)
            if flags.all() or not flags.any():
                continue
            curve = roc(scores, flags)
            for target in (0.05, 0.1, 0.3, 0.7, 1.0):
                got = tar_at_far(curve, target)
                assert got == brute_force_tar_at_far(scores.tolist(), flags.tolist(), target)

    def test_non_decreasing_in_target(self):
        rng = np.random.default_rng(34)
        scores = rng.standard_normal(60)
        flags = rng.integers(0, 2, 60).astype(bool)
        curve = roc(scores, flags)
        targets = np.linspace(0.01, 1.0, 25)
        values = [tar_at_far(curve, t) for t in targets]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_all_rejected_notice(self):
        # every negative outscores every positive: no usable threshold
        scores = np.array([0.1, 0.2, 0.8, 0.9])
        flags = np.array([True, True, False, False])
        curve = roc(scores, flags)
        with pytest.warns(AllRejected):
            assert tar_at_far(curve, 0.25) == 0.0


class TestRank1:
    def test_exact_duplicates_are_found(self):
        rng = np.random.default_rng(35)
        emb = rng.standard_normal((10, 6))
        labels = np.arange(10)
        assert rank1_identification(emb, labels, emb, labels, np.zeros((0, 6))) == 1.0

    def test_tie_prefers_gallery_entry(self):
        probe = np.array([[1.0, 0.0]])
        gallery = np.array([[1.0, 0.0], [0.0, 1.0]])
        distractor = np.array([[1.0, 0.0]])  # same direction, higher index
        assert rank1_identification(probe, [7], gallery, [7, 8], distractor) == 1.0

    def test_missing_mate(self):
        with pytest.raises(InsufficientData, match=r"^probe labels missing from gallery: \[5\]$"):
            rank1_identification(np.eye(2), [0, 5], np.eye(2), [0, 1], np.zeros((0, 2)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(36)
        gallery_labels = np.arange(20)
        for trial in range(50):
            gallery = rng.standard_normal((20, 8))
            probes = gallery[rng.permutation(20)[:10]] + 0.3 * rng.standard_normal((10, 8))
            probe_labels = []
            for p in probes:
                sims = (gallery / np.linalg.norm(gallery, axis=1, keepdims=True)) @ (p / np.linalg.norm(p))
                probe_labels.append(int(rng.integers(0, 20)))
            distractors = rng.standard_normal((30, 8))
            got = rank1_identification(probes, probe_labels, gallery, gallery_labels, distractors)
            expected = brute_force_rank1(probes.tolist(), probe_labels,
                                         gallery.tolist(), gallery_labels.tolist(),
                                         distractors.tolist())
            assert abs(got - expected) < 1e-12

    def test_blocks_give_the_whole_matrix_argmax(self):
        # one probe past three full blocks, so the tail row joins the last block
        rng = np.random.default_rng(39)
        g, n_distractors, d = 300, 900, 8
        rows = row_blocks(10 ** 6, g + n_distractors)[0].stop
        p = 3 * rows + 1
        gallery = rng.standard_normal((g, d))
        distractors = rng.standard_normal((n_distractors, d))
        gallery_labels = rng.integers(0, 150, g)
        mates = rng.integers(0, g, p)
        probes = gallery[mates] + 0.8 * rng.standard_normal((p, d))
        probe_labels = gallery_labels[mates]
        candidates = normalize_rows(np.vstack([gallery, distractors]))
        best = (normalize_rows(probes) @ candidates.T).argmax(axis=1)
        mate = np.minimum(best, g - 1)
        expected = np.mean((best < g) & (gallery_labels[mate] == probe_labels))
        assert 0.2 < expected < 0.8
        got = rank1_identification(probes, probe_labels, gallery, gallery_labels, distractors)
        assert got == float(expected)

    def test_exact_ties_across_a_block_boundary_go_to_the_lowest_index(self):
        # axis-aligned rows give exact cosines; every probe ties with the two
        # gallery rows and the distractors on its axis, and only the lowest
        # candidate index carries its label in the first half of the probes
        d, g, n_distractors = 8, 16, 1008
        rows = row_blocks(10 ** 6, g + n_distractors)[0].stop
        p = 2 * rows + 1
        axis = np.arange(p) % d
        probes = np.eye(d)[axis]
        gallery = np.eye(d)[np.arange(g) % d]
        distractors = np.eye(d)[np.arange(n_distractors) % d]
        first = np.arange(p) < rows + rows // 2             # straddles the boundary at ``rows``
        probe_labels = np.where(first, axis, axis + d)
        got = rank1_identification(probes, probe_labels, gallery, np.arange(g), distractors)
        assert got == float(np.mean(first))

    def test_holds_a_block_not_the_matrix(self):
        rng = np.random.default_rng(40)
        p, g, n_distractors, d = 2000, 200, 1000, 8
        assert len(row_blocks(p, g + n_distractors)) >= 4
        gallery = rng.standard_normal((g, d))
        probes = gallery[rng.integers(0, g, p)] + 0.5 * rng.standard_normal((p, d))
        distractors = rng.standard_normal((n_distractors, d))
        tracemalloc.start()
        try:
            rank1_identification(probes, np.zeros(p, dtype=int), gallery, np.zeros(g, dtype=int),
                                 distractors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * (g + n_distractors) * 8 / 4

    def test_distractors_never_help(self):
        rng = np.random.default_rng(37)
        gallery = rng.standard_normal((15, 6))
        labels = np.arange(15)
        probes = gallery + 0.5 * rng.standard_normal((15, 6))
        base = rank1_identification(probes, labels, gallery, labels, np.zeros((0, 6)))
        more = rank1_identification(probes, labels, gallery, labels,
                                    rng.standard_normal((50, 6)))
        assert more <= base


class TestKfoldAccuracy:
    def test_perfectly_separated(self):
        scores = np.concatenate([np.linspace(0.6, 0.9, 20), np.linspace(0.1, 0.4, 20)])
        flags = np.concatenate([np.ones(20, bool), np.zeros(20, bool)])
        for k in (2, 5, 10):
            assert kfold_threshold_accuracy(scores, flags, k, seed=0) == 1.0

    def test_independent_labels_approach_class_prior(self):
        rng = np.random.default_rng(38)
        n = 4000
        scores = rng.standard_normal(n)
        flags = rng.random(n) < 0.7
        acc = kfold_threshold_accuracy(scores, flags, 10, seed=1)
        assert abs(acc - 0.7) < 0.03

    def test_leave_one_out_matches_enumeration(self):
        rng = np.random.default_rng(39)
        n = 12
        scores = np.round(rng.standard_normal(n), 1)
        flags = rng.integers(0, 2, n).astype(bool)
        if flags.all() or not flags.any():
            flags[0] = not flags[0]
        k = n
        got = kfold_threshold_accuracy(scores, flags, k, seed=7)

        order = named_rng(7, "folds").permutation(n)
        folds = np.array_split(order, k)
        accs = []
        for held in range(k):
            train_idx = np.concatenate([folds[i] for i in range(k) if i != held])
            t = brute_force_best_threshold(scores[train_idx].tolist(),
                                           flags[train_idx].tolist())
            accs.append(brute_force_threshold_accuracy(
                scores[folds[held]].tolist(), flags[folds[held]].tolist(), t))
        assert abs(got - np.mean(accs)) < 1e-12

    @pytest.mark.parametrize("values", [
        np.arange(5) / 4.0,                    # few distinct scores, many ties
        0.3 + np.arange(8) * np.spacing(0.3),  # adjacent floats: midpoints round onto a score
    ])
    def test_best_threshold_matches_brute_force_exactly(self, values):
        rng = np.random.default_rng(41)
        for _ in range(20):
            scores = rng.choice(values, 40)
            flags = rng.random(40) < 0.5
            assert _best_threshold(scores, flags) == brute_force_best_threshold(
                scores.tolist(), flags.tolist())

    def test_insufficient_pairs(self):
        with pytest.raises(InsufficientData, match="^2 pairs cannot fill 5 folds$"):
            kfold_threshold_accuracy(np.array([0.5, 0.2]), np.array([True, False]), 5, seed=0)
        with pytest.raises(InsufficientData, match="^k must be >= 2, got 1$"):
            kfold_threshold_accuracy(np.array([0.5, 0.2]), np.array([True, False]), 1, seed=0)

    def test_invariant_under_affine_transform(self):
        # midpoint thresholds commute with affine maps; general monotone
        # transforms can relocate scores relative to midpoints
        rng = np.random.default_rng(40)
        scores = rng.standard_normal(80)
        flags = rng.integers(0, 2, 80).astype(bool)
        a = kfold_threshold_accuracy(scores, flags, 8, seed=3)
        b = kfold_threshold_accuracy(2.5 * scores + 1.0, flags, 8, seed=3)
        assert a == b
