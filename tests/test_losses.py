import math
from dataclasses import replace

import numpy as np
import pytest

from marginlab import losses
from marginlab.errors import ConfigMismatch, DimensionMismatch
from marginlab.geometry import cos_shifted, normalize_rows
from marginlab.hardness import collaborative_margin, compute_mask
from marginlab.losses import (
    LossConfig,
    Variant,
    backward_cosines,
    backward_logits,
    backward_parameters,
    central_difference,
    finite_difference_check,
    forward_logits,
    freeze,
    frozen_auxiliaries,
    head_backward,
    head_forward,
    loss_and_gradients,
    loss_value,
    softmax_probabilities,
)
from oracles import scalar_loss
from testlib import conditioned_instances, draw_instance, well_conditioned


def npc_config(**kw):
    defaults = dict(variant=Variant.NPCFACE, s=64.0, t=1.1, alpha=0.25, m0=0.4, m1=0.2)
    defaults.update(kw)
    return LossConfig(**defaults)


class TestForwardLogits:
    def test_npcface_easy_negative_is_plain(self):
        cos = np.array([[0.9, 0.5]])
        labels = np.array([0])
        mask = np.zeros((1, 2), dtype=bool)
        margins = np.array([0.4])
        logits = forward_logits(cos, freeze(cos.shape, labels, mask, margins), npc_config())
        assert logits[0, 1] == 64.0 * 0.5

    def test_npcface_hard_negative_emphasis(self):
        cos = np.array([[0.9, 0.5]])
        labels = np.array([0])
        mask = np.array([[False, True]])
        margins = np.array([0.4])
        logits = forward_logits(cos, freeze(cos.shape, labels, mask, margins), npc_config())
        assert abs(logits[0, 1] - 51.2) < 1e-12  # 64 * (1.1*0.5 + 0.25)

    def test_mv_softmax_hard_negative(self):
        cos = np.array([[0.9, 0.5]])
        labels = np.array([0])
        mask = np.array([[False, True]])
        cfg = LossConfig(variant=Variant.MV_SOFTMAX, s=64.0, t=1.1, m=0.4)
        logits = forward_logits(cos, freeze(cos.shape, labels, mask), cfg)
        assert abs(logits[0, 1] - 41.6) < 1e-12  # 64 * (1.1*0.5 + 0.1)

    def test_positive_logit_uses_collaborative_margin(self):
        cos = np.array([[0.8, 0.3]])
        labels = np.array([0])
        mask = np.array([[False, True]])
        margins = np.array([0.55])
        logits = forward_logits(cos, freeze(cos.shape, labels, mask, margins), npc_config())
        assert abs(logits[0, 0] - 64.0 * cos_shifted(0.8, 0.55)) < 1e-12

    def test_cosface_subtracts_margin(self):
        cos = np.array([[0.8, 0.3]])
        cfg = LossConfig(variant=Variant.COSFACE, s=30.0, m=0.35)
        logits = forward_logits(cos, freeze(cos.shape, [0]), cfg)
        assert abs(logits[0, 0] - 30.0 * 0.45) < 1e-12
        assert logits[0, 1] == 30.0 * 0.3

    def test_masked_variant_requires_mask(self):
        cos = np.array([[0.8, 0.3]])
        with pytest.raises(ConfigMismatch):
            forward_logits(cos, freeze(cos.shape, [0]), npc_config())
        with pytest.raises(ConfigMismatch):
            forward_logits(cos, freeze(cos.shape, [0]),
                           LossConfig(variant=Variant.MV_SOFTMAX))

    def test_npcface_requires_margins_too(self):
        cos = np.array([[0.8, 0.3]])
        with pytest.raises(ConfigMismatch):
            forward_logits(cos, freeze(cos.shape, [0], np.zeros((1, 2), dtype=bool)),
                           npc_config())


class TestSoftmaxAndLoss:
    def test_symmetric_row(self):
        np.testing.assert_allclose(
            softmax_probabilities(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)

    def test_log_two_row(self):
        p = softmax_probabilities(np.array([[math.log(2.0), 0.0]]))
        np.testing.assert_allclose(p, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_large_logits_do_not_overflow(self):
        p = softmax_probabilities(np.array([[1000.0, 0.0]]))
        assert np.isfinite(p).all()
        np.testing.assert_allclose(p, [[1.0, 0.0]], atol=1e-300)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        p = softmax_probabilities(rng.standard_normal((40, 17)) * 30)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_perfect_prediction_zero_loss(self):
        probs = np.eye(3)
        assert loss_value(probs, freeze(probs.shape, [0, 1, 2])) == 0.0

    def test_half_probability_gives_log_two(self):
        probs = np.array([[0.5, 0.5]])
        assert abs(loss_value(probs, freeze(probs.shape, [0])) - math.log(2)) < 1e-12


class TestBackwardLogits:
    def test_single_sample(self):
        grad = backward_logits(np.array([[0.7, 0.3]]), freeze((1, 2), [0]))
        np.testing.assert_allclose(grad, [[-0.3, 0.3]], atol=1e-15)

    def test_one_hot_probabilities_give_zero_row(self):
        grad = backward_logits(np.array([[1.0, 0.0]]), freeze((1, 2), [0]))
        np.testing.assert_array_equal(grad, [[0.0, 0.0]])

    def test_zero_sum_identity(self):
        rng = np.random.default_rng(11)
        total_rows = 0
        while total_rows < 1000:
            n, c = int(rng.integers(1, 9)), int(rng.integers(2, 17))
            probs = softmax_probabilities(rng.standard_normal((n, c)) * 20)
            grad = backward_logits(probs, freeze((n, c), rng.integers(0, c, n)))
            assert np.all(np.abs(grad.sum(axis=1)) < 1e-10)
            total_rows += n


class TestBackwardCosines:
    def test_easy_negative_factor_is_s(self):
        cos = np.array([[0.9, 0.2]])
        mask = np.zeros((1, 2), dtype=bool)
        d = backward_cosines(np.ones((1, 2)), cos, freeze(cos.shape, [0], mask, np.array([0.4])),
                             npc_config())
        assert d[0, 1] == 64.0

    def test_hard_negative_factor_is_s_times_t(self):
        cos = np.array([[0.9, 0.2]])
        mask = np.array([[False, True]])
        d = backward_cosines(np.ones((1, 2)), cos, freeze(cos.shape, [0], mask, np.array([0.4])),
                             npc_config())
        assert abs(d[0, 1] - 70.4) < 1e-12

    def test_arcface_positive_limit_at_zero_angle(self):
        cos = np.array([[1.0, 0.0]])
        cfg = LossConfig(variant=Variant.ARCFACE, s=64.0, m=0.4)
        d = backward_cosines(np.ones((1, 2)), cos, freeze(cos.shape, [0]), cfg)
        assert abs(d[0, 0] - 64.0 * math.cos(0.4)) < 1e-12

    def test_zero_gradient_beyond_pi_clamp(self):
        cos = np.array([[-0.95, 0.0]])
        cfg = LossConfig(variant=Variant.ARCFACE, s=64.0, m=0.5)
        d = backward_cosines(np.ones((1, 2)), cos, freeze(cos.shape, [0]), cfg)
        assert d[0, 0] == 0.0

    def test_arcface_factor_matches_angle_ratio(self):
        rng = np.random.default_rng(12)
        cfg = LossConfig(variant=Variant.ARCFACE, s=10.0, m=0.3)
        for _ in range(100):
            c = float(rng.uniform(-0.8, 0.99))
            theta = math.acos(c)
            d = backward_cosines(np.ones((1, 2)), np.array([[c, 0.0]]),
                                 freeze((1, 2), [0]), cfg)
            expected = 10.0 * math.sin(theta + 0.3) / math.sin(theta)
            assert abs(d[0, 0] - expected) < 1e-9 * abs(expected)


@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("variant", [Variant.MV_SOFTMAX, Variant.NPCFACE])
def test_hard_entries_match_the_plain_blend_at_any_density(variant, density):
    # the hard entries take a sparse or a dense route depending on their
    # share; either must give the elementwise blend bit for bit
    rng = np.random.default_rng(33)
    n, c = 6, 50
    cos, d_logits = rng.uniform(-1, 1, (n, c)), rng.standard_normal((n, c))
    labels = rng.integers(0, c, n)
    mask = rng.random((n, c)) < density
    mask[np.arange(n), labels] = False
    cfg = npc_config(variant=variant)
    offset = cfg.alpha if variant is Variant.NPCFACE else cfg.t - 1.0
    margins = collaborative_margin(cos, mask, cfg.m0, cfg.m1)
    negatives = np.ones((n, c), dtype=bool)
    negatives[np.arange(n), labels] = False

    frozen = freeze(cos.shape, labels, mask, margins)
    logits = forward_logits(cos, frozen, cfg)
    blend = np.where(mask, cfg.s * (cfg.t * cos + offset), cfg.s * cos)
    assert logits[negatives].tobytes() == blend[negatives].tobytes()
    d_cos = backward_cosines(d_logits, cos, frozen, cfg)
    blend = d_logits * np.where(mask, cfg.s * cfg.t, cfg.s)
    assert d_cos[negatives].tobytes() == blend[negatives].tobytes()


@pytest.mark.parametrize("stage", ["forward_logits", "backward_cosines"])
@pytest.mark.parametrize("shape", [(5, 9), (6, 1), (6, 10)], ids=["short", "column", "wide"])
def test_misshaped_mask_is_rejected(stage, shape):
    # a given mask reaches a stage only through the entry point's freeze: the
    # forward stages through head_forward, the backward ones through
    # loss_and_gradients under the other masked variant
    rng = np.random.default_rng(34)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    labels = rng.integers(0, 9, 6)
    mask = np.zeros(shape, dtype=bool)
    mask[0, 0] = True
    entry, variant = {"forward_logits": (head_forward, Variant.NPCFACE),
                      "backward_cosines": (loss_and_gradients, Variant.MV_SOFTMAX)}[stage]
    with pytest.raises(DimensionMismatch, match="mask shape"):
        entry(x, w, labels, npc_config(variant=variant), mask, np.full(6, 0.4))


def test_stages_reject_a_record_of_another_matrix():
    # six rows of nine classes against records built for other shapes
    arcface = LossConfig(variant=Variant.ARCFACE)
    cos, probs = np.full((6, 9), 0.5), np.full((6, 9), 1 / 9)
    fewer_rows, wider = freeze((2, 27), [0, 1]), np.zeros((6, 10), dtype=bool)
    wider[-1, -1] = True                     # flat index 59, past 6 * 9
    with pytest.raises(DimensionMismatch, match="does not fit"):
        forward_logits(cos, freeze((1, 2), [0]), arcface)
    with pytest.raises(DimensionMismatch, match="does not fit"):
        losses.row_losses(probs, fewer_rows)
    with pytest.raises(DimensionMismatch, match="does not fit"):
        backward_logits(probs, fewer_rows)
    with pytest.raises(DimensionMismatch, match="does not fit"):   # a label index past N * C
        backward_cosines(probs, cos, freeze((6, 10), [0] * 5 + [9]), arcface)
    with pytest.raises(DimensionMismatch, match="does not fit"):   # a hard index past N * C
        backward_cosines(probs, cos, freeze((6, 10), [0] * 6, wider, np.full(6, 0.4)),
                         npc_config())
    fits = freeze(cos.shape, [0] * 5 + [8], np.eye(6, 9, 1, dtype=bool), np.full(6, 0.4))
    assert backward_cosines(probs, cos, fits, npc_config()).shape == (6, 9)


@pytest.mark.parametrize("classes", [1, 10], ids=["fewer", "more"])
def test_stages_reject_a_record_of_the_same_rows_and_other_classes(classes):
    # every flat index of such a record lies below 6 * 9 (at most 50 for ten
    # classes), so only the record's shape tells it from a 6 x 9 one
    arcface = LossConfig(variant=Variant.ARCFACE)
    cos, probs = np.full((6, 9), 0.5), np.full((6, 9), 1 / 9)
    other = freeze((6, classes), [0] * 6)
    for stage in (lambda: forward_logits(cos, other, arcface),
                  lambda: losses.row_losses(probs, other),
                  lambda: backward_logits(probs, other),
                  lambda: backward_cosines(probs, cos, other, arcface)):
        with pytest.raises(DimensionMismatch, match="does not fit"):
            stage()


def test_tiled_record_has_the_stacked_shape():
    rng = np.random.default_rng(40)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    cache = head_forward(x, w, rng.integers(0, 9, 6), npc_config())[1]
    assert cache.frozen.shape == (6, 9)
    for groups in (1, 3, 8):
        assert cache.tiled(groups).shape == (groups * 6, 9)


@pytest.mark.parametrize("variant", losses.MASKED_VARIANTS)
def test_margins_without_a_mask_are_rejected(variant):
    # given margins must not be dropped for mined ones
    rng = np.random.default_rng(41)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    labels = rng.integers(0, 9, 6)
    with pytest.raises(ConfigMismatch, match="requires a hard mask"):
        loss_and_gradients(x, w, labels, npc_config(variant=variant), None, np.full(6, 3.0))


@pytest.mark.parametrize("margins", [[0.4], [0.4, 0.4, 0.4]], ids=["one", "three"])
def test_misshaped_margins_are_rejected(margins):
    # a single margin must not be broadcast to every row
    rng = np.random.default_rng(38)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    labels = rng.integers(0, 9, 6)
    mask = np.zeros((6, 9), dtype=bool)
    with pytest.raises(DimensionMismatch, match="margins shape"):
        loss_and_gradients(x, w, labels, npc_config(), mask, np.array(margins))


@pytest.mark.parametrize("labels, match", [
    ([0, 1, 2, 3, 4, 5, 6], "labels shape"),
    ([0, 1, 2, 9, 4, 5], "out of range"),
    # numpy would wrap -1 to the last column instead of failing
    ([0, 1, 2, -1, 4, 5], "out of range"),
], ids=["long", "c", "minus_one"])
@pytest.mark.parametrize("variant", list(Variant))
def test_bad_labels_are_rejected(variant, labels, match):
    rng = np.random.default_rng(39)
    x, w = rng.standard_normal((6, 4)), rng.standard_normal((9, 4))
    with pytest.raises(DimensionMismatch, match=match):
        head_forward(x, w, np.array(labels), npc_config(variant=variant))


@pytest.mark.parametrize("shape", [(5, 9), (6, 1), (6, 10)], ids=["short", "column", "wide"])
def test_misshaped_d_logits_is_rejected(shape):
    rng = np.random.default_rng(35)
    cos, labels = rng.uniform(-1, 1, (6, 9)), rng.integers(0, 9, 6)
    with pytest.raises(DimensionMismatch, match="d_logits shape"):
        backward_cosines(np.ones(shape), cos, freeze(cos.shape, labels),
                         LossConfig(variant=Variant.ARCFACE))


def head_cache(x, w):
    """The forward-pass cache ``backward_parameters`` reads, for any labels."""
    labels = np.zeros(x.shape[0], dtype=int)
    return head_forward(x, w, labels, LossConfig(variant=Variant.NORM_SOFTMAX))[1]


class TestBackwardParameters:
    def test_zero_upstream_gives_zero(self):
        rng = np.random.default_rng(13)
        x, w = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        dx, dw = backward_parameters(np.zeros((3, 5)), head_cache(x, w))
        assert not dx.any() and not dw.any()

    def test_parallel_pair_is_stationary(self):
        x = np.array([[2.0, 0.0, 0.0]])
        w = np.array([[0.5, 0.0, 0.0]])
        dx, dw = backward_parameters(np.ones((1, 1)), head_cache(x, w))
        np.testing.assert_allclose(dx, 0.0, atol=1e-15)
        np.testing.assert_allclose(dw, 0.0, atol=1e-15)

    def test_against_finite_differences(self):
        # draw until no coordinate of the true gradient sits below the fd
        # noise floor, then check every coordinate to 1e-6
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((3, 4))
            w = rng.standard_normal((5, 4))
            d_cos = rng.standard_normal((3, 5))
            dx, dw = backward_parameters(d_cos, head_cache(x, w))
            if min(np.abs(dx).min(), np.abs(dw).min()) >= 1e-2:
                break

        def objective():
            return float(np.sum(d_cos * (normalize_rows(x) @ normalize_rows(w).T)))

        eps = 1e-6
        for arr, analytic in ((x, dx), (w, dw)):
            for idx in np.ndindex(arr.shape):
                saved = arr[idx]
                arr[idx] = saved + eps
                up = objective()
                arr[idx] = saved - eps
                down = objective()
                arr[idx] = saved
                numeric = (up - down) / (2 * eps)
                assert abs(analytic[idx] - numeric) / max(abs(numeric), 1e-12) < 1e-6


class TestLossOracle:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_scalar_composition(self, variant):
        rng = np.random.default_rng(15)
        for _ in range(30):
            n, c, d = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(3, 7))
            x = rng.standard_normal((n, d))
            w = rng.standard_normal((c, d))
            y = rng.integers(0, c, n)
            cfg = LossConfig(variant=variant, s=float(rng.uniform(4, 30)),
                             m=float(rng.uniform(0.0, 0.6)), t=float(rng.uniform(1.0, 1.3)),
                             alpha=float(rng.uniform(0.0, 0.3)), m0=float(rng.uniform(0.0, 0.5)),
                             m1=float(rng.uniform(0.0, 0.3)))
            bundle = loss_and_gradients(x, w, y, cfg)
            expected = scalar_loss(
                x.tolist(), w.tolist(), y.tolist(), variant.value, cfg.s,
                m=cfg.m, t=cfg.t, alpha=cfg.alpha, m0=cfg.m0, m1=cfg.m1)
            assert abs(bundle.loss - expected) <= 1e-12 * max(1.0, abs(expected))


    def test_mv_softmax_cos_positive_matches_scalar_composition(self):
        rng = np.random.default_rng(20)
        for _ in range(30):
            n, c, d = int(rng.integers(1, 6)), int(rng.integers(2, 8)), int(rng.integers(3, 7))
            x = rng.standard_normal((n, d))
            w = rng.standard_normal((c, d))
            y = rng.integers(0, c, n)
            cfg = LossConfig(variant=Variant.MV_SOFTMAX, mv_positive="cos",
                             s=float(rng.uniform(4, 30)), m=float(rng.uniform(0.0, 0.6)),
                             t=float(rng.uniform(1.0, 1.3)), m0=float(rng.uniform(0.0, 0.5)))
            bundle = loss_and_gradients(x, w, y, cfg)
            expected = scalar_loss(
                x.tolist(), w.tolist(), y.tolist(), "mv_softmax", cfg.s,
                m=cfg.m, t=cfg.t, m0=cfg.m0, mv_positive="cos")
            assert abs(bundle.loss - expected) <= 1e-12 * max(1.0, abs(expected))


class TestReductionIdentities:
    def assert_bundles_match(self, a, b, tol=1e-12):
        assert abs(a.loss - b.loss) <= tol * max(1.0, abs(b.loss))
        for x, y in ((a.d_logits, b.d_logits), (a.d_cosines, b.d_cosines),
                     (a.d_features, b.d_features), (a.d_weights, b.d_weights)):
            np.testing.assert_allclose(x, y, rtol=0, atol=tol * max(1.0, np.abs(y).max()))

    def random_case(self, seed):
        rng = np.random.default_rng(seed)
        n, c, d = int(rng.integers(1, 6)), int(rng.integers(2, 10)), int(rng.integers(3, 8))
        return rng.standard_normal((n, d)), rng.standard_normal((c, d)), rng.integers(0, c, n)

    def test_npcface_neutral_params_reduce_to_arcface(self):
        for seed in range(100):
            x, w, y = self.random_case(seed)
            npc = npc_config(s=20.0, t=1.0, alpha=0.0, m0=0.37, m1=0.0)
            arc = LossConfig(variant=Variant.ARCFACE, s=20.0, m=0.37)
            self.assert_bundles_match(loss_and_gradients(x, w, y, npc),
                                      loss_and_gradients(x, w, y, arc))

    def test_zero_margin_arcface_cosface_softmax_coincide(self):
        for seed in range(100):
            x, w, y = self.random_case(seed + 1000)
            bundles = [
                loss_and_gradients(x, w, y, LossConfig(variant=v, s=24.0, m=0.0))
                for v in (Variant.ARCFACE, Variant.COSFACE, Variant.NORM_SOFTMAX)
            ]
            self.assert_bundles_match(bundles[0], bundles[1])
            self.assert_bundles_match(bundles[1], bundles[2])

    def test_mv_softmax_empty_mask_is_arcface(self):
        for seed in range(100):
            x, w, y = self.random_case(seed + 2000)
            mv = LossConfig(variant=Variant.MV_SOFTMAX, s=18.0, m=0.3, t=1.25)
            arc = LossConfig(variant=Variant.ARCFACE, s=18.0, m=0.3)
            empty = np.zeros((len(y), w.shape[0]), dtype=bool)
            a = loss_and_gradients(x, w, y, mv, mask=empty)
            b = loss_and_gradients(x, w, y, arc)
            self.assert_bundles_match(a, b)


class TestMarginInequalities:
    def test_positive_margin_shrinks_target_probability(self):
        # with the angle in range, adding the positive margin strictly
        # lowers p_y and strictly raises every other class's probability
        rng = np.random.default_rng(16)
        checked = 0
        while checked < 1000:
            c_classes = int(rng.integers(2, 17))
            row = rng.uniform(-0.9, 0.9, c_classes)
            y = int(rng.integers(0, c_classes))
            theta_y = math.acos(row[y])
            m_max = math.pi - theta_y
            if m_max < 0.1:
                continue
            m = float(rng.uniform(0.05, min(1.0, m_max - 0.02)))
            cfg_plain = LossConfig(variant=Variant.ARCFACE, s=10.0, m=0.0)
            cfg_margin = LossConfig(variant=Variant.ARCFACE, s=10.0, m=m)
            labels = np.array([y])
            cos = row[None, :]
            frozen = freeze(cos.shape, labels)
            p_plain = softmax_probabilities(forward_logits(cos, frozen, cfg_plain))
            p_margin = softmax_probabilities(forward_logits(cos, frozen, cfg_margin))
            assert p_margin[0, y] < p_plain[0, y]
            others = np.arange(c_classes) != y
            assert np.all(p_margin[0, others] > p_plain[0, others])
            checked += 1


class TestHardNegativeAmplification:
    def test_emphasis_dominates_plain_logit_for_nonnegative_cosines(self):
        cfg = npc_config()
        cos = np.linspace(0.0, 1.0, 200)[None, :]
        labels = np.array([0])
        full_mask = np.ones((1, 200), dtype=bool)
        full_mask[0, 0] = False
        margins = np.array([cfg.m0])
        hard = forward_logits(cos, freeze(cos.shape, labels, full_mask, margins), cfg)
        easy = forward_logits(cos, freeze(cos.shape, labels, np.zeros_like(full_mask), margins),
                              cfg)
        assert np.all(hard[0, 1:] >= easy[0, 1:])


class TestFiniteDifferenceCheck:
    @staticmethod
    def spec_shape_instance(config, start_seed):
        from testlib import well_conditioned

        for seed in range(start_seed, start_seed + 100):
            rng = np.random.default_rng(seed)
            hub = rng.standard_normal(6)
            hub /= np.linalg.norm(hub)
            x = hub + 0.25 * rng.standard_normal((4, 6))
            w = hub + 0.25 * rng.standard_normal((8, 6))
            y = rng.integers(0, 8, 4)
            if well_conditioned(x, w, y, config):
                return x, w, y
        raise AssertionError("no well-conditioned instance found")

    def test_norm_softmax_spec_shape(self):
        cfg = LossConfig(variant=Variant.NORM_SOFTMAX, s=12.0)
        x, w, y = self.spec_shape_instance(cfg, 17)
        assert finite_difference_check(x, w, y, cfg, 1e-5) < 1e-6

    def test_npcface_default_shape(self):
        cfg = npc_config(s=12.0)
        x, w, y = self.spec_shape_instance(cfg, 18)
        assert finite_difference_check(x, w, y, cfg, 1e-5) < 1e-6

    def test_zero_loss_configuration(self):
        # one sample per class sitting exactly on its own weight direction
        x = np.eye(4)
        w = np.eye(4) * 2.0
        y = np.arange(4)
        cfg = LossConfig(variant=Variant.NORM_SOFTMAX, s=10.0)
        err = finite_difference_check(x, w, y, cfg, 1e-5)
        assert err < 1e-6

    @pytest.mark.parametrize("variant", list(Variant))
    def test_conditioned_instances_pass(self, variant):
        for x, w, y, cfg in conditioned_instances(variant, 10):
            assert finite_difference_check(x, w, y, cfg, 1e-5) < 1e-6

    def test_mv_softmax_cos_positive_conditioned_instances_pass(self):
        checked, seed = 0, 0
        while checked < 10:
            x, w, y, cfg = draw_instance(Variant.MV_SOFTMAX, seed)
            cfg = replace(cfg, mv_positive="cos")
            seed += 1
            if not well_conditioned(x, w, y, cfg):
                continue
            assert finite_difference_check(x, w, y, cfg, 1e-5) < 1e-6
            checked += 1

    @pytest.mark.parametrize("variant", list(Variant))
    def test_integer_scalars_pass(self, variant):
        # int scalars must not make the logit or factor tables integer arrays
        cfg = LossConfig(variant=variant, s=6, m=1, t=2, alpha=1, m0=1, m1=1)
        assert all(type(getattr(cfg, key)) is float
                   for key in ("s", "m", "t", "alpha", "m0", "m1"))
        checked, seed = 0, 0
        while checked < 3:
            x, w, y, _ = draw_instance(variant, seed)
            seed += 1
            if not well_conditioned(x, w, y, cfg):
                continue
            assert finite_difference_check(x, w, y, cfg, 1e-5) < 1e-6
            checked += 1

    def test_epsilon_range_enforced(self):
        x, w, y, cfg = draw_instance(Variant.NORM_SOFTMAX, 0)
        with pytest.raises(ValueError):
            finite_difference_check(x, w, y, cfg, 1e-2)

    def test_nan_error_is_the_worst(self):
        # a NaN loss makes every coordinate's error NaN; the check must fail
        array = np.zeros(3)
        err, worst = central_difference(
            [("a", array, np.ones(3), lambda stack: np.full(stack.size // 3, np.nan))],
            1e-5, 3)
        assert math.isnan(err)
        assert worst == "a[(0,)]"
        assert not err < 1e-5


class TestFrozenAuxiliaries:
    def test_plain_variants_get_none(self):
        cos = np.array([[0.9, 0.1]])
        frozen = frozen_auxiliaries(cos, np.array([0]), LossConfig(variant=Variant.ARCFACE))
        assert frozen.few is None and frozen.margins is None

    def test_npcface_gets_consistent_pair(self):
        rng = np.random.default_rng(19)
        cos = np.clip(rng.uniform(-1, 1, (6, 9)), -1, 1)
        y = rng.integers(0, 9, 6)
        cfg = npc_config()
        frozen = frozen_auxiliaries(cos, y, cfg)
        mask = compute_mask(cos, y, cfg.m0)
        assert frozen.shape == cos.shape
        np.testing.assert_array_equal(frozen.few, np.flatnonzero(mask if frozen.sparse else ~mask))
        np.testing.assert_array_equal(
            frozen.margins, collaborative_margin(cos, mask, cfg.m0, cfg.m1))


BUNDLE_ARRAYS = ("d_logits", "d_cosines", "d_features", "d_weights")


class TestFreshHeadArrays:
    """The head has no reused buffers: every call returns arrays of its own."""

    def test_fresh_calls_share_no_memory(self):
        rng = np.random.default_rng(32)
        x, w = rng.standard_normal((8, 5)), rng.standard_normal((12, 5))
        labels = rng.integers(0, 12, 8)
        first = loss_and_gradients(x, w, labels, npc_config())
        second = loss_and_gradients(x, w, labels, npc_config())
        for a in BUNDLE_ARRAYS:
            for b in BUNDLE_ARRAYS:
                assert not np.shares_memory(getattr(first, a), getattr(second, b)), (a, b)


def forced_route(monkeypatch, route):
    """Make every head call take the ``route`` ("sparse" or "dense")."""
    monkeypatch.setattr(losses, "_SPARSE_HARD", 2.0 if route == "sparse" else 0.0)


@pytest.mark.parametrize("density", [0.0, 0.001, 0.5, 1.0], ids=["empty", "0.001", "0.5", "all"])
@pytest.mark.parametrize("variant", list(Variant))
def test_routes_give_the_same_bits(variant, density, monkeypatch):
    # the sparse route maps the hard entries at their indices, the dense
    # route maps every entry as hard and puts the easy ones back; each entry
    # gets the same float operations either way
    rng = np.random.default_rng(36)
    n, c, d = 40, 50, 6
    x, w = rng.standard_normal((n, d)), rng.standard_normal((c, d))
    labels = rng.integers(0, c, n)
    mask = rng.random((n, c)) < density
    mask[np.arange(n), labels] = False
    cfg = npc_config(variant=variant, s=12.0)
    margins = collaborative_margin(normalize_rows(x) @ normalize_rows(w).T, mask, cfg.m0, cfg.m1)
    bundles = []
    for route in ("sparse", "dense"):
        forced_route(monkeypatch, route)
        bundles.append(loss_and_gradients(x, w, labels, cfg, mask, margins))
    sparse, dense = bundles
    assert sparse.loss == dense.loss
    for name in BUNDLE_ARRAYS:
        assert getattr(sparse, name).tobytes() == getattr(dense, name).tobytes(), name


@pytest.mark.parametrize("variant", losses.MASKED_VARIANTS)
def test_routes_give_the_same_bits_on_mined_masks(variant, monkeypatch):
    # mined masks at both ends of training: a crowded batch that is mostly
    # hard, and a well separated one with a few hard entries
    rng = np.random.default_rng(37)
    n, c, d = 64, 200, 8
    w = rng.standard_normal((c, d))
    labels = rng.integers(0, c, n)
    for spread in (5.0, 0.05):
        x = w[labels] + spread * rng.standard_normal((n, d))
        cfg = npc_config(variant=variant, s=24.0, m0=0.1, m1=0.1, t=1.05, alpha=0.1)
        bundles = []
        for route in ("sparse", "dense"):
            forced_route(monkeypatch, route)
            loss, cache = head_forward(x, w, labels, cfg)
            assert cache.frozen.sparse == (route == "sparse")
            bundles.append(head_backward(loss, cache))
        for name in ("loss",) + BUNDLE_ARRAYS:
            assert np.asarray(getattr(bundles[0], name)).tobytes() == \
                np.asarray(getattr(bundles[1], name)).tobytes(), (spread, name)
