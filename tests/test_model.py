import numpy as np
import pytest

from marginlab.errors import DimensionMismatch
from marginlab.losses import LossConfig, Variant
from marginlab.model import EmbeddingNet, ModelSpec, init_class_weights
from marginlab.optim import OptimizerState, TrainingSchedule, sgd_step
from marginlab.train import end_to_end_check


def test_identity_single_layer_passes_input_through():
    net = EmbeddingNet(ModelSpec(layer_widths=(3, 3), seed=0))
    net.weights[0] = np.eye(3)
    net.biases[0] = np.zeros(3)
    x = np.arange(6, dtype=float).reshape(2, 3)
    out, _ = net.forward(x)
    np.testing.assert_array_equal(out, x)


def test_zero_weights_give_zero_embeddings():
    net = EmbeddingNet(ModelSpec(layer_widths=(4, 3), seed=0))
    net.weights[0][:] = 0.0
    out, _ = net.forward(np.ones((2, 4)))
    assert not out.any()


def test_forward_matches_scalar_loops():
    spec = ModelSpec(layer_widths=(3, 4, 2), activation="tanh", seed=5)
    net = EmbeddingNet(spec)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3))
    out, _ = net.forward(x)
    for i in range(3):
        hidden = [np.tanh(sum(x[i, a] * net.weights[0][a, b] for a in range(3))
                          + net.biases[0][b]) for b in range(4)]
        final = [sum(hidden[a] * net.weights[1][a, b] for a in range(4))
                 + net.biases[1][b] for b in range(2)]
        np.testing.assert_allclose(out[i], final, atol=1e-12)


def test_shape_mismatch_on_bad_input():
    net = EmbeddingNet(ModelSpec(layer_widths=(3, 2), seed=0))
    with pytest.raises(DimensionMismatch, match=r"^batch shape \(2, 4\), expected \(\*, 3\)$"):
        net.forward(np.ones((2, 4)))


def test_backward_zero_upstream():
    net = EmbeddingNet(ModelSpec(layer_widths=(3, 4, 2), seed=1))
    _, cache = net.forward(np.ones((5, 3)))
    grads = net.backward(cache, np.zeros((5, 2)))
    assert all(not g.any() for g in grads)


def test_backward_single_linear_closed_form():
    net = EmbeddingNet(ModelSpec(layer_widths=(3, 2), seed=2))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 3))
    d_out = rng.standard_normal((4, 2))
    _, cache = net.forward(x)
    grads = net.backward(cache, d_out)
    np.testing.assert_allclose(grads[0], x.T @ d_out, atol=1e-12)
    np.testing.assert_allclose(grads[1], d_out.sum(axis=0), atol=1e-12)


def test_stale_cache_detected():
    net = EmbeddingNet(ModelSpec(layer_widths=(3, 2), seed=0))
    _, cache = net.forward(np.ones((2, 3)))
    with pytest.raises(DimensionMismatch,
                       match=r"^d_embeddings shape \(3, 2\) vs forward output \(2, 2\)$"):
        net.backward(cache, np.zeros((3, 2)))


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_model_gradients_match_finite_differences(activation):
    spec = ModelSpec(layer_widths=(5, 4, 3), activation=activation, seed=7)
    net = EmbeddingNet(spec)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 5))
    d_out = rng.standard_normal((4, 3))
    _, cache = net.forward(x)
    grads = net.backward(cache, d_out)

    def objective():
        out, _ = net.forward(x)
        return float(np.sum(d_out * out))

    eps = 1e-6
    for p, g in zip(net.params, grads):
        for idx in np.ndindex(p.shape):
            saved = p[idx]
            p[idx] = saved + eps
            up = objective()
            p[idx] = saved - eps
            down = objective()
            p[idx] = saved
            numeric = (up - down) / (2 * eps)
            assert abs(g[idx] - numeric) < 1e-6 * max(1.0, abs(numeric))


@pytest.mark.parametrize("variant", list(Variant))
def test_end_to_end_gradient_through_loss(variant):
    spec = ModelSpec(layer_widths=(6, 5, 4), activation="tanh", seed=11)
    net = EmbeddingNet(spec)
    rng = np.random.default_rng(4)
    inputs = rng.standard_normal((4, 6))
    labels = rng.integers(0, 8, 4)
    cw = init_class_weights(8, 4, 1.0, 11)
    cfg = LossConfig(variant=variant, s=10.0, m=0.4)
    err, _ = end_to_end_check(net, cw, inputs, labels, cfg, epsilon=1e-5)
    assert err < 1e-6


def test_end_to_end_gradient_relu():
    # seed chosen away from relu kinks: finite differences straddle the
    # non-differentiable point whenever a pre-activation sits within eps of 0
    spec = ModelSpec(layer_widths=(6, 5, 4), activation="relu", seed=2)
    net = EmbeddingNet(spec)
    rng = np.random.default_rng(2)
    inputs = rng.standard_normal((4, 6))
    labels = rng.integers(0, 8, 4)
    cw = init_class_weights(8, 4, 1.0, 2)
    cfg = LossConfig(variant=Variant.NPCFACE, s=10.0)
    err, _ = end_to_end_check(net, cw, inputs, labels, cfg, epsilon=1e-5)
    assert err < 1e-6


def test_corruption_hook_detected():
    spec = ModelSpec(layer_widths=(6, 5, 4), activation="tanh", seed=11)
    net = EmbeddingNet(spec)
    rng = np.random.default_rng(4)
    inputs = rng.standard_normal((4, 6))
    labels = rng.integers(0, 8, 4)
    cw = init_class_weights(8, 4, 1.0, 11)
    cfg = LossConfig(variant=Variant.ARCFACE, s=10.0)
    err, worst = end_to_end_check(net, cw, inputs, labels, cfg,
                                  corrupt_first_gradient=1e-3)
    assert err > 1e-5
    assert worst.startswith("layer0.weight")


class TestSgdStep:
    def test_plain_gradient_descent(self):
        p = [np.array([1.0, 2.0])]
        g = [np.array([0.5, -0.5])]
        state = OptimizerState.for_params(p, lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(state, p, g)
        np.testing.assert_allclose(p[0], [0.95, 2.05], atol=1e-15)

    def test_weight_decay_shrinks_without_gradient(self):
        p = [np.array([2.0])]
        state = OptimizerState.for_params(p, lr=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step(state, p, [np.array([0.0])])
        np.testing.assert_allclose(p[0], [2.0 - 0.1 * 0.01 * 2.0], atol=1e-15)

    def test_momentum_unrolls_to_one_point_nine(self):
        p = [np.array([0.0])]
        g = [np.array([1.0])]
        state = OptimizerState.for_params(p, lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(state, p, g)
        first = -p[0][0]
        sgd_step(state, p, g)
        second = -p[0][0] - first
        assert abs(first - 0.1) < 1e-15
        assert abs(second - 0.1 * 1.9) < 1e-15

    def test_shape_mismatch(self):
        p = [np.zeros(3)]
        state = OptimizerState.for_params(p, lr=0.1)
        with pytest.raises(DimensionMismatch, match=r"^shape mismatch: \(3,\) vs \(4,\) vs \(3,\)$"):
            sgd_step(state, p, [np.zeros(4)])


class TestSchedule:
    def test_paper_milestones(self):
        sched = TrainingSchedule(total_epochs=30, lr_initial=0.1,
                                 milestones=(16, 24, 28), decay_factor=10.0)
        assert sched.lr_at(1) == 0.1
        assert sched.lr_at(15) == 0.1
        assert abs(sched.lr_at(16) - 0.01) < 1e-15
        assert abs(sched.lr_at(24) - 0.001) < 1e-16
        assert abs(sched.lr_at(30) - 0.0001) < 1e-17

    def test_lr_non_increasing(self):
        sched = TrainingSchedule(total_epochs=30)
        rates = [sched.lr_at(e) for e in range(1, 31)]
        assert all(b <= a for a, b in zip(rates, rates[1:]))

    def test_milestones_must_increase(self):
        with pytest.raises(ValueError):
            TrainingSchedule(total_epochs=30, milestones=(10, 10))

    def test_milestones_below_total(self):
        with pytest.raises(ValueError):
            TrainingSchedule(total_epochs=10, milestones=(16,))
