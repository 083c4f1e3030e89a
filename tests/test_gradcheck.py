"""The gradient checks' stacked evaluation: equal, bit for bit, to one model
+ head evaluation per perturbation, and callable under the layer tracer, as
the training loop is.

``benchmarks/tracer.py`` wraps the geometry, hardness and loss-head stage
functions and reads their first positional argument as a 2-D array (the
``cosine_matrix`` observer unpacks ``n, d = np.shape(args[0])``), so stacked
evaluation must keep every such call 2-D and positional.
"""

import functools
import sys

import numpy as np
import pytest

from marginlab import cli, geometry, hardness, losses
from marginlab.config import build_config
from marginlab.losses import Variant, central_difference, finite_difference_check
from marginlab.train import end_to_end_check, train
from oracles import (
    sequential_central_difference,
    sequential_end_to_end_check,
    sequential_finite_difference_check,
)
from testlib import draw_instance

# the benchmark's two gradcheck shapes: the CLI default and a larger one
CLI_SHAPE = None
LARGER_SHAPE = "n=16,c=64,d=16,input=16,hidden=16"


def gradcheck_instance(shape, variant, activation, seed, order="F"):
    """The instance ``marginlab gradcheck`` checks, with the class weights in
    ``order``: ``init_class_weights`` returns an F-ordered array."""
    model, class_weights, inputs, labels, config = cli.gradcheck_instance(
        variant.value, shape, seed, activation)
    return model, np.asarray(class_weights, order=order), inputs, labels, config


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("activation", ["tanh", "relu"])
@pytest.mark.parametrize("order", ["F", "C"])
def test_end_to_end_check_equals_the_sequential_oracle(variant, activation, order):
    for seed in (0, 1):
        instance = gradcheck_instance(CLI_SHAPE, variant, activation, seed, order)
        assert instance[1].flags[f"{order}_CONTIGUOUS"]
        assert end_to_end_check(*instance) == sequential_end_to_end_check(*instance)


@pytest.mark.parametrize("variant, activation, order", [
    (Variant.NORM_SOFTMAX, "tanh", "F"),
    (Variant.COSFACE, "relu", "C"),
    (Variant.ARCFACE, "tanh", "C"),
    (Variant.MV_SOFTMAX, "relu", "F"),
    (Variant.NPCFACE, "tanh", "F"),
    (Variant.NPCFACE, "relu", "C"),
])
def test_end_to_end_check_equals_the_sequential_oracle_larger_shape(variant, activation, order):
    instance = gradcheck_instance(LARGER_SHAPE, variant, activation, 0, order)
    assert end_to_end_check(*instance) == sequential_end_to_end_check(*instance)


@pytest.mark.parametrize("shape", [CLI_SHAPE, LARGER_SHAPE])
def test_corrupted_check_equals_the_sequential_oracle(shape):
    instance = gradcheck_instance(shape, Variant.ARCFACE, "tanh", 0)
    err, worst = end_to_end_check(*instance, corrupt_first_gradient=1e-3)
    assert (err, worst) == sequential_end_to_end_check(*instance, corrupt_first_gradient=1e-3)
    assert err > 1e-5
    assert worst.startswith("layer0.weight")


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("order", ["F", "C"])
def test_finite_difference_check_equals_the_sequential_oracle(variant, order):
    for seed in range(4):
        features, weights, labels, config = draw_instance(variant, seed)
        weights = np.asarray(weights, order=order)
        assert (finite_difference_check(features, weights, labels, config)
                == sequential_finite_difference_check(features, weights, labels, config)[0])


class TestScanRules:
    """central_difference keeps the sequential scan's rules across chunks."""

    BASE = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    SCALE = np.arange(1.0, 13.0).reshape(4, 3)
    EPSILON = 1e-5

    def loss_of(self, x, nan_at=None):
        if nan_at is not None and x[nan_at] > self.BASE[nan_at] + self.EPSILON / 2:
            return float("nan")
        return float(np.sum(np.sin(x) * self.SCALE))

    def scans(self, per_chunk, nan_at=None):
        analytic = np.cos(self.BASE) * self.SCALE
        analytic[1, 0] = analytic[2, 2] = 0.0       # both relative errors exactly 1
        array = self.BASE.copy()

        def losses_of(stack):
            return np.array([self.loss_of(copy, nan_at) for copy in stack.reshape(-1, 4, 3)])

        copy_entries = losses.STACK_ENTRIES // (2 * per_chunk)
        stacked = central_difference([("a", array, analytic, losses_of)], self.EPSILON,
                                     copy_entries)
        sequential = sequential_central_difference(
            lambda: self.loss_of(array, nan_at), [("a", array, analytic)], self.EPSILON)
        return stacked, sequential

    @pytest.mark.parametrize("per_chunk", [1, 2, 5, 12])
    def test_first_worst_coordinate_wins(self, per_chunk):
        stacked, sequential = self.scans(per_chunk)
        assert stacked == sequential == (1.0, "a[(1, 0)]")

    @pytest.mark.parametrize("per_chunk", [1, 2, 5, 12])
    def test_nan_after_the_worst_ends_the_scan(self, per_chunk):
        (err, worst), (seq_err, seq_worst) = self.scans(per_chunk, nan_at=(2, 1))
        assert np.isnan(err) and np.isnan(seq_err)
        assert worst == seq_worst == "a[(2, 1)]"


STAGES = [
    (geometry, "normalize_rows"), (geometry, "cosine_matrix"),
    (hardness, "compute_mask"), (hardness, "collaborative_margin"),
    (losses, "forward_logits"), (losses, "softmax_probabilities"),
    (losses, "loss_value"), (losses, "backward_logits"),
    (losses, "backward_cosines"), (losses, "backward_parameters"),
    (losses, "frozen_auxiliaries"), (losses, "loss_and_gradients"),
]


@pytest.fixture
def stage_calls(monkeypatch):
    """Wrap every stage function, in every marginlab namespace that binds it
    (as the tracer does), with a wrapper that requires a positional 2-D
    first argument; returns the call count per stage."""
    calls = {}

    def wrap(name, fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            assert args and np.ndim(args[0]) == 2, f"{name}: first argument not 2-D positional"
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "cosine_matrix":
                assert np.ndim(result) == 2
            return result
        return checked

    namespaces = [module for key, module in list(sys.modules.items())
                  if module is not None and key.startswith("marginlab")]
    for module, name in STAGES:
        original = getattr(module, name)
        calls[name] = 0
        wrapper = wrap(name, original)
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    monkeypatch.setattr(namespace, key, wrapper)
    return calls


@pytest.mark.parametrize("variant", list(Variant))
def test_checks_keep_the_tracer_contract(variant, stage_calls):
    instance = gradcheck_instance(CLI_SHAPE, variant, "tanh", 0)
    end_to_end_check(*instance)
    features, weights, labels, config = draw_instance(variant, 0)
    finite_difference_check(features, weights, labels, config)
    for name in ("normalize_rows", "cosine_matrix", "forward_logits",
                 "softmax_probabilities", "loss_value"):
        assert stage_calls[name] > 0, name
    if variant in losses.MASKED_VARIANTS:
        assert stage_calls["compute_mask"] > 0


@pytest.mark.parametrize("variant", [Variant.NPCFACE, Variant.COSFACE])
def test_training_keeps_the_tracer_contract(variant, stage_calls):
    # 40 samples in batches of 16: two full batches and a short one per epoch
    train(build_config({
        "dataset.n_classes": 8, "dataset.samples_per_class": 5, "dataset.input_dim": 6,
        "model.layer_widths": (6, 5, 4), "loss.variant": variant, "loss.s": 12.0,
        "schedule.total_epochs": 2, "schedule.milestones": (), "schedule.batch_size": 16,
    }))
    for name in ("normalize_rows", "cosine_matrix", "forward_logits", "softmax_probabilities",
                 "loss_value", "backward_logits", "backward_cosines", "backward_parameters"):
        assert stage_calls[name] > 0, name
    masked = variant in losses.MASKED_VARIANTS
    assert (stage_calls["compute_mask"] > 0) == masked
    assert (stage_calls["frozen_auxiliaries"] > 0) == masked
