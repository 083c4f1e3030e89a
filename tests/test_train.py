import numpy as np
import pytest

from marginlab.config import parse_config_text
from marginlab.errors import DivergedLoss
from marginlab.train import train

SMALL = """
seed = 5
dataset.n_classes = 6
dataset.samples_per_class = 8
dataset.input_dim = 8
dataset.concentration = 64
model.layer_widths = 8,6
loss.variant = {variant}
loss.s = 12
schedule.total_epochs = {epochs}
schedule.milestones = {milestones}
schedule.batch_size = 16
"""


def small_config(variant="npcface", epochs=5, milestones="4"):
    return parse_config_text(SMALL.format(variant=variant, epochs=epochs,
                                          milestones=milestones))


def test_zero_epochs_returns_initial_state():
    result = train(small_config(epochs=0, milestones=""))
    assert result.log.iterations == []
    assert result.log.epochs == []
    assert result.class_weights.shape == (6, 6)


def test_log_shapes_and_finiteness():
    result = train(small_config())
    # 48 samples / batch 16 = 3 iterations per epoch
    assert len(result.log.iterations) == 15
    assert np.isfinite(result.log.losses()).all()
    assert [d.epoch for d in result.log.epochs] == [1, 2, 3, 4, 5]
    iterations = [row[0] for row in result.log.iterations]
    assert iterations == list(range(1, 16))


def test_lr_schedule_applied():
    result = train(small_config())
    assert result.log.epochs[0].lr == 0.1
    assert abs(result.log.epochs[-1].lr - 0.01) < 1e-15


def test_deterministic_given_seed():
    a = train(small_config())
    b = train(small_config())
    assert a.log.iterations == b.log.iterations
    np.testing.assert_array_equal(a.class_weights, b.class_weights)
    for wa, wb in zip(a.model.weights, b.model.weights):
        np.testing.assert_array_equal(wa, wb)


def test_separable_two_class_task_reaches_full_accuracy():
    text = """
seed = 3
dataset.n_classes = 2
dataset.samples_per_class = 20
dataset.input_dim = 6
dataset.concentration = 200
model.layer_widths = 6,4
loss.variant = norm_softmax
loss.s = 12
schedule.total_epochs = 30
schedule.milestones = 16,24,28
schedule.batch_size = 8
"""
    result = train(parse_config_text(text))
    assert result.log.epochs[-1].train_accuracy == 1.0


@pytest.mark.parametrize("variant", ["norm_softmax", "cosface", "arcface",
                                     "mv_softmax", "npcface"])
def test_every_variant_trains_and_improves(variant):
    cfg = small_config(variant=variant, epochs=12, milestones="8,10")
    result = train(cfg)
    losses = result.log.losses()
    assert np.isfinite(losses).all()
    assert result.log.epoch_mean_loss(12) < result.log.epoch_mean_loss(1)


def test_diverged_loss_carries_partial_log():
    # normalized logits keep the loss bounded at any sane rate, so divergence
    # has to come from parameters overflowing to inf; an absurd lr does it
    text = SMALL.format(variant="npcface", epochs=8, milestones="") + \
        "schedule.lr_initial = 1e154\n"
    with pytest.raises(DivergedLoss) as err:
        with np.errstate(all="ignore"):
            train(parse_config_text(text))
    assert err.value.log is not None
    assert len(err.value.log.iterations) >= 1


def test_epoch_diagnostics_populated():
    result = train(small_config(epochs=3, milestones=""))
    for diag in result.log.epochs:
        assert 0.0 <= diag.train_accuracy <= 1.0
        assert diag.pearson_r is not None or diag.hardness_note
        assert diag.overlap_rate is not None or diag.overlap_note
