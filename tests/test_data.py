import numpy as np
import pytest

from marginlab.data import (
    SyntheticDatasetSpec,
    class_centers,
    evaluation_split,
    generate_dataset,
)
from marginlab.errors import InfeasibleCrowding


def spec(**kw):
    defaults = dict(n_classes=20, samples_per_class=5, input_dim=16,
                    concentration=32.0, crowding=0.0, min_center_cosine=0.8, seed=0)
    defaults.update(kw)
    return SyntheticDatasetSpec(**defaults)


def test_shapes_and_labels():
    inputs, labels = generate_dataset(spec())
    assert inputs.shape == (100, 16)
    assert labels.shape == (100,)
    assert set(labels.tolist()) == set(range(20))
    np.testing.assert_allclose(np.linalg.norm(inputs, axis=1), 1.0, atol=1e-12)


def test_high_concentration_hugs_centers():
    s = spec(concentration=1e9)
    inputs, labels = generate_dataset(s)
    centers = class_centers(s)
    cos = np.sum(inputs * centers[labels], axis=1)
    assert cos.min() > 0.999


def test_uniform_centers_have_near_zero_mean_cosine():
    s = spec(n_classes=200, input_dim=32, crowding=0.0)
    centers = class_centers(s)
    gram = centers @ centers.T
    off_diag = gram[~np.eye(200, dtype=bool)]
    # uniform-sphere pairwise cosines center on zero (sd ~ 1/sqrt(d) per pair)
    assert abs(off_diag.mean()) < 0.02


def test_determinism():
    a = generate_dataset(spec(seed=42))
    b = generate_dataset(spec(seed=42))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_different_seeds_differ():
    a = generate_dataset(spec(seed=1))
    b = generate_dataset(spec(seed=2))
    assert not np.array_equal(a[0], b[0])


def test_crowding_produces_close_center_pairs():
    s = spec(n_classes=50, crowding=0.6, min_center_cosine=0.85)
    centers = class_centers(s)
    gram = centers @ centers.T
    close = (gram > 0.85) & ~np.eye(50, dtype=bool)
    # every crowded center got an anchor within the cosine target
    assert close.any(axis=1).sum() >= 2 * int(round(0.6 * 50)) // 2


def test_crowding_zero_means_no_constraint():
    s = spec(n_classes=30, crowding=0.0, min_center_cosine=0.99)
    centers = class_centers(s)  # must not raise
    assert centers.shape == (30, 16)


def test_infeasible_crowding_raises():
    # a cosine of exactly 1 is a valid target, but rounding keeps every draw below it at d = 16
    with pytest.raises(InfeasibleCrowding, match="^cosine >= 1.0 not reached in 1000 attempts$"):
        class_centers(spec(crowding=0.5, min_center_cosine=1.0))


def test_full_crowding_is_valid():
    s = spec(n_classes=10, crowding=1.0, min_center_cosine=0.7)
    centers = class_centers(s)
    np.testing.assert_allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-12)


def test_eval_split_reuses_training_centers():
    s = spec(concentration=1e9)
    split = evaluation_split(s, samples_per_class=3, n_distractors=7, seed=123)
    centers = class_centers(s)
    cos = np.sum(split.inputs * centers[split.labels], axis=1)
    assert cos.min() > 0.999
    assert split.inputs.shape == (60, 16)
    assert split.distractor_inputs.shape == (7, 16)
    assert split.probe_idx.size == 20 and split.gallery_idx.size == 20
    # probes and gallery index distinct samples of the same classes
    np.testing.assert_array_equal(split.labels[split.probe_idx],
                                  split.labels[split.gallery_idx])
    assert not np.intersect1d(split.probe_idx, split.gallery_idx).size


def test_eval_split_fresh_noise():
    s = spec()
    train_inputs, _ = generate_dataset(s)
    split = evaluation_split(s, samples_per_class=5, n_distractors=0, seed=9)
    assert not np.array_equal(train_inputs, split.inputs)
