"""Synthetic identity clusters on the unit sphere.

Class centers are drawn uniformly on the sphere; a configurable fraction is
then re-drawn close to a randomly chosen anchor center ("crowding") to
manufacture similar-looking identity pairs. Samples are isotropic Gaussian
perturbations of their center, renormalized, with noise scale 1/sqrt(kappa)
standing in for a von Mises-Fisher concentration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleCrowding
from .geometry import normalize_rows
from .seeds import named_rng

CROWDING_ATTEMPTS = 1000


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    n_classes: int = 200
    samples_per_class: int = 20
    input_dim: int = 32
    concentration: float = 16.0
    crowding: float = 0.0
    min_center_cosine: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.samples_per_class < 1:
            raise ValueError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not 0 < self.concentration < np.inf:
            raise ValueError(f"concentration must be positive, got {self.concentration}")
        if not 0.0 <= self.crowding <= 1.0:
            raise ValueError(f"crowding must lie in [0, 1], got {self.crowding}")
        if not -1.0 <= self.min_center_cosine <= 1.0:
            raise ValueError(
                f"min_center_cosine must lie in [-1, 1], got {self.min_center_cosine}")


def _uniform_sphere(rng, n, d):
    return normalize_rows(rng.standard_normal((n, d)))


def _crowded_draw(rng, anchor, min_cosine):
    """Rejection-sample a unit vector with cosine-to-anchor >= min_cosine."""
    d = anchor.size
    # aim the typical cosine slightly above the threshold so acceptance is quick
    target = (1.0 + min_cosine) / 2.0
    sigma = np.sqrt(max(1.0 / target**2 - 1.0, 0.0) / d) if target > 0 else 1.0
    for _ in range(CROWDING_ATTEMPTS):
        cand = anchor + sigma * rng.standard_normal(d)
        cand = cand / np.linalg.norm(cand)
        if float(cand @ anchor) >= min_cosine:
            return cand
    raise InfeasibleCrowding(
        f"cosine >= {min_cosine} not reached in {CROWDING_ATTEMPTS} attempts"
    )


def class_centers(spec: SyntheticDatasetSpec) -> np.ndarray:
    """Deterministic (n_classes, input_dim) unit centers for the spec."""
    rng = named_rng(spec.seed, "centers")
    centers = _uniform_sphere(rng, spec.n_classes, spec.input_dim)
    n_crowd = int(round(spec.crowding * spec.n_classes))
    crowd_idx = np.sort(rng.choice(spec.n_classes, size=n_crowd, replace=False))
    crowd_set = set(int(i) for i in crowd_idx)
    anchors = [i for i in range(spec.n_classes) if i not in crowd_set]
    for i in crowd_idx:
        if not anchors:
            # crowding = 1.0: the first processed center keeps its uniform
            # draw and anchors everything after it
            anchors.append(int(i))
            continue
        anchor = centers[anchors[int(rng.integers(len(anchors)))]]
        centers[i] = _crowded_draw(rng, anchor, spec.min_center_cosine)
        anchors.append(int(i))
    return centers


def sample_around_centers(centers, samples_per_class, concentration, rng):
    """Noisy unit samples around each center row; labels follow center order."""
    n_classes, d = centers.shape
    scale = 1.0 / np.sqrt(concentration)
    reps = np.repeat(centers, samples_per_class, axis=0)
    samples = normalize_rows(reps + scale * rng.standard_normal(reps.shape))
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    return samples, labels


def generate_dataset(spec: SyntheticDatasetSpec):
    """(inputs, labels) for the full synthetic training set, seed-determined."""
    centers = class_centers(spec)
    rng = named_rng(spec.seed, "samples")
    return sample_around_centers(centers, spec.samples_per_class, spec.concentration, rng)


@dataclass
class EvalSplit:
    """Held-out samples of the training identities plus distractor identities.

    Probes and gallery are index lists into ``inputs``; distractor inputs are
    one sample each from fresh identities disjoint from the training classes.
    """

    inputs: np.ndarray
    labels: np.ndarray
    probe_idx: np.ndarray
    gallery_idx: np.ndarray
    distractor_inputs: np.ndarray


def evaluation_split(spec: SyntheticDatasetSpec, samples_per_class: int,
                     n_distractors: int, seed: int) -> EvalSplit:
    """Fresh draws from the training centers plus distractor identities.

    The class centers are reproduced exactly from ``spec``; only the sample
    noise and the distractor centers use the evaluation seed.
    """
    if samples_per_class < 2:
        raise ValueError("evaluation needs >= 2 samples per class (probe + gallery)")
    centers = class_centers(spec)
    rng = named_rng(seed, "eval-samples")
    inputs, labels = sample_around_centers(centers, samples_per_class, spec.concentration, rng)
    probe_idx = np.arange(spec.n_classes) * samples_per_class
    gallery_idx = probe_idx + 1

    d_rng = named_rng(seed, "eval-distractors")
    d_centers = _uniform_sphere(d_rng, n_distractors, spec.input_dim)
    distractors, _ = sample_around_centers(d_centers, 1, spec.concentration, d_rng)
    return EvalSplit(inputs, labels, probe_idx, gallery_idx, distractors)
