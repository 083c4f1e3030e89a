"""A small embedding MLP with hand-derived reverse-mode gradients.

Affine layers with an activation between them; the final layer is linear so
embeddings cover all of R^d before normalization. Parameters are plain
float64 arrays, initialized with scaled uniform noise from a recorded seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .seeds import named_rng

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class ModelSpec:
    """layer_widths runs input -> hidden... -> embedding dimension."""

    layer_widths: tuple[int, ...]
    activation: str = "relu"
    init_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 2:
            raise ValueError("layer_widths needs at least input and embedding width")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError(f"widths must be positive, got {self.layer_widths}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not 0 < self.init_scale < np.inf:
            raise ValueError("init_scale must be positive")

    @property
    def input_dim(self) -> int:
        return self.layer_widths[0]

    @property
    def embedding_dim(self) -> int:
        return self.layer_widths[-1]


def init_matrix(rng, fan_in: int, fan_out: int, scale: float) -> np.ndarray:
    """Scaled uniform init: U(-1, 1) * scale / sqrt(fan_in)."""
    return rng.uniform(-1.0, 1.0, size=(fan_in, fan_out)) * (scale / np.sqrt(fan_in))


class EmbeddingNet:
    """Stack of (W, b) pairs; ``params`` exposes them flat for the optimizer."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        rng = named_rng(spec.seed, "model-init")
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
            self.weights.append(init_matrix(rng, fan_in, fan_out, spec.init_scale))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def params(self) -> list:
        """Alternating [W0, b0, W1, b1, ...]; mutating entries updates the net."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def set_params(self, params) -> None:
        if len(params) != 2 * self.n_layers:
            raise DimensionMismatch(f"expected {2 * self.n_layers} arrays, got {len(params)}")
        for i in range(self.n_layers):
            w, b = params[2 * i], params[2 * i + 1]
            if w.shape != self.weights[i].shape or b.shape != self.biases[i].shape:
                raise DimensionMismatch(f"layer {i} shape mismatch")
            self.weights[i] = np.asarray(w, dtype=np.float64)
            self.biases[i] = np.asarray(b, dtype=np.float64)

    def _activate(self, z):
        if self.spec.activation == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)

    def forward(self, batch):
        """(embeddings, cache); the cache holds what backward needs."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.spec.input_dim:
            raise DimensionMismatch(
                f"batch shape {x.shape}, expected (*, {self.spec.input_dim})"
            )
        activations = [x]
        for i in range(self.n_layers):
            activations.append(self._layer(i, activations[-1], self.weights[i], self.biases[i]))
        return activations[-1], {"activations": activations}

    def _layer(self, i, x, weight, bias):
        """Output of layer ``i`` with the given parameters."""
        z = x @ weight + bias
        return self._activate(z) if i < self.n_layers - 1 else z  # the last stays linear

    def forward_from(self, layer: int, x, weight, bias):
        """Embeddings of ``x``, the input of layer ``layer`` (an activation
        from ``forward``'s cache), passed through ``weight``/``bias`` in place
        of that layer's parameters and then through the layers after it.

        A stack of K weights (K, fan_in, fan_out), or of K biases
        (K, 1, fan_out), gives K stacked embedding batches (K, n, d): matmul
        broadcasts, so each slice takes the operations ``forward`` would.
        """
        a = self._layer(layer, x, weight, bias)
        for i in range(layer + 1, self.n_layers):
            a = self._layer(i, a, self.weights[i], self.biases[i])
        return a

    def backward(self, cache, d_embeddings):
        """Gradients for every parameter, ordered like ``params``."""
        activations = cache["activations"]
        if len(activations) != self.n_layers + 1:
            raise DimensionMismatch("cache does not match the model depth")
        d_embeddings = np.asarray(d_embeddings, dtype=np.float64)
        if d_embeddings.shape != activations[-1].shape:
            raise DimensionMismatch(
                f"d_embeddings shape {d_embeddings.shape} vs forward output "
                f"{activations[-1].shape}"
            )
        grads = [None] * (2 * self.n_layers)
        delta = d_embeddings
        for i in range(self.n_layers - 1, -1, -1):
            if activations[i].shape[1] != self.weights[i].shape[0]:
                raise DimensionMismatch(f"cache layer {i} width mismatch")
            grads[2 * i] = activations[i].T @ delta
            grads[2 * i + 1] = delta.sum(axis=0)
            if i > 0:
                # the derivative from the layer output: relu(z) > 0 iff z > 0, tanh' = 1 - tanh^2
                delta = delta @ self.weights[i].T
                if self.spec.activation == "relu":
                    delta = delta * (activations[i] > 0.0)
                else:
                    delta = delta * (1.0 - activations[i] ** 2)
        return grads


def init_class_weights(n_classes: int, dim: int, init_scale: float, seed: int) -> np.ndarray:
    """Classifier weight rows, same scaled uniform scheme as the net."""
    rng = named_rng(seed, "classifier-init")
    return as_class_weights(init_matrix(rng, dim, n_classes, init_scale).T)


def as_class_weights(rows) -> np.ndarray:
    """Classifier rows in the layout training keeps them in: column-major,
    the transpose of the (dim, n_classes) draw. Normalization and cosine
    products round differently on a row-major copy."""
    return np.asfortranarray(rows, dtype=np.float64)
