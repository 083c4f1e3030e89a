"""SGD with momentum and decoupled-from-nothing weight decay, plus the
stepped learning-rate schedule."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch


@dataclass
class OptimizerState:
    """Momentum buffers mirror the parameter list they were built for."""

    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0005
    buffers: list = field(default_factory=list)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @classmethod
    def for_params(cls, params, lr, **settings):
        """A state with zeroed buffers for ``params``; ``settings`` are the
        other fields, which keep their defaults when not given."""
        return cls(lr, **settings, buffers=[np.zeros_like(p) for p in params])


def sgd_step(state: OptimizerState, params, grads):
    """One in-place update:

        buffer <- momentum * buffer + grad + weight_decay * param
        param  <- param - lr * buffer

    Returns (params, state) for convenience; both are mutated.
    """
    if len(params) != len(grads) or len(params) != len(state.buffers):
        raise DimensionMismatch("params, grads and buffers must align")
    for p, g, buf in zip(params, grads, state.buffers):
        if p.shape != g.shape or p.shape != buf.shape:
            raise DimensionMismatch(f"shape mismatch: {p.shape} vs {g.shape} vs {buf.shape}")
        buf *= state.momentum
        buf += g
        if state.weight_decay:
            buf += state.weight_decay * p
        p -= state.lr * buf
    return params, state


@dataclass(frozen=True)
class TrainingSchedule:
    """Epochs are 1-indexed; the rate divides by decay_factor at each milestone."""

    total_epochs: int = 30
    lr_initial: float = 0.1
    milestones: tuple[int, ...] = (16, 24, 28)
    decay_factor: float = 10.0
    batch_size: int = 128

    def __post_init__(self):
        object.__setattr__(self, "milestones", tuple(int(m) for m in self.milestones))
        if self.total_epochs < 0:
            raise ValueError("total_epochs must be >= 0")
        if not 0 < self.lr_initial < np.inf:
            raise ValueError("lr_initial must be positive")
        if not 0 < self.decay_factor < np.inf:
            raise ValueError("decay_factor must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if any(b <= a for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(f"milestones must increase strictly: {self.milestones}")
        if self.milestones and self.total_epochs and self.milestones[-1] >= self.total_epochs:
            raise ValueError("milestones must lie below total_epochs")

    def lr_at(self, epoch: int) -> float:
        """Effective rate during the given 1-indexed epoch."""
        drops = sum(1 for m in self.milestones if m <= epoch)
        return self.lr_initial / self.decay_factor**drops
