"""Exception types shared across the package.

Every error below signals a contract violation at a module boundary; callers
that can recover (the CLI, the training loop) catch the specific class and
map it to an exit code or a partial result.
"""


class MarginLabError(Exception):
    """Base class for all package errors."""


class ZeroNorm(MarginLabError):
    """A vector (matrix row ``row``, when given) with (near-)zero norm cannot be normalized."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DimensionMismatch(MarginLabError):
    """Feature and weight vectors live in different dimensions."""


class ConfigMismatch(MarginLabError):
    """A loss variant was invoked without the auxiliary inputs it needs."""


class InsufficientSamples(MarginLabError):
    """Fewer mis-classified samples than the statistic requires."""


class DegenerateVariance(MarginLabError):
    """A distance series is constant; correlation is undefined."""


class EmptyPartition(MarginLabError):
    """One side of the mis/well-classified split holds no samples."""


class InfeasibleCrowding(MarginLabError):
    """The requested center cosine could not be reached while crowding."""


class ShapeMismatch(MarginLabError):
    """Array shapes disagree with the model or optimizer layout."""


class StaleCache(MarginLabError):
    """A backward pass received a cache from a different forward call."""


class DivergedLoss(MarginLabError):
    """Training produced a non-finite loss. Carries the partial log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class InfeasiblePairCount(MarginLabError):
    """More verification pairs were requested than the labels allow."""


class DegenerateInput(MarginLabError):
    """A metric needs at least one positive and one negative score."""


class MissingMate(MarginLabError):
    """A probe identity has no entry in the gallery."""


class InsufficientPairs(MarginLabError):
    """Too few pairs to populate every cross-validation fold."""


class ConfigParseError(MarginLabError):
    """A config file could not be parsed. Carries line/field context."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


class AllRejected(UserWarning):
    """No operating point reaches the requested false-accept rate."""
