"""Exception types shared across the package, one class per outcome a caller
handles on its own: the CLI exits 2 on ``ConfigParseError`` (a ``config
error:`` line), 4 on ``InsufficientData``, 3 on ``DivergedLoss`` and 2 on any
other ``MarginLabError``.
"""


class MarginLabError(Exception):
    """Base class for all package errors."""


class ZeroNorm(MarginLabError):
    """A vector (matrix row ``row``, when given) with (near-)zero norm cannot be normalized."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class DimensionMismatch(MarginLabError):
    """An array's shape does not fit the arrays, model or cache it meets."""


class InsufficientData(MarginLabError):
    """Too few samples, pairs or distinct values for a statistic or metric."""


class ConfigMismatch(MarginLabError):
    """A loss variant was invoked without the auxiliary inputs it needs."""


class InfeasibleCrowding(MarginLabError):
    """The requested center cosine could not be reached while crowding."""


class DivergedLoss(MarginLabError):
    """Training produced a non-finite loss. Carries the partial log."""

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


class ConfigParseError(MarginLabError):
    """A config file could not be parsed. Carries line/field context."""

    def __init__(self, message, line=None, field=None):
        super().__init__(message)
        self.line = line
        self.field = field


class AllRejected(UserWarning):
    """No operating point reaches the requested false-accept rate."""
