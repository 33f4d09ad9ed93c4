"""Exception types shared across the toolkit.

Operator-validation failures carry the offending residual so callers can
report how far an input is from satisfying the violated identity.
"""

__all__ = [
    "ToolkitError",
    "ValidationError",
    "NotHermitian",
    "NotIdempotent",
    "NotPositive",
    "TraceNotOne",
    "NotOrthogonal",
    "NotComplete",
    "DimensionMismatch",
    "NotSummable",
    "NotCommuting",
    "FamilyTooLarge",
    "PreconditionFailed",
    "ZeroConditioningEvent",
    "WrongHistoryLength",
    "MirrorNotVerified",
    "IdentityChainMismatch",
    "LambdaOutOfRange",
    "BadParameters",
    "ParseError",
]


class ToolkitError(Exception):
    """Base class for every toolkit-specific error."""


class ValidationError(ToolkitError):
    """An operator failed a defining identity.

    ``residual`` is the max-norm defect of the violated identity (or how far
    a projection's eigenvalue lies from both 0 and 1), when one is available.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NotHermitian(ValidationError):
    pass


class NotIdempotent(ValidationError):
    pass


class NotPositive(ValidationError):
    pass


class TraceNotOne(ValidationError):
    pass


class NotOrthogonal(ValidationError):
    """Two resolution events overlap; ``pair`` holds their 1-based indices."""

    def __init__(self, message: str, residual: float | None = None,
                 pair: tuple[int, int] | None = None):
        super().__init__(message, residual)
        self.pair = pair


class NotComplete(ValidationError):
    pass


class DimensionMismatch(ToolkitError):
    pass


class NotSummable(ToolkitError):
    pass


class NotCommuting(ToolkitError):
    pass


class FamilyTooLarge(ToolkitError):
    pass


class PreconditionFailed(ToolkitError):
    pass


class ZeroConditioningEvent(ToolkitError):
    pass


class WrongHistoryLength(ToolkitError):
    pass


class MirrorNotVerified(ToolkitError):
    pass


class IdentityChainMismatch(ToolkitError):
    pass


class LambdaOutOfRange(ToolkitError):
    pass


class BadParameters(ToolkitError):
    pass


class ParseError(ToolkitError):
    pass
