"""Exception types shared across the package.

The CLI maps :class:`InputFormatError` to exit code 2 and
:class:`PreconditionError` (with its subclasses) to exit code 3.
"""


class InputFormatError(ValueError):
    """Malformed input data: unparsable CSV, bad field values."""


class PreconditionError(ValueError):
    """A numeric precondition of an operation is violated."""


class GridRangeError(PreconditionError):
    """A requested interval falls outside the sampled grid."""


class NotMonotoneError(PreconditionError):
    """A sampled function required to be nondecreasing is not."""


class InsufficientJumpError(PreconditionError):
    """The tested window does not exhibit the required jump."""


class TruncationError(PreconditionError):
    """A truncation radius is too small for a certified tail bound."""


class HelsonSzegoBoundError(PreconditionError):
    """The sup-norm gate ``max|v| < pi/2`` is violated."""


class VerificationError(RuntimeError):
    """A numeric check contradicts an analytic certificate.

    Raised when a count-based guarantee holds but the corresponding
    numeric evaluation falls short; this signals an implementation or
    truncation bug, not bad input.
    """
