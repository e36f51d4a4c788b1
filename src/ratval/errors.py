"""Exception hierarchy shared by all ratval modules.  The readers of
outside JSON, which raise SchemaError, are in the schema module."""


class RatvalError(Exception):
    """Base class for all library errors."""


class PreconditionError(RatvalError):
    """A documented precondition of an operation is violated.

    The message names the violated condition in mathematical terms; the
    CLI maps these to exit code 1 with a structured error report.
    """


class UndecidedError(RatvalError):
    """A bounded search ran out before reaching a decision.

    Distinct from a proven negative answer: raising this never claims
    the property fails, only that the supplied bound was too small.
    """


class SchemaError(RatvalError):
    """A job or certificate file does not match the documented schema."""


class InternalError(RatvalError):
    """A self-check of the library failed: a fault in ratval, not in its
    input.  The CLI maps it to exit code 3 with a structured error report.
    """

