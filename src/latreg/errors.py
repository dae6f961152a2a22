"""Exception hierarchy shared by all modules.

Every error carries a short machine-readable ``name`` that the CLI prints on
stderr, and an ``exit_code`` (1 for domain errors, 2 for input parse errors).
"""


class LatregError(Exception):
    name = "error"
    exit_code = 1


class DimensionError(LatregError):
    """Operand lengths or variable counts do not match."""
    name = "dimension-error"


class InvalidArgumentError(LatregError):
    name = "invalid-argument"


class InvalidSemigroupError(LatregError):
    """Generators have gcd != 1, so the Frobenius number is undefined."""
    name = "invalid-semigroup"


class UnsupportedFieldError(LatregError):
    name = "unsupported-field"


class UnsupportedInputError(LatregError):
    name = "unsupported-input"


class NeedsLongerTableError(LatregError):
    """A Hilbert function table was truncated before stabilization."""
    name = "needs-longer-table"


class BudgetExceededError(LatregError):
    """An input would need more work than a fixed budget allows."""
    name = "budget-exceeded"


class PreconditionError(LatregError):
    name = "precondition-violation"


class ParseError(LatregError):
    name = "parse-error"
    exit_code = 2


class InternalError(LatregError):
    """An internal invariant of the engine failed: a bug, not a bad input."""
    name = "internal-error"
