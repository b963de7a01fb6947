"""Exception types shared across the package.

Argument/format problems derive from ValueError (CLI exit code 1);
numeric and conditioning failures derive from NumericError (exit code 2).
"""


class ArgumentError(ValueError):
    """Invalid argument to a library operation."""


class _LineNumberedError(ValueError):
    """A malformed input file; carries the offending line number as .line."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class KernelFormatError(_LineNumberedError):
    """Malformed grid-kernel file; carries the offending line number."""


class ConfigError(_LineNumberedError):
    """Malformed experiment config; carries the offending line number."""


class NumericError(RuntimeError):
    """Numerical failure (NaN, non-convergence, unresolvable scales)."""


class IllConditionedError(NumericError):
    """A matrix is too ill-conditioned for the requested operation.

    The offending smallest eigenvalue is attached as .eigenvalue.
    """

    def __init__(self, message, eigenvalue=None):
        if eigenvalue is not None:
            message = f"{message} (offending eigenvalue {eigenvalue:.6e})"
        super().__init__(message)
        self.eigenvalue = eigenvalue


class OverflowRefusalError(NumericError):
    """Backward solve refused: requested time would overflow exp()."""
