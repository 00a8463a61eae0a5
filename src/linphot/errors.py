"""Exception types shared across the package."""


class LinphotError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(LinphotError, ValueError):
    """An argument violates the precondition of a constructor or operation."""


class InsufficientDataError(LinphotError, ValueError):
    """Too few samples to form the requested estimate."""


class UnsupportedOrderError(LinphotError, ValueError):
    """Moment/cumulant order outside the supported range (2..5)."""


class UnsupportedOracleError(LinphotError, ValueError):
    """No closed-form oracle is available for this model family."""


class InsufficientDesignError(LinphotError, ValueError):
    """The experimental design is too small for the requested analysis."""


class SingularFitError(LinphotError, ArithmeticError):
    """Degenerate regression design (no spread in the predictor)."""


class ConfigError(LinphotError, ValueError):
    """Run configuration failed validation; the message names the field."""
