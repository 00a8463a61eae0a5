"""Exception types shared across the package.

The command line exits 2 on any of them; a missing file or an I/O
failure (``FileNotFoundError``, ``OSError``) exits 1.
"""


class LinphotError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(LinphotError, ValueError):
    """An argument or input violates the precondition of a constructor or operation."""


class ConfigError(LinphotError, ValueError):
    """Run configuration failed validation; the message names the field."""
