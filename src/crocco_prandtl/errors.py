"""Exception types shared across the package.

The command line layer maps these onto exit codes: configuration and
parameter problems exit with 2, numerical failures with 3; any other
exception is an internal error and exits with 4.
"""


class CroccoError(Exception):
    """Base class for package errors."""


class ConfigError(CroccoError):
    """An input that cannot run: unknown keys, invalid parameters, CFL
    violations, or problem data that violate a structural requirement."""


class NumericalError(CroccoError):
    """Runtime numerical failure: no real wall value, non-finite values, lost positivity."""
