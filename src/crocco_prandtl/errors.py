"""Exception types shared across the package.

The command line layer maps these onto exit codes: configuration and
parameter problems exit with 2, numerical failures with 3; any other
exception is an internal error and exits with 4.
"""


class CroccoError(Exception):
    """Base class for package errors."""


class ConfigError(CroccoError):
    """Bad configuration: unknown keys, invalid parameters, CFL violations."""


class DataError(ConfigError):
    """Problem data or flow tables violate a structural requirement."""


class NumericalError(CroccoError):
    """Runtime numerical failure: no real wall value, non-finite values, lost positivity."""
