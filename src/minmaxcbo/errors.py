"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class ConfigError(InputError):
    """Raised when a solver or CLI configuration is invalid."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite or undefined values."""
