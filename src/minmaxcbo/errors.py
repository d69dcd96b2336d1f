"""Exception types shared across the package, and the one check of a record's integer counts."""

import numbers


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class ConfigError(InputError):
    """Raised when a solver or CLI configuration is invalid."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite or undefined values."""


def check_counts(record, lows: dict[str, int], error: type[InputError]) -> None:
    """Raise ``error`` unless each field of ``record`` named in ``lows`` is an integer, not a bool, >= its low."""
    for name, low in lows.items():
        value = getattr(record, name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:  # bool is an Integral
            raise error(f"{name} must be an integer >= {low}, got {value!r}")
