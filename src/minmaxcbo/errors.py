"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's preconditions."""


class ConfigError(InputError):
    """Raised when a solver or CLI configuration is invalid."""


class NumericalError(RuntimeError):
    """Raised when a computation produces non-finite or undefined values.

    ``trial`` is the index along the leading trial axis of the trial that
    failed when the computation stepped a batch of trials, else None.
    """

    def __init__(self, message: str, trial: int | None = None):
        super().__init__(message)
        self.trial = trial
