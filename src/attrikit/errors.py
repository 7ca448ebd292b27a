"""Exception hierarchy shared across the toolkit.

The split matters to the CLI, which maps exception classes onto stable
exit codes: SchemaError -> 2 (bad input/config, including model parameters
a model spec rejects), ModelError, ConvergenceError and MemoryError -> 3
(fit/forecast/evaluation failure, or a model too big to allocate), OSError -> 1.
"""


class AttrikitError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(AttrikitError):
    """Malformed input: missing columns, bad config keys, invalid profiles,
    bad model parameters."""


class ModelError(AttrikitError):
    """A model could not be fitted, forecast, or evaluated as requested."""


class ConvergenceError(ModelError):
    """Optimizer failed to converge; carries the last objective value."""

    def __init__(self, message: str, objective: float | None = None):
        super().__init__(message)
        self.objective = objective
