"""Exception hierarchy for the simulator.

All errors raised by this package derive from :class:`SimulationError` so
callers can catch one base class at the CLI boundary.
"""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError):
    """An argument violates a documented precondition."""


class IntegratorInstabilityError(SimulationError):
    """The integrator produced a non-finite or degenerate state; ``row`` is
    the offending trajectory's position in the batch the check saw."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class NotApplicableError(SimulationError):
    """The requested operation is undefined for the given model kind."""


class InconclusiveError(SimulationError):
    """Too few trajectories resolved to support the requested statistic."""


class ConfigError(SimulationError):
    """Invalid or inconsistent run configuration."""
