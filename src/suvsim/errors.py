"""Exception hierarchy for the simulator, and the integer check that the
public calls share.

All errors raised by this package derive from :class:`SimulationError` so
callers can catch one base class at the CLI boundary.
"""
import numbers


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(SimulationError):
    """An argument violates a documented precondition."""


def check_integer(name: str, value, low: int | None = None) -> None:
    """Raise an InvalidParameterError naming ``name`` unless ``value`` is an
    integer, and at least ``low`` when that is given: bools are refused
    (Integral, but no size or index), numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise InvalidParameterError(f"{name} must be {bound}, got {value}")


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
