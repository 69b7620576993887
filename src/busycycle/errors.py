"""Exception types shared across the package."""

__all__ = ["BusyCycleError", "DomainError", "ArrivalRateMismatchError",
           "UnsupportedMomentError", "ClassViolationError",
           "UnsupportedClosedFormError", "RunawayCycleError", "AccuracyError"]


class BusyCycleError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BusyCycleError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class ArrivalRateMismatchError(DomainError):
    """A service law built for one arrival rate was paired with another."""


class UnsupportedMomentError(BusyCycleError):
    """A required moment is not available for this distribution."""


class ClassViolationError(BusyCycleError):
    """A reliability-class bound was requested for a distribution not known
    to belong to that class (and the caller did not assert membership)."""


class UnsupportedClosedFormError(BusyCycleError):
    """No closed form / series is available for this distribution."""


class RunawayCycleError(BusyCycleError):
    """A simulated busy period exceeded the hard event cap."""


class AccuracyError(BusyCycleError):
    """A numerical engine could not reach the requested tolerance.

    Carries the best available estimate and the error actually achieved so
    callers can decide whether the result is still usable.
    """

    def __init__(self, message, best_estimate, error_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
