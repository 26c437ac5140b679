"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CirMortError(Exception):
    """Base class for all package errors."""


class ValidationError(CirMortError):
    """A parameter violates its documented invariant.

    ``field`` names the offending parameter so callers (and the CLI) can
    report it without parsing the message.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class DomainError(CirMortError):
    """Argument outside the mathematical domain of an operation."""


class NoBracketError(CirMortError):
    """No interior boundary: A(0) <= 1 (see closed_form).  annuity_at_zero is
    A(0) from the solver, Y at the rate floor from the shooting sweep."""

    def __init__(self, message: str, annuity_at_zero=None):
        super().__init__(message)
        self.annuity_at_zero = annuity_at_zero


class BoundaryBelowFloorError(CirMortError):
    """A(0) > 1, so a boundary exists, but it lies below model.RATE_FLOOR."""


class ConvergenceError(CirMortError):
    """An iterative method failed to converge."""
