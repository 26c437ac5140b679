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
    """A sign-change scan found no bracket.

    ``scan_points`` / ``scan_values`` record the scanned abscissae and the
    residual values so the caller can inspect the landscape.
    """

    def __init__(self, message: str, scan_points=None, scan_values=None):
        super().__init__(message)
        self.scan_points = scan_points
        self.scan_values = scan_values


class ConvergenceError(CirMortError):
    """An iterative method failed to converge."""
