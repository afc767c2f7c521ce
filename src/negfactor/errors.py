"""Exception types raised by the negfactor library."""

from __future__ import annotations


class NegfactorError(Exception):
    """Base class for all library-specific errors."""


class SchemaError(NegfactorError):
    """A data file is missing required columns or has malformed headers."""


class RowError(NegfactorError):
    """A data row holds a value that cannot be parsed or is out of range.

    Carries the 1-based line number of the offending row so callers can
    point at the exact location in the source file.
    """

    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DimensionError(NegfactorError):
    """Arrays or factor dimensions are inconsistent with each other."""


class CoverageError(NegfactorError):
    """A dataset lacks the coverage needed for the requested operation."""


class ConsistencyError(NegfactorError):
    """Two objects that must describe the same data disagree."""


class FitError(NegfactorError):
    """Optimization produced a non-finite loss and cannot continue.

    The message names the first non-finite gradient entry, or includes the
    tail of the loss trajectory (the losses at iteration 0 and at each
    convergence window's end) when the loss itself turned non-finite, so
    the blow-up point is visible without re-running.
    """


class PairingError(NegfactorError):
    """Two cross-validation reports cannot be compared fold-by-fold."""
