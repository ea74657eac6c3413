"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "MergespaceError",
    "InvalidTreeError",
    "InvalidMatrixError",
    "MalformedMapError",
    "FormatError",
    "BudgetExceededError",
]


class MergespaceError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidTreeError(MergespaceError):
    """A merge tree violates a structural invariant.

    Carries the full list of violation messages so callers can report them
    without re-running validation.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("invalid merge tree: " + "; ".join(self.violations))


class InvalidMatrixError(MergespaceError):
    """A matrix fails a precondition (symmetry, validity, shape, finiteness)."""


class MalformedMapError(MergespaceError):
    """A vertex map is structurally broken (missing images, foreign points)."""


class FormatError(MergespaceError):
    """A text artifact cannot be parsed.  Optionally carries a line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class BudgetExceededError(MergespaceError):
    """A search exceeded its state budget and was stopped before answering.

    When the search knows where it stood, `delta` is the shift under test,
    `refuted_below` the largest shift refuted so far and `feasible_at` the
    smallest shift found feasible so far (None where nothing is known), and
    the message ends with that bracket.
    """

    def __init__(self, budget, delta=None, refuted_below=None, feasible_at=None):
        self.budget = budget
        self.delta = delta
        self.refuted_below = refuted_below
        self.feasible_at = feasible_at
        message = f"search budget of {budget} states exceeded"
        if delta is not None:
            message += (
                f" at shift {delta!r} (largest refuted shift {refuted_below!r},"
                f" smallest feasible shift {feasible_at!r})"
            )
        super().__init__(message)
