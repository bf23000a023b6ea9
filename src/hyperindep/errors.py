"""Exception and warning types shared across the package."""

from __future__ import annotations


class HyperindepError(Exception):
    """Base class for all package-specific errors."""


class OutOfRangeError(HyperindepError):
    """A vertex id falls outside 0..n-1."""


class EdgeSizeError(HyperindepError):
    """An edge has fewer than 2 distinct vertices."""


class DuplicateEdgeError(HyperindepError):
    """The same vertex set was supplied twice as an edge."""


class NhgParseError(HyperindepError):
    """Malformed `.nhg` text."""


class ColoringParseError(HyperindepError):
    """Malformed coloring JSON file."""


class UnknownFixtureError(HyperindepError):
    """Requested named instance does not exist."""


class InfeasibleError(HyperindepError):
    """A generator ran out of rejection budget before reaching its target.

    Carries the densities that were achieved so callers can report them.
    """

    def __init__(self, message: str, achieved: dict | None = None):
        super().__init__(message)
        self.achieved = achieved or {}


class BudgetExceededError(HyperindepError):
    """A computation hit its node/tuple budget, or would need more memory
    than its limit allows."""


class InvariantError(HyperindepError):
    """An internal invariant failed: a bug, never bad input."""


class StepFailedError(HyperindepError):
    """A semi-random step could not meet its postconditions within its retry budget."""


class WindowUnreachableError(HyperindepError):
    """Subsample preparation could not land in the required size window.

    The best attempt is attached so callers can degrade gracefully.
    """

    def __init__(self, message: str, best_attempt=None):
        super().__init__(message)
        self.best_attempt = best_attempt


class MatchingInfeasibleError(HyperindepError):
    """A matching of the requested size does not fit in the vertex set."""


class RegimeViolationWarning(UserWarning):
    """The logarithmic sampling regime's hypothesis fails; falling back."""
