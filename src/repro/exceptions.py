"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class.  Subclasses distinguish input
validation problems, numerical convergence failures, structural model
problems, and infeasible configuration searches.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """An input (matrix, specification, parameter) failed validation.

    Also derives from :class:`ValueError` so that generic callers that
    expect standard exceptions for bad arguments keep working.
    """


class ModelError(ReproError):
    """A model is structurally unsuitable for the requested analysis.

    Examples: asking for absorption analysis on a chain without absorbing
    states, or for a steady state of a reducible chain.
    """


class ConvergenceError(ReproError, ArithmeticError):
    """An iterative numerical method failed to converge."""

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class SaturationError(ModelError):
    """A queueing station is saturated (utilization >= 1).

    Raised only when the caller requested strict behaviour; by default the
    performance model reports infinite waiting times instead.
    """


class InfeasibleConfigurationError(ReproError):
    """No configuration within the search bounds satisfies the goals."""

    def __init__(self, message: str, best_found=None) -> None:
        super().__init__(message)
        self.best_found = best_found


class SearchCancelledError(ReproError):
    """A configuration search was cancelled before it finished.

    Raised by :class:`~repro.core.search.SearchEngine` when its
    ``stop_check`` reports true — the always-on recommendation service
    uses this to abandon a running re-search the moment a newer
    submission for the same tenant supersedes the calibration it was
    searching against.
    """
