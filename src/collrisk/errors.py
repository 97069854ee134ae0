"""Exception taxonomy shared across the library.

Every error raised by library code derives from :class:`CollRiskError` so
callers (in particular the CLI) can map failures to exit codes without
string matching.
"""

from __future__ import annotations


class CollRiskError(Exception):
    """Base class for all library errors."""


class ParseError(CollRiskError):
    """A model file or input table could not be parsed."""


class DomainError(CollRiskError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class TailError(CollRiskError):
    """A discretization truncates more probability mass than allowed."""


class GridError(CollRiskError):
    """Incompatible or too-coarse lattice/time grids."""


class LoadingError(CollRiskError):
    """Safety loading has the wrong sign for the requested analysis.

    When premium income does not exceed the expected claim rate, ruin is
    certain; the certain value is carried as payload so callers can report
    it instead of failing.
    """

    def __init__(self, message: str, ruin_probability: float = 1.0):
        super().__init__(message)
        self.ruin_probability = ruin_probability


class NoRootError(CollRiskError):
    """The adjustment-coefficient equation has no root on the open branch."""


class ConvergenceError(CollRiskError):
    """An iterative solver exhausted its iteration budget."""


class RootBracketError(CollRiskError):
    """A root bracket could not be established (e.g. nearly coincident rates)."""


class BudgetError(CollRiskError):
    """A simulation plan expects more claim events than ``montecarlo.EVENT_BUDGET``."""


class InsufficientRuinsError(CollRiskError):
    """Too few ruined paths to form conditional ruin-time statistics."""


class UnderflowWarning(UserWarning):
    """Aggregate-mass seed underflowed; values are computed in scaled form."""
