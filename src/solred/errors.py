"""Shared exception types.

Budgeted operations never diverge: when a budget runs out they either
return an explicit Unknown/None verdict or raise BudgetExhausted with
whatever partial result exists.
"""
from __future__ import annotations


class ScenarioError(ValueError):
    """A scenario file is malformed or fails validation (CLI exit 3)."""


class InvalidScenario(ValueError):
    """Inputs violate an operation's precondition (CLI exit 3)."""


class BudgetExhausted(RuntimeError):
    """A stage budget ran out before the operation could finish.

    ``partial`` carries whatever was completed (e.g. a construction
    trace covering the finished steps); for a construction,
    ``partial.exhausted`` locates the failure.
    """

    def __init__(self, message: str, *, partial=None):
        super().__init__(message)
        self.partial = partial
