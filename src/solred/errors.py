"""Shared exception types.

Budgeted operations never diverge, and running out is never an
exception: a budget that runs out returns Unknown, None, or a
construction trace whose exhausted field names the step.
"""
from __future__ import annotations


class ScenarioError(ValueError):
    """A scenario file is malformed or fails validation (CLI exit 3)."""


class InvalidScenario(ValueError):
    """Inputs violate an operation's precondition (CLI exit 3)."""

