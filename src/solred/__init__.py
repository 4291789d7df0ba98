"""Exact-rational construction and verification of reducibility witnesses
between computably approximable reals in the unit interval.

The package builds approximation-pair witnesses out of translation-function
witnesses with the same constant, certifies every claimed inequality through
rational interval enclosures, and cross-checks the incremental search
against an independent oracle that rebuilds each stage it probes.

Budgeted operations never diverge, and running out is never an
exception: a budget that runs out returns Unknown, None, or a
construction trace whose exhausted field names the step.
"""

__version__ = "0.1.0"
