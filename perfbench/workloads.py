"""Workload definitions: which CLI calls make up one pass of each workload.

An item is one call of the command line: one command over one scenario
file, or, for the grid spot checks, over several files at once (each
takes milliseconds, so one call over all six keeps the per-item median
about checks that do work).  The id names command, mode and files, so
goldens and per-item timings match whatever order a seed puts the items
in.  Every item runs the bundled corpus files unchanged; the only flag
ever added is the raised ``--depth`` of ``checkers-deep``.
"""
from __future__ import annotations

from dataclasses import dataclass

CORPUS = "src/solred/corpus"

# Step depth for the certificate checkers.  The shipped depth (12) is far
# too shallow to show the quadratic enclosure and prefix-maximum costs.
CHECKER_DEPTH = "600"

VALID = ("linear_basic", "identity_c2", "staged_delay", "oscillating",
         "table_tail", "scaled_alpha")


@dataclass(frozen=True)
class Item:
    command: str
    scenarios: tuple[str, ...]
    flags: tuple[str, ...] = ()

    @property
    def id(self) -> str:
        mode = self.flags[self.flags.index("--mode") + 1] if "--mode" in self.flags else ""
        return f"{self.command}{'-' + mode if mode else ''}:{'+'.join(self.scenarios)}"

    @property
    def paths(self) -> list[str]:
        return [f"{CORPUS}/{s}.json" for s in self.scenarios]

    def argv(self, out: str) -> list[str]:
        """Arguments for ``solred.cli.main``; out is a file, or a directory
        when the item has several scenarios."""
        return [self.command, *self.paths, *self.flags, "--out", out]


def _verify(mode: str, scenarios: str | tuple[str, ...], *extra: str) -> Item:
    if isinstance(scenarios, str):
        scenarios = (scenarios,)
    return Item("verify", scenarios, ("--mode", mode, *extra))


WORKLOADS: dict[str, tuple[Item, ...]] = {
    "construct-valid": tuple(Item("construct", (s,)) for s in VALID),
    "verify-invalid": (
        _verify("construction", "invalid_small_c"),
        _verify("construction", "invalid_g_above"),
    ),
    "checkers-deep": (
        *(_verify("prop1", s, "--depth", CHECKER_DEPTH)
          for s in ("linear_basic", "identity_c2", "staged_delay", "invalid_g_above")),
        _verify("mirror", "mirror_geometric", "--depth", CHECKER_DEPTH),
        _verify("s2a-check", "mirror_geometric", "--depth", CHECKER_DEPTH),
        _verify("s2a-check", "mirror_staircase", "--depth", CHECKER_DEPTH),
        _verify("solovay-check", VALID),
    ),
}


def scenario_paths(workload: str) -> list[str]:
    """Distinct scenario files a workload reads, in first-use order."""
    return list(dict.fromkeys(p for item in WORKLOADS[workload] for p in item.paths))
