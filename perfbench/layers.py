"""Per-layer metrics computed from a traced pass.

Each metric names the trace boundaries it is read from.  A boundary that
the workload's goldens say it hits, but that recorded nothing in this
pass, makes every metric that reads it ``missing`` rather than 0: it
means the tracer no longer sees that layer.  Times are the traced pass's
own seconds, not scaled to the reference host.
"""
from __future__ import annotations

from typing import Callable

from tracer import GENERATOR_TERMS

VERIFY_SPANS = ("verify_construction", "verify_mirror", "verify_prop1",
                "verify_s2a_declared", "verify_solovay_grid")
SERIALIZE_SPANS = ("trace_payload", "Report.payload", "_dump")
CONSTRUCTION_SPANS = ("build_s2a_from_solovay", "search_step")


class TraceView:
    """Read access to a tracer summary plus the pass's item rows."""

    def __init__(self, summary: dict, items: list[dict]):
        self.spans = summary["spans"]
        self.span_calls = summary["span_calls"]
        self.leaf_calls = summary["leaf_calls"]
        self.leaf_bits = summary["leaf_bits"]
        self.items = items

    def count(self, name: str) -> int:
        return self.spans.get(name, {}).get("count", 0)

    def seconds(self, name: str) -> float:
        return self.spans.get(name, {}).get("s", 0.0)

    def self_seconds(self, name: str) -> float:
        return self.spans.get(name, {}).get("self_s", 0.0)

    def hit_ratio(self, name: str) -> float:
        calls = self.count(name)
        return self.spans[name]["hits"] / calls if calls else 0.0

    @staticmethod
    def _sum(rows, name, parent=None, item=None) -> int:
        return sum(c for n, p, i, c in rows if n == name
                   and (parent is None or p == parent) and (item is None or i == item))

    def under(self, name: str, parent: str | None = None, item: str | None = None) -> int:
        """Span calls of name, optionally only those inside parent or item."""
        return self._sum(self.span_calls, name, parent, item)

    def leaf(self, name: str, parent: str | None = None, item: str | None = None) -> int:
        """Count-only calls of name, optionally only inside parent or item."""
        return self._sum(self.leaf_calls, name, parent, item)

    def construction_leaf(self, name: str, item: str | None = None) -> int:
        """Calls of a leaf inside the step construction (step 0 included)."""
        return sum(self.leaf(name, parent, item) for parent in CONSTRUCTION_SPANS)

    def operand_bits(self, item: str | None = None) -> int:
        """Largest operand the construction read: b_i terms and g-values."""
        return max((b for _, p, i, b in self.leaf_bits
                    if p in CONSTRUCTION_SPANS and (item is None or i == item)), default=0)

    def recorded(self) -> set[str]:
        return set(self.spans) | {row[0] for row in self.leaf_calls}

    def stages_scanned(self) -> int:
        return sum(row.get("stages_scanned") or 0 for row in self.items)


# Each per-layer metric: how to read it from a traced pass, and the trace
# boundaries it needs.  What it should move, and on which workload, is the
# mapping table in README.md.
METRICS: dict[str, tuple[Callable[[TraceView], float], tuple[str, ...]]] = {
    "construction.search_self_s": (lambda t: t.self_seconds("search_step"), ("search_step",)),
    "construction.points_materialized": (
        lambda t: t.construction_leaf("StagedPartialFunction.value_at"),
        ("search_step", "StagedPartialFunction.value_at")),
    "construction.stages_scanned": (lambda t: t.stages_scanned(), ("search_step",)),
    "construction.max_operand_bits": (
        lambda t: t.operand_bits(),
        ("search_step", "Approximation.term")),
    "construction.ladder_searches": (
        lambda t: t.count("_lex_first_ladder"),
        ("_lex_first_ladder",)),
    "construction.ladder_s": (lambda t: t.seconds("_lex_first_ladder"), ("_lex_first_ladder",)),
    "construction.ladder_hit_ratio": (
        lambda t: t.hit_ratio("_lex_first_ladder"),
        ("_lex_first_ladder",)),
    "construction.requirement_checks": (
        lambda t: t.under("check_requirement", "_lex_first_ladder"),
        ("_lex_first_ladder", "check_requirement")),
    "oracle.calls": (lambda t: t.count("oracle_min_hit"), ("oracle_min_hit",)),
    "oracle.s": (lambda t: t.seconds("oracle_min_hit"), ("oracle_min_hit",)),
    "oracle.hit_ratio": (lambda t: t.hit_ratio("oracle_min_hit"), ("oracle_min_hit",)),
    "oracle.domains_rebuilt": (lambda t: t.count("enumerate_domain"), ("enumerate_domain",)),
    "oracle.requirement_checks": (
        lambda t: t.under("check_requirement", "oracle_min_hit"),
        ("oracle_min_hit", "check_requirement")),
    "reals.enclose_calls": (lambda t: t.count("enclose"), ("enclose",)),
    "reals.enclose_s": (lambda t: t.seconds("enclose"), ("enclose",)),
    "reals.cut_calls": (lambda t: t.count("left_cut_member"), ("left_cut_member",)),
    "reals.cut_s": (lambda t: t.seconds("left_cut_member"), ("left_cut_member",)),
    "reals.ticks": (lambda t: t.leaf("enclose_at_tick"), ("enclose_at_tick",)),
    "approximations.kind_prefix_s": (
        lambda t: t.seconds("check_kind_prefix"),
        ("check_kind_prefix",)),
    "approximations.term_calls": (lambda t: t.leaf("Approximation.term"), ("Approximation.term",)),
    "approximations.gen_term_calls": (
        lambda t: sum(t.leaf(name) for name in GENERATOR_TERMS),
        GENERATOR_TERMS),
    "witnesses.s2a_prefix_s": (lambda t: t.seconds("check_s2a_prefix"), ("check_s2a_prefix",)),
    "witnesses.strict_cert_s": (lambda t: t.seconds("check_strict_at"), ("check_strict_at",)),
    "witnesses.grid_checks": (lambda t: t.count("check_solovay_at"), ("check_solovay_at",)),
    "witnesses.grid_s": (lambda t: t.seconds("check_solovay_at"), ("check_solovay_at",)),
    "scenario.load_calls": (lambda t: t.count("load_scenario"), ("load_scenario",)),
    "scenario.load_s": (lambda t: t.seconds("load_scenario"), ("load_scenario",)),
    "cli.serialize_s": (
        lambda t: sum(t.seconds(name) for name in SERIALIZE_SPANS),
        SERIALIZE_SPANS),
    "cli.payload_bytes": (lambda t: sum(row["payload_bytes"] for row in t.items), ("_dump",)),
    "harness.self_s": (lambda t: sum(t.self_seconds(name) for name in VERIFY_SPANS), VERIFY_SPANS),
}
