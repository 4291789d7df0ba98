"""Per-layer tracing installed from outside the program.

The tracer wraps solred's public layer boundaries in place: every module
attribute and class attribute that refers to a wrapped function is
replaced, so calls through ``from .x import name`` copies are seen too.
Two kinds of wrapper exist:

* span wrappers record name, start, end, parent span and item for each
  outermost call (a recursive call inside an open span of the same
  function is passed straight through);
* count-only wrappers, for hot leaves, count outermost calls keyed by
  the innermost open span, so a count can be attributed to a layer.

Spans stay in memory in flat arrays and are written out by ``dump``.
"""
from __future__ import annotations

import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute path) of every span boundary; the path is the span name.
SPANS = (
    ("solred.scenario", "load_scenario"),
    ("solred.construction", "build_s2a_from_solovay"),
    ("solred.construction", "search_step"),
    ("solred.construction", "_lex_first_ladder"),
    ("solred.construction", "check_requirement"),
    ("solred.oracle", "oracle_min_hit"),
    ("solred.witnesses", "enumerate_domain"),
    ("solred.witnesses", "check_strict_at"),
    ("solred.witnesses", "check_s2a_prefix"),
    ("solred.witnesses", "check_solovay_at"),
    ("solred.approximations", "check_kind_prefix"),
    ("solred.reals", "enclose"),
    ("solred.reals", "left_cut_member"),
    ("solred.harness", "verify_construction"),
    ("solred.harness", "verify_mirror"),
    ("solred.harness", "verify_prop1"),
    ("solred.harness", "verify_s2a_declared"),
    ("solred.harness", "verify_solovay_grid"),
    ("solred.harness", "trace_payload"),
    ("solred.harness", "Report.payload"),
    ("solred.cli", "_dump"),
)

# Spans whose non-None results are counted as hits.
HIT_SPANS = {"_lex_first_ladder", "oracle_min_hit"}

LEAVES = (
    ("solred.witnesses", "StagedPartialFunction.value_at"),
    ("solred.approximations", "Approximation.term"),
    ("solred.approximations", "AffineDyadic.term"),
    ("solred.approximations", "AlternatingDyadic.term"),
    ("solred.approximations", "Table.term"),
    ("solred.approximations", "PrependGen.term"),
    ("solred.approximations", "PrefixMaxGen.term"),
    ("solred.approximations", "ComplementGen.term"),
    ("solred.construction", "WitnessImage.term"),
    ("solred.reals", "enclose_at_tick"),
)

GENERATOR_TERMS = tuple(attr for _, attr in LEAVES
                        if attr.endswith(".term") and attr != "Approximation.term")

# Leaves whose results are exact rationals: their largest operand (the
# bit length of numerator or denominator) is kept per parent span and item.
OPERAND_LEAVES = {"Approximation.term", "StagedPartialFunction.value_at"}

NO_SPAN = "-"


class Tracer:
    """Span and count store for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child_time = array("d")
        self.stack: list[int] = []
        self.items: list[str] = []
        self.current_item = -1
        self.hits: Counter[str] = Counter()
        self.leaf_counts: Counter[tuple[str, str, int]] = Counter()
        self.leaf_bits: dict[tuple[str, str, int], int] = {}

    # -- installation -------------------------------------------------

    def begin_item(self, item_id: str) -> None:
        self.items.append(item_id)
        self.current_item = len(self.items) - 1

    def install(self) -> None:
        for module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in LEAVES:
            self._patch(module, attr, self._leaf_wrapper)

    def _patch(self, module: str, attr: str, make) -> None:
        # A boundary that no longer exists is left unwrapped: it then records
        # nothing, and the caller reports it as missing.
        try:
            owner = importlib.import_module(module)
        except ModuleNotFoundError:
            return
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(name) if owner is not None else None
        if original is None:
            return
        wrapper = make(attr, original)
        if path:
            setattr(owner, name, wrapper)
            return
        # Rebind every copy a ``from ... import`` made in another module.
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (mod_name == "solred" or mod_name.startswith("solred.")):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapper)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        count_hits = name in HIT_SPANS
        depth = [0]
        stack = self.stack
        span_name, parent_arr, item_arr = self.span_name, self.parent, self.item
        start_arr, end_arr, child_time = self.start, self.end, self.child_time
        hits = self.hits

        def span(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            idx = len(span_name)
            parent = stack[-1] if stack else -1
            span_name.append(nid)
            parent_arr.append(parent)
            item_arr.append(self.current_item)
            start_arr.append(0.0)
            end_arr.append(0.0)
            child_time.append(0.0)
            stack.append(idx)
            depth[0] = 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[0] = 0
                stack.pop()
                start_arr[idx] = t0
                end_arr[idx] = t1
                if parent >= 0:
                    child_time[parent] += t1 - t0
            if count_hits and result is not None:
                hits[name] += 1
            return result

        return span

    def _leaf_wrapper(self, name: str, fn):
        depth = [0]
        stack = self.stack
        span_name, names = self.span_name, self.names
        counts, max_bits = self.leaf_counts, self.leaf_bits
        track_bits = name in OPERAND_LEAVES

        def leaf(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            key = (name, names[span_name[stack[-1]]] if stack else NO_SPAN, self.current_item)
            counts[key] += 1
            depth[0] = 1
            try:
                value = fn(*args, **kwargs)
            finally:
                depth[0] = 0
            if track_bits:
                bits = max(value.numerator.bit_length(), value.denominator.bit_length())
                if bits > max_bits.get(key, 0):
                    max_bits[key] = bits
            return value

        return leaf

    # -- results --------------------------------------------------------

    def _item_id(self, index: int) -> str:
        return self.items[index] if index >= 0 else NO_SPAN

    def summary(self) -> dict:
        """Per-boundary totals, plus call counts by parent span and item.

        ``spans`` maps a span name to its count, inclusive and self
        seconds and hits; ``span_calls`` and ``leaf_calls`` are rows of
        [name, innermost enclosing span, item id, count], and ``leaf_bits``
        rows end in the largest operand bit length instead of a count.
        """
        spans: dict[str, dict] = {}
        by_parent: Counter[tuple[str, str, int]] = Counter()
        for idx in range(len(self.span_name)):
            name = self.names[self.span_name[idx]]
            dur = self.end[idx] - self.start[idx]
            row = spans.setdefault(name, {"count": 0, "s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["s"] += dur
            row["self_s"] += dur - self.child_time[idx]
            parent = self.parent[idx]
            by_parent[name, self.names[self.span_name[parent]] if parent >= 0 else NO_SPAN,
                      self.item[idx]] += 1
        for name, row in spans.items():
            row["hits"] = self.hits.get(name, 0)
        return {
            "spans": spans,
            "span_calls": sorted([n, p, self._item_id(i), c]
                                 for (n, p, i), c in by_parent.items()),
            "leaf_calls": sorted([n, p, self._item_id(i), c]
                                 for (n, p, i), c in self.leaf_counts.items()),
            "leaf_bits": sorted([n, p, self._item_id(i), b]
                                for (n, p, i), b in self.leaf_bits.items()),
        }

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line, oldest first."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span\tname\tparent\titem\tstart\tend\n")
            for idx in range(len(self.span_name)):
                fh.write(f"{idx}\t{self.names[self.span_name[idx]]}\t{self.parent[idx]}\t"
                         f"{self._item_id(self.item[idx])}\t"
                         f"{self.start[idx]:.9f}\t{self.end[idx]:.9f}\n")
