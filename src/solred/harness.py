"""Verification harness: enclosure-certified reports over scenarios.

Each verify_* function runs one mode and returns a Report whose payload
is a deterministic JSON-ready dict (exact fraction strings, fixed key
order, no timestamps) plus an aligned-text rendering for humans.  Every
recorded verdict is Holds / Fails / Unknown with the inequality and the
enclosure widths that produced it; budget exhaustion is reported, never
hidden.  A section and the verdicts it reports are recorded together, in
one Report.add call, so the summary's counts are the sections' verdicts.
Claims that no finite computation can decide (the
non-reducibility half of the mirror construction) appear as labeled
citations, never as verdicts.
"""
from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd

from .approximations import Approximation, Kind, check_kind_prefix
from .construction import (
    ConstructionTrace,
    RequirementTuple,
    StepRecord,
    WitnessImage,
    build_s2a_from_solovay,
    mirror_s2a,
)
from .errors import InvalidScenario
from .oracle import oracle_min_hit
from .reals import Complement, Interval, certify, enclose
from .scenario import Scenario, format_fraction
from .witnesses import (
    S2aStepCheck,
    check_s2a_prefix,
    check_solovay_at,
    check_strict_at,
    solovay_sides,
    solovay_verdict,
)

GRID_LEVELS = 5        # spot-check grid: the points k / 2**GRID_LEVELS, k < 2**GRID_LEVELS
GRID_BUDGET = 64       # enclosure/cut budget for grid checks
ORACLE_DEPTH = 6       # construction mode: steps cross-checked against the oracle

MIRROR_CITATION = {
    "claim": "the mirror direction does not reverse: the complement of a "
             "properly left-c.e. real is not Solovay reducible to the real itself",
    "status": "not machine-checkable",
    "reason": "the claim quantifies over all partial computable translation "
              "functions and rests on the limit not being right-c.e., which no "
              "finite prefix of an approximation can certify",
    "background": [
        "R. G. Downey and D. R. Hirschfeldt, Algorithmic Randomness and "
        "Complexity, Springer, 2010 (Solovay reducibility on c.e. reals)",
        "X. Zheng and R. Rettinger, On the extensions of Solovay-reducibility, "
        "COCOON 2004, LNCS 3106 (reducibilities for computably approximable reals)",
    ],
}


class Report:
    """One mode's run on one scenario: its sections, citations and verdict counts."""

    __slots__ = ("mode", "scenario", "parameters", "sections", "citations",
                 "holds", "fails", "unknown", "exhausted")

    def __init__(self, mode: str, scenario: str, parameters: dict) -> None:
        self.mode, self.scenario, self.parameters = mode, scenario, parameters
        self.sections, self.citations = {}, []
        self.holds = self.fails = self.unknown = 0
        self.exhausted = False

    def add(self, name: str, body: dict, verdicts: Iterable[str] = ()) -> None:
        """Record a section and tally each verdict it reports."""
        self.sections[name] = body
        for v in verdicts:
            if v == "holds":
                self.holds += 1
            elif v.startswith("fails"):  # fails, fails_lower, fails_upper
                self.fails += 1
            else:
                self.unknown += 1

    def exit_code(self) -> int:
        if self.fails:
            return 1
        if self.unknown or self.exhausted:
            return 2
        return 0

    @property
    def overall(self) -> str:
        return {0: "pass", 1: "fail", 2: "inconclusive"}[self.exit_code()]

    def payload(self) -> dict:
        return {
            "format_version": "1",
            "kind": "verification_report",
            "mode": self.mode,
            "scenario": self.scenario,
            "parameters": self.parameters,
            "sections": self.sections,
            "citations": self.citations,
            "summary": {
                "holds": self.holds,
                "fails": self.fails,
                "unknown": self.unknown,
                "exhausted": self.exhausted,
                "overall": self.overall,
            },
        }

    def to_text(self) -> str:
        lines = [
            f"mode      {self.mode}",
            f"scenario  {self.scenario}",
            "params    " + "  ".join(f"{k}={v}" for k, v in self.parameters.items()),
            "",
        ]
        for name, body in self.sections.items():
            lines.append(name)
            lines.extend(_section_lines(body))
            lines.append("")
        for cit in self.citations:
            lines.append(f"citation [{cit['status']}]")
            lines.append(f"  claim: {cit['claim']}")
            lines.append(f"  reason: {cit['reason']}")
            for ref in cit["background"]:
                lines.append(f"  see: {ref}")
            lines.append("")
        lines.append(
            f"summary   holds={self.holds} fails={self.fails} "
            f"unknown={self.unknown} exhausted={str(self.exhausted).lower()} "
            f"overall={self.overall}")
        return "\n".join(lines) + "\n"


_TABLE_SCALARS = {str, int, bool, type(None)}


def row_table(rows: list) -> tuple[list[tuple[str, int]], list[tuple]] | None:
    """The shape and columns of rows if it is a row table, else None.

    A row table is a list of two or more dicts with one nonempty sequence
    of str keys, in which each key's values have one exact type: str,
    int, bool, None, or a list of str of one length, at least 1, in every
    row.  The shape is each key with its list length, 0 for a scalar; the
    columns are one tuple of values per scalar key and per list position,
    in key order.  Both writers, Report.to_text and cli._dump, write a row
    table as one join of a per-table template.
    """
    if (len(rows) < 2 or type(rows[0]) is not dict or not rows[0]
            or set(map(type, rows)) != {dict} or len(set(map(tuple, rows))) != 1):
        return None
    shape, columns = [], []
    for key, column in zip(rows[0], zip(*map(dict.values, rows))):
        kinds = set(map(type, column))
        kind = kinds.pop()
        if kinds or type(key) is not str:
            return None
        if kind is list:
            positions = list(zip(*column))
            if (not positions or set(map(len, column)) != {len(positions)}
                    or any(set(map(type, p)) != {str} for p in positions)):
                return None
            shape.append((key, len(positions)))
            columns += positions
        elif kind in _TABLE_SCALARS:
            shape.append((key, 0))
            columns.append(column)
        else:
            return None
    return shape, columns


def _table_text(shape: list[tuple[str, int]], columns: list[tuple], indent: str) -> str:
    """A row table's lines as _section_lines writes them, in one join."""
    width, deeper = max(len(key) for key, _ in shape), "\n" + indent + "  "
    template = ""
    for key, length in shape:
        if length:
            template += "\n" + indent + key.replace("%", "%%") + ":" + (deeper + "%s") * length
        else:
            template += "\n" + indent + key.ljust(width).replace("%", "%%") + "  %s"
    return ("\n" + indent + "-\n").join(map(template[1:].__mod__, zip(*columns)))


def _section_lines(body: object, indent: str = "  ") -> list[str]:
    out: list[str] = []
    table = row_table(body) if type(body) is list else None
    if table is not None:
        out.append(_table_text(*table, indent))
    elif isinstance(body, dict):
        width = max((len(str(k)) for k in body), default=0)
        for k, v in body.items():
            if isinstance(v, (dict, list)):
                out.append(f"{indent}{k}:")
                out.extend(_section_lines(v, indent + "  "))
            else:
                out.append(f"{indent}{str(k).ljust(width)}  {v}")
    elif isinstance(body, list):
        for item in body:
            if isinstance(item, (dict, list)):
                out.extend(_section_lines(item, indent))
                out.append(indent + "-")
            else:
                out.append(f"{indent}{item}")
        if body and isinstance(body[-1], (dict, list)):
            out.pop()  # the separator after the last item
    else:
        out.append(f"{indent}{body}")
    return out


def _ratio_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0, with one gcd and no Fraction."""
    k = gcd(p, q)
    return str(p // k) if k == q else f"{p // k}/{q // k}"


def _box_text(box: Interval) -> list[str]:
    return [_ratio_text(box.lo, box.d), _ratio_text(box.hi, box.d)]


def _step_check_row(chk: S2aStepCheck) -> dict:
    return {
        "n": chk.n,
        "verdict": chk.verdict.value,
        "alpha_err": _box_text(chk.alpha_err),
        "beta_err": _box_text(chk.beta_err),
        "bound_if_beta_err_lo": _ratio_text(*chk.bound),
        "enclosure_widths": [_ratio_text(box.hi - box.lo, box.d)
                             for box in (chk.alpha_box, chk.beta_box)],
    }


def _add_step_checks(report: Report, name: str, head: dict,
                     checks: list[S2aStepCheck]) -> None:
    """Record a section of per-step checks under head, one row per check."""
    rows = [_step_check_row(chk) for chk in checks]
    report.add(name, {**head, "steps": rows}, [row["verdict"] for row in rows])


def _add_kind_claim(report: Report, name: str, a: Approximation, depth: int) -> int | None:
    """Record the check of a's kind claim through depth; return its violation."""
    violation = check_kind_prefix(a, depth)
    report.add(name, {"n_max": depth, "violation_at": violation},
               ["holds" if violation is None else "fails"])
    return violation


def _add_witness_grid(report: Report, scenario: Scenario) -> None:
    rows = []
    for q in (Fraction(k, 2 ** GRID_LEVELS) for k in range(2 ** GRID_LEVELS)):
        verdict = check_solovay_at(scenario.solovay_witness, scenario.alpha, scenario.beta,
                                   q, scenario.stage_budget, GRID_BUDGET)
        if verdict is not None:  # else q is not certified below beta
            rows.append({"q": format_fraction(q), "verdict": verdict.value})
    report.add("witness_grid", {
        "inequality": "0 < alpha - g(q) < c*(beta - q)",
        "stage": scenario.stage_budget,
        "enclosure_budget": GRID_BUDGET,
        "points": rows,
    }, [row["verdict"] for row in rows])


def _step_head(rec: StepRecord) -> dict:
    return {
        "n": rec.n,
        "i": rec.index,
        "stage_found": rec.stage_found,
        "a": format_fraction(rec.value),
        "b_i": format_fraction(rec.b_value),
    }


def ladder_payload(tup: RequirementTuple, memo: dict[int, tuple[str, str]]) -> dict:
    """A ladder as the trace and the oracle result write it: each point
    and g-value as the text of its reduced fraction.  Both texts depend
    only on the member's index j, as q_j and g(q_j), so memo holds them by
    j, and the ladders of one trace share it: each j is formatted once."""
    indices, scale = tup.indices, tup.scale
    for j, x, (p, q) in zip(indices, tup.points, tup.values):
        if j not in memo:
            memo[j] = _ratio_text(x, scale), _ratio_text(p, q)
    texts = list(map(memo.__getitem__, indices))
    return {"indices": list(indices), "points": [p for p, _ in texts],
            "values": [v for _, v in texts]}


def trace_payload(scenario: Scenario, trace: ConstructionTrace) -> dict:
    """Deterministic JSON payload for a construction trace."""
    steps = trace.steps
    memo: dict[int, tuple[str, str]] = {}  # one domain, so one text per index
    payload: dict = {
        "format_version": "1",
        "kind": "construction_trace",
        "scenario": scenario.name,
        "parameters": {"depth": scenario.depth, "stage_budget": scenario.stage_budget},
        "constant": format_fraction(scenario.solovay_witness.c),
        # i_n indexes trace.target, 0 then beta_approx, so beta_approx's index
        # is always i_n - 1; format 1 keeps the field for its readers
        "beta_index_offset": 1,
        "steps": [{**_step_head(rec),
                   "ladder": None if rec.tup is None else ladder_payload(rec.tup, memo)}
                  for rec in steps],
        "exhausted": None,
    }
    if trace.exhausted is not None:
        payload["exhausted"] = {"step": trace.exhausted[0],
                                "stage_budget": trace.exhausted[1]}
    else:
        payload["witness"] = {
            "constant": format_fraction(scenario.solovay_witness.c),
            "alpha_terms": [format_fraction(r.value) for r in steps],
            "beta_terms": [format_fraction(r.b_value) for r in steps],
        }
    return payload


def verify_construction(scenario: Scenario, *, oracle_depth: int = ORACLE_DEPTH) -> Report:
    """Full pipeline check: witness grid, build, per-step strict bounds, oracle."""
    if scenario.solovay_witness is None:
        raise InvalidScenario("construction mode needs a solovay_witness")
    depth, stage_budget, guard = scenario.depth, scenario.stage_budget, scenario.guard
    w = scenario.solovay_witness
    report = Report("construction", scenario.name,
                    {"depth": depth, "stage_budget": stage_budget, "guard": guard,
                     "oracle_depth": oracle_depth})

    _add_witness_grid(report, scenario)

    trace = build_s2a_from_solovay(w, scenario.beta_approx, depth, stage_budget)
    steps = trace.steps
    report.exhausted = trace.exhausted is not None
    stages = [rec.stage_found for rec in steps]
    report.add("construction", {
        "requested_depth": depth,
        "completed_steps": len(steps) - 1 if steps else None,
        "exhausted_at_step": None if trace.exhausted is None else trace.exhausted[0],
        "steps": [{**_step_head(rec),
                   "ladder_len": None if rec.tup is None else rec.tup.ell}
                  for rec in steps],
        "stage_stats": {"max_stage": max(stages, default=0),
                        "total_stages": sum(stages)},
    })
    _add_step_checks(report, "step_certificates", {
        "inequality": "|alpha - a_n| < c*(|beta - b_{i_n}| + 2^-n) (strict)",
        "enclosure_width": "2^-(n+guard)",
    }, [check_strict_at(scenario.alpha, scenario.beta, rec.value, rec.b_value, w.c, rec.n, guard)
        for rec in steps])
    report.add("same_constant", {
        "input": format_fraction(w.c),
        "output": format_fraction(w.c),
        "equal": True,
    })

    rows = []
    for n in range(1, min(oracle_depth, len(steps) - 1) + 1):
        rec = steps[n]
        hit = oracle_min_hit(n, steps[n - 1].index, w, trace.target, stage_budget,
                             rec.stage_found)
        agrees = hit == rec
        row = {"n": n, "agrees": agrees, "search": {"stage": rec.stage_found, "i": rec.index}}
        if hit is None:
            row["oracle"] = None
        elif not agrees:
            row["oracle"] = {"stage": hit.stage_found, "i": hit.index}
        rows.append(row)
    report.add("oracle", {"compared_steps": len(rows), "comparisons": rows},
               ["holds" if row["agrees"] else "fails" for row in rows])
    return report


def verify_mirror(scenario: Scenario) -> Report:
    """Mirror pipeline: the left-c.e. kind check plus the c = 1 pair bound."""
    if scenario.alpha_leftce_approx is None:
        raise InvalidScenario("mirror mode needs an alpha_leftce_approx")
    depth, guard = scenario.depth, scenario.guard
    a = scenario.alpha_leftce_approx
    report = Report("mirror", scenario.name, {"depth": depth, "guard": guard})
    report.citations.append(MIRROR_CITATION)

    if _add_kind_claim(report, "leftce_prefix", a, depth) is not None:
        report.add("mirror", {"skipped": "left-c.e. prefix check failed"})
        return report

    m = mirror_s2a(a)
    _add_step_checks(report, "mirror", {
        "constant": format_fraction(m.c),
        "inequality": "|(1-alpha) - (1-a_n)| <= 1*(|alpha - a_n| + 2^-n)",
    }, check_s2a_prefix(m, Complement(scenario.alpha), scenario.alpha, depth, guard))
    # 1 - a_n rises exactly where a_n falls, and leftce_prefix found no fall
    report.add("rightce_prefix", {"n_max": depth, "violation_at": None}, ["holds"])
    return report


def _prop1_rows(n: int, a_box: Interval, b_box: Interval, a_n: Fraction, b_n: Fraction,
                g_n: Fraction, c: Fraction) -> tuple[dict, dict]:
    """Term n's below_alpha and gap_bound rows, from enclosures of alpha and beta."""
    lo, hi, d = a_box
    p, q = a_n.numerator * d, a_n.denominator
    below = {"n": n, "verdict": certify(p, p, lo * q, hi * q, True).value,
             "a_n": format_fraction(a_n), "alpha_enclosure": _box_text(a_box)}
    diff, gap = solovay_sides(a_box, b_box, g_n, b_n, c)
    verdict = solovay_verdict(diff, gap).value
    return below, {"n": n, "verdict": "fails" if verdict.startswith("fails") else verdict,
                   "alpha_minus_g": _box_text(diff), "c_times_beta_gap": _box_text(gap)}


def verify_prop1(scenario: Scenario) -> Report:
    """Downward-closure check: monotone image below alpha with the gap bound."""
    if scenario.solovay_witness is None:
        raise InvalidScenario("prop1 mode needs a solovay_witness")
    if scenario.beta_approx.kind is not Kind.LEFT_CE:
        raise InvalidScenario("prop1 mode needs a left_ce beta_approx")
    depth, stage_budget, guard = scenario.depth, scenario.stage_budget, scenario.guard
    w = scenario.solovay_witness
    b = scenario.beta_approx
    report = Report("prop1", scenario.name,
                    {"depth": depth, "stage_budget": stage_budget, "guard": guard})

    _add_kind_claim(report, "beta_kind_prefix", b, depth)

    image = WitnessImage(w.g, b, stage_budget)
    terms, rows, stages = [], [], []
    exhausted_at = a_n = None  # a_n: the running maximum of g(b_n)
    for n in range(depth + 1):
        hit = image.term(n)
        if hit is None:
            exhausted_at = n
            report.exhausted = True
            break
        b_n, stage, g_n = hit
        a_n = g_n if a_n is None else max(a_n, g_n)
        stages.append(stage)
        terms.append({"n": n, "b_n": format_fraction(b_n), "g_of_b_n": format_fraction(g_n),
                      "a_n": format_fraction(a_n)})
        rows.append(_prop1_rows(n, enclose(scenario.alpha, n + guard),
                                enclose(scenario.beta, n + guard), a_n, b_n, g_n, w.c))
    report.add("image", {
        "evaluated_terms": len(terms),
        "exhausted_at_term": exhausted_at,
        "monotone_violation_at": None,  # a running maximum never decreases
        "terms": terms,
        "definition_stage_stats": {"max_stage": max(stages, default=0),
                                   "total_stages": sum(stages)},
    }, ["holds"])
    for k, name, inequality in ((0, "below_alpha", "a_n < alpha (strict)"),
                                (1, "gap_bound", "0 < alpha - g(b_n) < c*(beta - b_n)")):
        steps = [pair[k] for pair in rows]
        report.add(name, {"inequality": inequality, "steps": steps}, [r["verdict"] for r in steps])
    return report


def verify_s2a_declared(scenario: Scenario) -> Report:
    """Check a declared approximation pair against alpha and beta."""
    if scenario.s2a_witness is None:
        raise InvalidScenario("s2a-check mode needs an s2a_witness")
    depth, guard = scenario.depth, scenario.guard
    m = scenario.s2a_witness
    report = Report("s2a-check", scenario.name, {"depth": depth, "guard": guard})
    _add_step_checks(report, "s2a", {
        "constant": format_fraction(m.c),
        "inequality": "|alpha - a_n| <= c*(|beta - b_n| + 2^-n)",
    }, check_s2a_prefix(m, scenario.alpha, scenario.beta, depth, guard))
    return report


def verify_solovay_grid(scenario: Scenario) -> Report:
    """Grid-only spot check of the Solovay condition."""
    if scenario.solovay_witness is None:
        raise InvalidScenario("solovay-check mode needs a solovay_witness")
    report = Report("solovay-check", scenario.name, {"stage_budget": scenario.stage_budget})
    _add_witness_grid(report, scenario)
    return report
