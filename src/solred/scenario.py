"""Scenario files: strict JSON loading for reals, approximations, witnesses.

Scenario files carry every number as an exact fraction string ("p/q" or
an integer string); decimal literals are rejected so nothing is rounded
at the boundary.  Unknown keys are rejected at every level, as is any
format-version other than "1".  Schema violations raise ScenarioError,
semantically invalid but well-formed scenarios raise InvalidScenario;
the command line maps both to exit 3.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .approximations import (
    AffineDyadic,
    AlternatingDyadic,
    Approximation,
    ComplementGen,
    DecayBound,
    Kind,
    PrefixMaxGen,
    PrependGen,
    Table,
)
from .errors import InvalidScenario, ScenarioError
from .reals import (
    AffineExponents,
    Average,
    Complement,
    DyadicSeries,
    ExactRational,
    ListExponents,
    ReferenceReal,
    Scale,
    certify_in_open_unit,
)
from .witnesses import (
    DyadicEnumeration,
    S2aWitness,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
)

FORMAT_VERSION = "1"

# Deepest nesting of JSON objects and arrays a scenario file may use.  The
# decoder and the parsers below recurse once per level, and so do the
# evaluators of nested reals and generators; the bound keeps all of them far
# inside the interpreter's recursion limit.
MAX_NESTING = 256

# Upper bounds on the integers that reach an exponent.  The code forms
# 2**k for k up to about w * max(depth, stage_budget), depth + guard +
# slope, and 64 * slope + offset (the 64-tick refinement budgets); with
# these bounds no such power of two exceeds about 2**24 bits.
MAX_EXPONENT = 2 ** 16      # dyadic series slope, offset and listed exponents
MAX_RATE = 2 ** 8           # generator and modulus decay rate w
MAX_DEPTH = 2 ** 16
MAX_GUARD = 2 ** 16
MAX_STAGE_BUDGET = 2 ** 16

_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")
# A whole JSON string (brackets inside it do not nest), or one bracket.
_NESTING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


@dataclass(frozen=True)
class Scenario:
    name: str
    alpha: ReferenceReal
    beta: ReferenceReal
    beta_approx: Approximation
    solovay_witness: SolovayWitness | None = None
    alpha_leftce_approx: Approximation | None = None
    s2a_witness: S2aWitness | None = None
    depth: int = 12
    stage_budget: int = 10000
    guard: int = 8


def parse_fraction(raw: object, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ScenarioError(f"{where}: expected a fraction string, got {raw!r}")
    if not _FRACTION_RE.match(raw):
        raise ScenarioError(f"{where}: not an exact \"p/q\" fraction string: {raw!r}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ScenarioError(f"{where}: zero denominator: {raw!r}") from None


def format_fraction(q: Fraction) -> str:
    return str(q)


def _expect_obj(raw: object, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(raw).__name__}")
    return raw


def _expect_int(raw: object, where: str, minimum: int | None = None,
                maximum: int | None = None) -> int:
    if type(raw) is not int:
        raise ScenarioError(f"{where}: expected an integer, got {raw!r}")
    if minimum is not None and raw < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {raw}")
    if maximum is not None and raw > maximum:
        raise ScenarioError(f"{where}: must be <= {maximum}, got {raw}")
    return raw


def _check_keys(obj: dict, where: str, required: tuple[str, ...],
                optional: tuple[str, ...] = ()) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {', '.join(missing)}")


def _wrap(where: str, build):
    """Run a dataclass constructor, turning its ValueError into InvalidScenario."""
    try:
        return build()
    except ValueError as exc:
        raise InvalidScenario(f"{where}: {exc}") from None


def parse_real(raw: object, where: str) -> ReferenceReal:
    obj = _expect_obj(raw, where)
    kind = obj.get("kind")
    if kind == "rational":
        _check_keys(obj, where, ("kind", "value"))
        value = parse_fraction(obj["value"], f"{where}.value")
        return _wrap(where, lambda: ExactRational(value))
    if kind == "dyadic_series":
        _check_keys(obj, where, ("kind", "exponents"))
        exp = _expect_obj(obj["exponents"], f"{where}.exponents")
        ekind = exp.get("kind")
        if ekind == "affine":
            _check_keys(exp, f"{where}.exponents", ("kind", "slope", "offset"))
            s = _expect_int(exp["slope"], f"{where}.exponents.slope", maximum=MAX_EXPONENT)
            t = _expect_int(exp["offset"], f"{where}.exponents.offset", maximum=MAX_EXPONENT)
            return _wrap(where, lambda: DyadicSeries(AffineExponents(s, t)))
        if ekind == "list":
            _check_keys(exp, f"{where}.exponents", ("kind", "values"))
            vals = exp["values"]
            if not isinstance(vals, list):
                raise ScenarioError(f"{where}.exponents.values: expected a list")
            items = tuple(_expect_int(v, f"{where}.exponents.values[{i}]",
                                      maximum=MAX_EXPONENT) for i, v in enumerate(vals))
            return _wrap(where, lambda: DyadicSeries(ListExponents(items)))
        raise ScenarioError(f"{where}.exponents.kind: unknown kind {ekind!r}")
    if kind == "scale":
        _check_keys(obj, where, ("kind", "factor", "inner"))
        factor = parse_fraction(obj["factor"], f"{where}.factor")
        inner = parse_real(obj["inner"], f"{where}.inner")
        return _wrap(where, lambda: Scale(inner, factor))
    if kind == "average":
        _check_keys(obj, where, ("kind", "left", "right"))
        left = parse_real(obj["left"], f"{where}.left")
        right = parse_real(obj["right"], f"{where}.right")
        return _wrap(where, lambda: Average(left, right))
    if kind == "complement":
        _check_keys(obj, where, ("kind", "inner"))
        inner = parse_real(obj["inner"], f"{where}.inner")
        return _wrap(where, lambda: Complement(inner))
    raise ScenarioError(f"{where}.kind: unknown reference-real kind {kind!r}")


def parse_generator(raw: object, where: str):
    obj = _expect_obj(raw, where)
    kind = obj.get("kind")
    if kind in ("affine_dyadic", "alternating_dyadic"):
        _check_keys(obj, where, ("kind", "u", "v", "w"))
        u = parse_fraction(obj["u"], f"{where}.u")
        v = parse_fraction(obj["v"], f"{where}.v")
        w = _expect_int(obj["w"], f"{where}.w", minimum=1, maximum=MAX_RATE)
        gen = AffineDyadic if kind == "affine_dyadic" else AlternatingDyadic
        return _wrap(where, lambda: gen(u, v, w))
    if kind == "table":
        _check_keys(obj, where, ("kind", "entries", "tail"))
        ent = obj["entries"]
        if not isinstance(ent, list):
            raise ScenarioError(f"{where}.entries: expected a list")
        entries = tuple(parse_fraction(e, f"{where}.entries[{i}]")
                        for i, e in enumerate(ent))
        tail = parse_fraction(obj["tail"], f"{where}.tail")
        return _wrap(where, lambda: Table(entries, tail))
    if kind == "prepend":
        _check_keys(obj, where, ("kind", "head", "inner"))
        head = parse_fraction(obj["head"], f"{where}.head")
        inner = parse_generator(obj["inner"], f"{where}.inner")
        return _wrap(where, lambda: PrependGen(head, inner))
    if kind == "prefix_max":
        _check_keys(obj, where, ("kind", "inner"))
        inner = parse_generator(obj["inner"], f"{where}.inner")
        return PrefixMaxGen(inner)
    if kind == "complement":
        _check_keys(obj, where, ("kind", "inner"))
        inner = parse_generator(obj["inner"], f"{where}.inner")
        return ComplementGen(inner)
    raise ScenarioError(f"{where}.kind: unknown generator kind {kind!r}")


_CLAIMS = {k.value: k for k in Kind}


def parse_approximation(raw: object, where: str) -> Approximation:
    obj = _expect_obj(raw, where)
    _check_keys(obj, where, ("generator",), ("claim", "limit", "modulus"))
    gen = parse_generator(obj["generator"], f"{where}.generator")
    claim_raw = obj.get("claim", "general")
    if not isinstance(claim_raw, str) or claim_raw not in _CLAIMS:
        raise ScenarioError(f"{where}.claim: unknown claim {claim_raw!r}")
    kind = _CLAIMS[claim_raw]
    limit = None
    if obj.get("limit") is not None:
        limit = parse_real(obj["limit"], f"{where}.limit")
    modulus = None
    if obj.get("modulus") is not None:
        mobj = _expect_obj(obj["modulus"], f"{where}.modulus")
        _check_keys(mobj, f"{where}.modulus", ("v", "w"))
        mv = parse_fraction(mobj["v"], f"{where}.modulus.v")
        mw = _expect_int(mobj["w"], f"{where}.modulus.w", minimum=1, maximum=MAX_RATE)
        modulus = _wrap(f"{where}.modulus", lambda: DecayBound(mv, mw))
    return Approximation(gen, kind, limit, modulus)


def parse_solovay_witness(raw: object, where: str) -> SolovayWitness:
    obj = _expect_obj(raw, where)
    _check_keys(obj, where, ("constant", "stage_schedule", "value_rule"),
                ("enumeration",))
    constant = parse_fraction(obj["constant"], f"{where}.constant")

    sch = _expect_obj(obj["stage_schedule"], f"{where}.stage_schedule")
    _check_keys(sch, f"{where}.stage_schedule", ("slope", "offset"), ("overrides",))
    slope = _expect_int(sch["slope"], f"{where}.stage_schedule.slope", minimum=0)
    offset = _expect_int(sch["offset"], f"{where}.stage_schedule.offset", minimum=0)
    sch_over = []
    for i, pair in enumerate(sch.get("overrides", [])):
        ctx = f"{where}.stage_schedule.overrides[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{ctx}: expected [index, stage] pairs")
        j = _expect_int(pair[0], f"{ctx}[0]", minimum=0)
        stage = None if pair[1] == "never" else _expect_int(pair[1], f"{ctx}[1]", minimum=0)
        sch_over.append((j, stage))
    schedule = _wrap(f"{where}.stage_schedule",
                     lambda: StageSchedule(slope, offset, tuple(sch_over)))

    vr = _expect_obj(obj["value_rule"], f"{where}.value_rule")
    _check_keys(vr, f"{where}.value_rule", ("u", "v"), ("overrides",))
    u = parse_fraction(vr["u"], f"{where}.value_rule.u")
    v = parse_fraction(vr["v"], f"{where}.value_rule.v")
    vr_over = []
    for i, pair in enumerate(vr.get("overrides", [])):
        ctx = f"{where}.value_rule.overrides[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{ctx}: expected [index, value] pairs")
        j = _expect_int(pair[0], f"{ctx}[0]", minimum=0)
        val = parse_fraction(pair[1], f"{ctx}[1]")
        vr_over.append((j, val))
    rule = _wrap(f"{where}.value_rule", lambda: ValueRule(u, v, tuple(vr_over)))

    enumeration = DyadicEnumeration()
    if obj.get("enumeration") is not None:
        en = _expect_obj(obj["enumeration"], f"{where}.enumeration")
        _check_keys(en, f"{where}.enumeration", ("prefix",))
        if not isinstance(en["prefix"], list):
            raise ScenarioError(f"{where}.enumeration.prefix: expected a list")
        pref = tuple(parse_fraction(p, f"{where}.enumeration.prefix[{i}]")
                     for i, p in enumerate(en["prefix"]))
        enumeration = _wrap(f"{where}.enumeration", lambda: DyadicEnumeration(pref))

    fn = _wrap(where, lambda: StagedPartialFunction(enumeration, schedule, rule))
    return _wrap(where, lambda: SolovayWitness(fn, constant))


def parse_s2a_witness(raw: object, where: str) -> S2aWitness:
    obj = _expect_obj(raw, where)
    _check_keys(obj, where, ("alpha_approx", "beta_approx", "constant"))
    alpha_approx = parse_approximation(obj["alpha_approx"], f"{where}.alpha_approx")
    beta_approx = parse_approximation(obj["beta_approx"], f"{where}.beta_approx")
    constant = parse_fraction(obj["constant"], f"{where}.constant")
    return _wrap(where, lambda: S2aWitness(alpha_approx, beta_approx, constant))


def parse_scenario(raw: object, default_name: str) -> Scenario:
    obj = _expect_obj(raw, "scenario")
    _check_keys(obj, "scenario",
                ("format_version", "alpha", "beta", "beta_approx"),
                ("name", "solovay_witness", "alpha_leftce_approx", "s2a_witness",
                 "depth", "stage_budget", "guard"))
    version = obj["format_version"]
    if version != FORMAT_VERSION:
        raise ScenarioError(
            f"scenario.format_version: expected {FORMAT_VERSION!r}, got {version!r}")
    name = obj.get("name", default_name)
    if not isinstance(name, str) or not name:
        raise ScenarioError("scenario.name: expected a nonempty string")

    alpha = parse_real(obj["alpha"], "scenario.alpha")
    beta = parse_real(obj["beta"], "scenario.beta")
    if not certify_in_open_unit(alpha):
        raise InvalidScenario("scenario.alpha: not certified inside (0,1)")
    if not certify_in_open_unit(beta):
        raise InvalidScenario("scenario.beta: not certified inside (0,1)")

    beta_approx = parse_approximation(obj["beta_approx"], "scenario.beta_approx")
    if beta_approx.limit is None:
        raise ScenarioError("scenario.beta_approx: a declared limit is required")
    if beta_approx.limit != beta:
        raise InvalidScenario(
            "scenario.beta_approx: declared limit must be structurally equal to beta")

    witness = None
    if obj.get("solovay_witness") is not None:
        witness = parse_solovay_witness(obj["solovay_witness"],
                                        "scenario.solovay_witness")

    leftce = None
    if obj.get("alpha_leftce_approx") is not None:
        leftce = parse_approximation(obj["alpha_leftce_approx"],
                                     "scenario.alpha_leftce_approx")
        if leftce.kind is not Kind.LEFT_CE:
            raise InvalidScenario(
                "scenario.alpha_leftce_approx: claim must be left_ce")
        if leftce.limit is None:
            raise ScenarioError(
                "scenario.alpha_leftce_approx: a declared limit is required")
        if leftce.limit != alpha:
            raise InvalidScenario(
                "scenario.alpha_leftce_approx: declared limit must equal alpha")

    s2a = None
    if obj.get("s2a_witness") is not None:
        s2a = parse_s2a_witness(obj["s2a_witness"], "scenario.s2a_witness")

    depth = _expect_int(obj.get("depth", 12), "scenario.depth", 0, MAX_DEPTH)
    stage_budget = _expect_int(obj.get("stage_budget", 10000), "scenario.stage_budget",
                               0, MAX_STAGE_BUDGET)
    guard = _expect_int(obj.get("guard", 8), "scenario.guard", 0, MAX_GUARD)

    return Scenario(name, alpha, beta, beta_approx, witness, leftce, s2a,
                    depth, stage_budget, guard)


def _check_nesting(text: str) -> None:
    """Reject text whose objects and arrays nest deeper than MAX_NESTING."""
    depth = 0
    for token in _NESTING_RE.finditer(text):
        bracket = token.group()
        if bracket in ("[", "{"):
            depth += 1
            if depth > MAX_NESTING:
                raise ScenarioError(
                    f"objects and arrays nest deeper than {MAX_NESTING} levels")
        elif bracket in ("]", "}"):
            depth -= 1


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    _check_nesting(text)
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioError(f"not valid JSON: {exc}") from None
    return parse_scenario(raw, default_name=path.stem)
