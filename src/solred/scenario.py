"""Scenario files: strict JSON loading for reals, approximations, witnesses.

Scenario files carry every number as an exact fraction string ("p/q" or
an integer string); decimal literals are rejected so nothing is rounded
at the boundary.  Unknown keys are rejected at every level, as is any
format-version other than "1".  Every rejection raises ScenarioError,
whether the file is malformed, an integer is out of bounds or a
constructor's precondition fails, and the command line maps it to exit 3.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from .approximations import (
    AffineDyadic,
    AlternatingDyadic,
    Approximation,
    ComplementGen,
    Kind,
    PrefixMaxGen,
    PrependGen,
    Table,
)
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
from .records import Record
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

# Each run parameter's default and its least and greatest value; the command
# line's overrides of them are held to the same bounds.
RUN_PARAMETERS = {"depth": (12, 0, MAX_DEPTH), "stage_budget": (10000, 0, MAX_STAGE_BUDGET),
                  "guard": (8, 0, MAX_GUARD)}

_FRACTION_RE = re.compile(r"-?[0-9]+(/[0-9]+)?")
# A whole JSON string (brackets inside it do not nest), or one bracket.
_NESTING_RE = re.compile(r'"(?:[^"\\]|\\.)*"|[][{}]')


class ScenarioError(ValueError):
    """Input that solred rejects: a malformed or out-of-bounds scenario, or
    one that fails a constructor's or a command's precondition (CLI exit 3)."""


class Scenario(Record):
    __slots__ = _fields = ("name", "alpha", "beta", "beta_approx", "solovay_witness",
                           "alpha_leftce_approx", "s2a_witness", "depth", "stage_budget", "guard")


def parse_fraction(raw: object, where: str) -> Fraction:
    if not isinstance(raw, str):
        raise ScenarioError(f"{where}: expected a fraction string, got {raw!r}")
    if not _FRACTION_RE.fullmatch(raw):
        raise ScenarioError(f"{where}: not an exact \"p/q\" fraction string: {raw!r}")
    try:
        return Fraction(raw)
    except ZeroDivisionError:
        raise ScenarioError(f"{where}: zero denominator: {raw!r}") from None
    except ValueError:  # a part longer than the interpreter converts
        raise ScenarioError(f"{where}: fraction string too long to convert "
                            f"({len(raw)} characters)") from None


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


def _check_keys(obj: dict, where: str, required: Iterable[str], optional: Iterable[str]) -> None:
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ScenarioError(f"{where}: missing key(s) {', '.join(missing)}")


def _object(raw: object, where: str, build: Callable, required: tuple, optional: tuple) -> object:
    """Check an object's keys, parse its (key, parser[, default]) fields in order, build it.

    A parser of None marks "kind", which the caller has read.  A key that is
    absent, or null where the default is None, takes the default.
    """
    obj = _expect_obj(raw, where)
    _check_keys(obj, where, [key for key, _ in required], [key for key, *_ in optional])
    # A plain loop: each comprehension is a frame of its own before Python
    # 3.12, and nested reals and generators recurse through this function.
    args = []
    for key, parse in required:
        if parse is not None:
            args.append(parse(obj[key], f"{where}.{key}"))
    for key, parse, default in optional:
        value = obj.get(key)
        absent = value is None and (default is None or key not in obj)
        args.append(default if absent else parse(value, f"{where}.{key}"))
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from None


class _Record(NamedTuple):
    """One object kind: the constructor and its fields, as ``_object`` takes them."""
    build: Callable
    required: tuple
    optional: tuple = ()

    def __call__(self, raw: object, where: str):
        return _object(raw, where, *self)


def _lookup(name: object, where: str, table: dict, noun: str):
    if not isinstance(name, str) or name not in table:  # a list or object is unhashable
        raise ScenarioError(f"{where}: unknown {noun} {name!r}")
    return table[name]


def _row(table: dict, raw: object, where: str, noun: str) -> _Record:
    return _lookup(_expect_obj(raw, where).get("kind"), f"{where}.kind", table, noun)


def parse_real(raw: object, where: str) -> ReferenceReal:
    return _object(raw, where, *_row(_REALS, raw, where, "reference-real kind"))


def parse_generator(raw: object, where: str):
    return _object(raw, where, *_row(_GENERATORS, raw, where, "generator kind"))


def _parse_exponents(raw: object, where: str):
    return _object(raw, where, *_row(_EXPONENTS, raw, where, "kind"))


def _list_of(item: Callable) -> Callable:
    """A parser of a JSON list whose elements ``item`` parses, giving a tuple."""
    def parse(raw: object, where: str) -> tuple:
        if not isinstance(raw, list):
            raise ScenarioError(f"{where}: expected a list")
        return tuple(item(x, f"{where}[{i}]") for i, x in enumerate(raw))
    return parse


def _pairs_of(name: str, second: Callable) -> Callable:
    """A parser of a list of [index, <name>] pairs, the second parsed by ``second``."""
    def pair(raw: object, where: str) -> tuple:
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError(f"{where}: expected [index, {name}] pairs")
        return _expect_int(raw[0], f"{where}[0]", minimum=0), second(raw[1], f"{where}[1]")
    return _list_of(pair)


def _parse_stage(raw: object, where: str) -> int | None:
    return None if raw == "never" else _expect_int(raw, where, minimum=0)


_KIND = ("kind", None)
_EXPONENT = partial(_expect_int, maximum=MAX_EXPONENT)
_RATE = partial(_expect_int, minimum=1, maximum=MAX_RATE)
_NONNEGATIVE = partial(_expect_int, minimum=0)
_CLAIM = partial(_lookup, table={k.value: k for k in Kind}, noun="claim")
_DYADIC_TERMS = (_KIND, ("u", parse_fraction), ("v", parse_fraction), ("w", _RATE))

_EXPONENTS = {
    "affine": _Record(AffineExponents, (_KIND, ("slope", _EXPONENT), ("offset", _EXPONENT))),
    "list": _Record(ListExponents, (_KIND, ("values", _list_of(_EXPONENT)))),
}
_REALS = {
    "rational": _Record(ExactRational, (_KIND, ("value", parse_fraction))),
    "dyadic_series": _Record(DyadicSeries, (_KIND, ("exponents", _parse_exponents))),
    "scale": _Record(lambda factor, inner: Scale(inner, factor),
                     (_KIND, ("factor", parse_fraction), ("inner", parse_real))),
    "average": _Record(Average, (_KIND, ("left", parse_real), ("right", parse_real))),
    "complement": _Record(Complement, (_KIND, ("inner", parse_real))),
}
_GENERATORS = {
    "affine_dyadic": _Record(AffineDyadic, _DYADIC_TERMS),
    "alternating_dyadic": _Record(AlternatingDyadic, _DYADIC_TERMS),
    "table": _Record(Table, (_KIND, ("entries", _list_of(parse_fraction)),
                             ("tail", parse_fraction))),
    "prepend": _Record(PrependGen, (_KIND, ("head", parse_fraction), ("inner", parse_generator))),
    "prefix_max": _Record(PrefixMaxGen, (_KIND, ("inner", parse_generator))),
    "complement": _Record(ComplementGen, (_KIND, ("inner", parse_generator))),
}


def _check_decay(v: Fraction, w: int) -> None:
    """A declared modulus |limit - term(n)| <= v * 2**(-w*n) is range-checked, then dropped."""
    if v < 0:
        raise ValueError(f"decay coefficient must be >= 0: {v}")


# An approximation parses to the pair (Approximation, its declared limit or None):
# parse_scenario compares the limit with alpha or beta, and nothing keeps it.
_MODULUS = _Record(_check_decay, (("v", parse_fraction), ("w", _RATE)))
_APPROXIMATION = _Record(lambda gen, kind, limit, _: (Approximation(gen, kind), limit),
                         (("generator", parse_generator),),
                         (("claim", _CLAIM, Kind.GENERAL), ("limit", parse_real, None),
                          ("modulus", _MODULUS, None)))
_STAGE_SCHEDULE = _Record(StageSchedule, (("slope", _NONNEGATIVE), ("offset", _NONNEGATIVE)),
                          (("overrides", _pairs_of("stage", _parse_stage), ()),))
_VALUE_RULE = _Record(ValueRule, (("u", parse_fraction), ("v", parse_fraction)),
                      (("overrides", _pairs_of("value", parse_fraction), ()),))
_ENUMERATION = _Record(DyadicEnumeration, (("prefix", _list_of(parse_fraction)),))
_SOLOVAY_WITNESS = _Record(
    lambda constant, schedule, rule, enumeration: SolovayWitness(
        StagedPartialFunction(enumeration or DyadicEnumeration(), schedule, rule), constant),
    (("constant", parse_fraction), ("stage_schedule", _STAGE_SCHEDULE),
     ("value_rule", _VALUE_RULE)),
    (("enumeration", _ENUMERATION, None),))
_S2A_WITNESS = _Record(lambda alpha, beta, c: S2aWitness(alpha[0], beta[0], c),
                       (("alpha_approx", _APPROXIMATION), ("beta_approx", _APPROXIMATION),
                        ("constant", parse_fraction)))


def _optional(obj: dict, key: str, parse: Callable):
    """A top-level object that may be absent or null."""
    return None if obj.get(key) is None else parse(obj[key], f"scenario.{key}")


def parse_scenario(raw: object, default_name: str) -> Scenario:
    obj = _expect_obj(raw, "scenario")
    _check_keys(obj, "scenario",
                ("format_version", "alpha", "beta", "beta_approx"),
                ("name", "solovay_witness", "alpha_leftce_approx", "s2a_witness",
                 *RUN_PARAMETERS))
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
        raise ScenarioError("scenario.alpha: not certified inside (0,1)")
    if not certify_in_open_unit(beta):
        raise ScenarioError("scenario.beta: not certified inside (0,1)")

    beta_approx, beta_limit = _APPROXIMATION(obj["beta_approx"], "scenario.beta_approx")
    if beta_limit is None:
        raise ScenarioError("scenario.beta_approx: a declared limit is required")
    if beta_limit != beta:
        raise ScenarioError(
            "scenario.beta_approx: declared limit must be structurally equal to beta")

    witness = _optional(obj, "solovay_witness", _SOLOVAY_WITNESS)
    leftce, alpha_limit = _optional(obj, "alpha_leftce_approx", _APPROXIMATION) or (None, None)
    if leftce is not None:
        if leftce.kind is not Kind.LEFT_CE:
            raise ScenarioError("scenario.alpha_leftce_approx: claim must be left_ce")
        if alpha_limit is None:
            raise ScenarioError("scenario.alpha_leftce_approx: a declared limit is required")
        if alpha_limit != alpha:
            raise ScenarioError("scenario.alpha_leftce_approx: declared limit must equal alpha")

    s2a = _optional(obj, "s2a_witness", _S2A_WITNESS)
    runs = [_expect_int(obj.get(key, default), f"scenario.{key}", least, most)
            for key, (default, least, most) in RUN_PARAMETERS.items()]
    return Scenario(name, alpha, beta, beta_approx, witness, leftce, s2a, *runs)


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
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"not UTF-8 text: {exc}") from None
    _check_nesting(text)
    try:
        raw = json.loads(text)
    except ValueError as exc:  # also an integer literal too long to convert
        raise ScenarioError(f"not valid JSON: {exc}") from None
    return parse_scenario(raw, default_name=path.stem)
