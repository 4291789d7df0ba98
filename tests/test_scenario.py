from __future__ import annotations

import copy
import json
from fractions import Fraction as Q
from pathlib import Path

import pytest

from solred import cli, scenario
from solred.approximations import Kind
from solred.errors import InvalidScenario, ScenarioError
from solred.scenario import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_GUARD,
    MAX_NESTING,
    MAX_RATE,
    MAX_STAGE_BUDGET,
    format_fraction,
    load_scenario,
    parse_fraction,
    parse_scenario,
)

from conftest import (
    ALL_NAMES,
    INVALID_WITNESS_NAMES,
    MIRROR_NAMES,
    VALID_WITNESS_NAMES,
    corpus_path,
    nested_alpha_text,
    nested_generator_text,
)


@pytest.fixture()
def base():
    return json.loads(corpus_path("linear_basic").read_text())


def parse(obj):
    return parse_scenario(obj, default_name="inline")


def test_corpus_files_all_load(scenarios):
    assert set(scenarios) == set(ALL_NAMES)
    for name in VALID_WITNESS_NAMES + INVALID_WITNESS_NAMES:
        sc = scenarios[name]
        assert sc.solovay_witness is not None
        assert sc.alpha_leftce_approx is None and sc.s2a_witness is None
    for name in MIRROR_NAMES:
        sc = scenarios[name]
        assert sc.solovay_witness is None
        assert sc.alpha_leftce_approx is not None
        assert sc.alpha_leftce_approx.kind is Kind.LEFT_CE
        assert sc.s2a_witness is not None


def test_corpus_budgets_match_their_purpose(scenarios):
    assert scenarios["linear_basic"].depth == 12
    assert scenarios["linear_basic"].stage_budget == 10000
    assert scenarios["linear_basic"].guard == 8
    assert scenarios["invalid_small_c"].depth == 4
    assert scenarios["invalid_small_c"].stage_budget == 400
    assert scenarios["invalid_g_above"].depth == 6


def test_scenario_name_defaults_to_file_stem(base):
    assert parse(base).name == base["name"]
    del base["name"]
    assert parse(base).name == "inline"
    base["name"] = ""
    with pytest.raises(ScenarioError):
        parse(base)


def test_unknown_top_level_key_rejected(base):
    base["comment"] = "drop me"
    with pytest.raises(ScenarioError, match="unknown key"):
        parse(base)


def test_format_version_must_match(base):
    base["format_version"] = "2"
    with pytest.raises(ScenarioError, match="format_version"):
        parse(base)
    del base["format_version"]
    with pytest.raises(ScenarioError, match="missing"):
        parse(base)


def test_floats_never_pass_for_fractions(base):
    base["alpha"] = {"kind": "rational", "value": 0.0625}
    with pytest.raises(ScenarioError, match="fraction string"):
        parse(base)


@pytest.mark.parametrize("bad", ["1.5", "+1/2", "0.5", "1/2/3", " 1/2", "1/0", "1/2\n",
                                 "\u0661/\u0662"])
def test_fraction_strings_are_strict(base, bad):
    base["alpha"] = {"kind": "rational", "value": bad}
    with pytest.raises(ScenarioError):
        parse(base)


def test_bool_is_not_an_integer(base):
    base["depth"] = True
    with pytest.raises(ScenarioError, match="integer"):
        parse(base)


def test_depth_and_budget_must_be_nonnegative(base):
    bad = copy.deepcopy(base)
    bad["depth"] = -1
    with pytest.raises(ScenarioError):
        parse(bad)
    bad = copy.deepcopy(base)
    bad["stage_budget"] = -5
    with pytest.raises(ScenarioError):
        parse(bad)


AFFINE_ALPHA = {"kind": "dyadic_series",
                "exponents": {"kind": "affine", "slope": 2, "offset": 2}}
LIST_ALPHA = {"kind": "dyadic_series", "exponents": {"kind": "list", "values": [2, 3]}}
ALTERNATING = {"kind": "alternating_dyadic", "u": "1/8", "v": "0", "w": 1}


@pytest.mark.parametrize("path, most, swap", [
    (("alpha", "exponents", "slope"), MAX_EXPONENT, ("alpha", AFFINE_ALPHA)),
    (("alpha", "exponents", "offset"), MAX_EXPONENT, ("alpha", AFFINE_ALPHA)),
    (("alpha", "exponents", "values", 1), MAX_EXPONENT, ("alpha", LIST_ALPHA)),
    (("beta_approx", "generator", "w"), MAX_RATE, None),
    (("beta_approx", "generator", "w"), MAX_RATE, ("beta_approx", "generator", ALTERNATING)),
    (("beta_approx", "modulus", "w"), MAX_RATE, None),
    (("depth",), MAX_DEPTH, None),
    (("guard",), MAX_GUARD, None),
    (("stage_budget",), MAX_STAGE_BUDGET, None),
])
def test_integers_that_reach_an_exponent_are_bounded(base, path, most, swap):
    if swap is not None:
        *keys, value = swap
        owner = base
        for key in keys[:-1]:
            owner = owner[key]
        owner[keys[-1]] = copy.deepcopy(value)
    for value, ok in ((most, True), (most + 1, False)):
        obj = copy.deepcopy(base)
        owner = obj
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        if ok:
            parse(obj)
        else:
            with pytest.raises(ScenarioError, match=f"must be <= {most}, got {most + 1}"):
                parse(obj)


@pytest.mark.parametrize("edge", ["0", "1", "5/4", "-1/2"])
def test_alpha_must_be_certified_inside_open_unit(base, edge):
    base["alpha"] = {"kind": "rational", "value": edge}
    with pytest.raises(InvalidScenario, match="alpha"):
        parse(base)


def test_beta_approx_requires_declared_limit(base):
    del base["beta_approx"]["limit"]
    with pytest.raises(ScenarioError, match="limit"):
        parse(base)


def test_beta_approx_limit_must_match_beta_structurally(base):
    base["beta_approx"]["limit"] = {
        "kind": "dyadic_series",
        "exponents": {"kind": "list", "values": [3]},
    }
    with pytest.raises(InvalidScenario, match="structurally equal"):
        parse(base)


def test_beta_approx_limit_compares_as_reduced_fraction(base):
    base["beta_approx"]["limit"] = {"kind": "rational", "value": "2/16"}
    assert parse(base).name == base["name"]


def test_leftce_claim_required_on_alpha_approx(base):
    block = {
        "generator": {"kind": "affine_dyadic", "u": "1/16", "v": "1/16", "w": 1},
        "claim": "general",
        "limit": {"kind": "rational", "value": "1/16"},
    }
    base["alpha_leftce_approx"] = block
    with pytest.raises(InvalidScenario, match="left_ce"):
        parse(base)
    block["claim"] = "left_ce"
    block["limit"] = {"kind": "rational", "value": "1/32"}
    with pytest.raises(InvalidScenario, match="equal alpha"):
        parse(base)


def test_witness_constant_must_be_positive(base):
    base["solovay_witness"]["constant"] = "0"
    with pytest.raises(InvalidScenario):
        parse(base)


def test_stage_schedule_rejects_negative_slope(base):
    base["solovay_witness"]["stage_schedule"]["slope"] = -1
    with pytest.raises(ScenarioError):
        parse(base)


def test_stage_override_accepts_never_and_rejects_prose(base):
    base["solovay_witness"]["stage_schedule"]["overrides"] = [[5, "never"]]
    sc = parse(base)
    assert sc.solovay_witness.g.schedule.stage_of(5) is None
    base["solovay_witness"]["stage_schedule"]["overrides"] = [[5, "later"]]
    with pytest.raises(ScenarioError):
        parse(base)


def test_value_rule_bounds_are_enforced(base):
    base["solovay_witness"]["value_rule"] = {"u": "3/4", "v": "1/2"}
    with pytest.raises(InvalidScenario):
        parse(base)


def test_enumeration_prefix_must_be_a_permutation_prefix(base):
    base["solovay_witness"]["enumeration"] = {"prefix": ["0", "1/8"]}
    with pytest.raises(InvalidScenario):
        parse(base)
    base["solovay_witness"]["enumeration"] = {"prefix": ["0", "1/4", "1/2"]}
    sc = parse(base)
    assert sc.solovay_witness.g.enumeration.dyadic(1) == (1, 2)


def test_unknown_generator_and_real_kinds(base):
    bad = copy.deepcopy(base)
    bad["beta_approx"]["generator"] = {"kind": "fibonacci"}
    with pytest.raises(ScenarioError, match="generator kind"):
        parse(bad)
    bad = copy.deepcopy(base)
    bad["beta"] = {"kind": "surreal", "value": "1/8"}
    with pytest.raises(ScenarioError, match="reference-real kind"):
        parse(bad)


@pytest.mark.parametrize("claim", ["right", {"kind": "left_ce"}, ["left_ce"], 1])
def test_unknown_claims_are_rejected(base, claim):
    """An object or a list where a claim string belongs is an error, not a crash."""
    base["beta_approx"]["claim"] = claim
    with pytest.raises(ScenarioError, match="unknown claim"):
        parse(base)


def test_modulus_keys_are_closed(base):
    base["beta_approx"]["modulus"] = {"v": "1/8", "w": 1, "speed": 9}
    with pytest.raises(ScenarioError, match="unknown key"):
        parse(base)


def test_generator_terms_outside_unit_interval_rejected(base):
    base["beta_approx"]["generator"] = {
        "kind": "table", "entries": ["0", "3/2"], "tail": "1/8"}
    with pytest.raises(InvalidScenario):
        parse(base)


def test_load_scenario_file_errors(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "absent.json")
    mangled = tmp_path / "mangled.json"
    mangled.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(mangled)


def test_nesting_bound_is_exact_and_ignores_brackets_in_strings(tmp_path):
    path = tmp_path / "deep.json"
    # Brackets inside strings never count.
    text = nested_alpha_text(MAX_NESTING).replace('"linear_basic"', '"[[[[ {{{{"', 1)
    path.write_text(text, encoding="utf-8")
    assert load_scenario(path).name == "[[[[ {{{{"
    path.write_text(nested_alpha_text(MAX_NESTING + 1), encoding="utf-8")
    with pytest.raises(ScenarioError, match=f"nest deeper than {MAX_NESTING} levels"):
        load_scenario(path)


@pytest.mark.parametrize("kind", ["prepend", "complement", "prefix_max"])
def test_generator_chains_at_the_nesting_bound_load_and_construct(tmp_path, capsys, kind):
    path = tmp_path / "deep.json"
    path.write_text(nested_generator_text(MAX_NESTING + 1, kind), encoding="utf-8")
    with pytest.raises(ScenarioError, match=f"nest deeper than {MAX_NESTING} levels"):
        load_scenario(path)
    path.write_text(nested_generator_text(MAX_NESTING, kind), encoding="utf-8")
    load_scenario(path)
    code = cli.main(["construct", str(path), "--depth", "2", "--out", str(tmp_path / "out.json")])
    assert code in (0, 2), capsys.readouterr().err


@pytest.mark.parametrize("site", ["stage_schedule", "value_rule"])
@pytest.mark.parametrize("value", [5, None, True, 1.5, {}, ""])
def test_overrides_that_are_not_a_list_are_rejected(base, site, value):
    base["solovay_witness"][site]["overrides"] = value
    with pytest.raises(ScenarioError) as info:
        parse(base)
    assert str(info.value) == f"scenario.solovay_witness.{site}.overrides: expected a list"


def test_schema_doc_names_every_kind_and_key():
    """Walk the parser's tables and records; the schema doc must name each kind and key."""
    doc = (Path(__file__).resolve().parent.parent / "docs" / "scenario-schema.md").read_text()
    tables = [t for t in vars(scenario).values() if isinstance(t, dict) and t
              and all(isinstance(row, scenario._Record) for row in t.values())]
    todo = [r for r in vars(scenario).values() if isinstance(r, scenario._Record)]
    todo += [row for table in tables for row in table.values()]
    kinds = {kind for table in tables for kind in table}
    assert {"rational", "affine", "table"} <= kinds  # the walk found all three kind tables
    keys = set()
    while todo:
        record = todo.pop()
        for key, parser, *_ in record.required + record.optional:
            keys.add(key)
            if isinstance(parser, scenario._Record):
                todo.append(parser)
    assert {"modulus", "stage_schedule", "value_rule", "enumeration", "prefix"} <= keys
    for kind in kinds:
        assert f'"kind": "{kind}"' in doc, kind
    for key in keys:
        assert f'"{key}"' in doc or f"`{key}`" in doc, key


DROP = object()
RATIONAL = {"kind": "rational", "value": "1/16"}
AFFINE = {"kind": "affine_dyadic", "u": "1/8", "v": "1/8", "w": 1}

# One row per case: (id, corpus file, dotted path, new value or DROP, exception class, message).
# A row with no exception class parses to the same Scenario as the file without that key.
MESSAGES = [
    ("rational-unknown-key", "linear_basic", "alpha",
     {"kind": "rational", "value": "1/16", "extra": 1},
     ScenarioError, "scenario.alpha: unknown key(s) extra"),
    ("rational-missing-key", "linear_basic", "alpha", {"kind": "rational"},
     ScenarioError, "scenario.alpha: missing key(s) value"),
    ("rational-wrong-type", "linear_basic", "alpha.value", 1,
     ScenarioError, "scenario.alpha.value: expected a fraction string, got 1"),
    ("rational-value-error", "linear_basic", "alpha.value", "3/2",
     InvalidScenario, "scenario.alpha: exact rational out of [0,1]: 3/2"),
    ("dyadic-series-unknown-key", "mirror_geometric", "alpha.scale", 1,
     ScenarioError, "scenario.alpha: unknown key(s) scale"),
    ("dyadic-series-missing-key", "mirror_geometric", "alpha", {"kind": "dyadic_series"},
     ScenarioError, "scenario.alpha: missing key(s) exponents"),
    ("dyadic-series-wrong-type", "mirror_geometric", "alpha.exponents", "2",
     ScenarioError, "scenario.alpha.exponents: expected an object, got str"),
    ("affine-unknown-key", "mirror_geometric", "alpha.exponents.step", 1,
     ScenarioError, "scenario.alpha.exponents: unknown key(s) step"),
    ("affine-missing-key", "mirror_geometric", "alpha.exponents.offset", DROP,
     ScenarioError, "scenario.alpha.exponents: missing key(s) offset"),
    ("affine-wrong-type", "mirror_geometric", "alpha.exponents.slope", "2",
     ScenarioError, "scenario.alpha.exponents.slope: expected an integer, got '2'"),
    ("affine-value-error", "mirror_geometric", "beta.exponents.slope", 0,
     InvalidScenario, "scenario.beta: affine exponent family needs s >= 1 and t >= 1"),
    ("list-unknown-key", "mirror_geometric", "alpha.exponents",
     {"kind": "list", "values": [1, 3], "slope": 1},
     ScenarioError, "scenario.alpha.exponents: unknown key(s) slope"),
    ("list-missing-key", "mirror_geometric", "alpha.exponents", {"kind": "list"},
     ScenarioError, "scenario.alpha.exponents: missing key(s) values"),
    ("list-wrong-type", "mirror_geometric", "alpha.exponents", {"kind": "list", "values": "1"},
     ScenarioError, "scenario.alpha.exponents.values: expected a list"),
    ("list-wrong-item-type", "mirror_geometric", "alpha.exponents",
     {"kind": "list", "values": [1, "3"]},
     ScenarioError, "scenario.alpha.exponents.values[1]: expected an integer, got '3'"),
    ("list-value-error", "mirror_geometric", "alpha.exponents", {"kind": "list", "values": [3, 1]},
     InvalidScenario, "scenario.alpha: exponent list must be strictly increasing and positive"),
    ("exponents-unknown-kind", "mirror_geometric", "alpha.exponents.kind", "geometric",
     ScenarioError, "scenario.alpha.exponents.kind: unknown kind 'geometric'"),
    ("exponents-list-kind", "mirror_geometric", "alpha.exponents.kind", ["affine"],
     ScenarioError, "scenario.alpha.exponents.kind: unknown kind ['affine']"),
    ("exponents-missing-kind", "mirror_geometric", "alpha.exponents.kind", DROP,
     ScenarioError, "scenario.alpha.exponents.kind: unknown kind None"),
    ("scale-unknown-key", "scaled_alpha", "alpha.offset", "0",
     ScenarioError, "scenario.alpha: unknown key(s) offset"),
    ("scale-missing-key", "scaled_alpha", "alpha.inner", DROP,
     ScenarioError, "scenario.alpha: missing key(s) inner"),
    ("scale-wrong-type", "scaled_alpha", "alpha.factor", 0.25,
     ScenarioError, "scenario.alpha.factor: expected a fraction string, got 0.25"),
    ("scale-value-error", "scaled_alpha", "alpha.factor", "0",
     InvalidScenario, "scenario.alpha: scale factor must be in (0,1]: 0"),
    ("average-unknown-key", "scaled_alpha", "beta.weight", "1/2",
     ScenarioError, "scenario.beta: unknown key(s) weight"),
    ("average-missing-key", "scaled_alpha", "beta.right", DROP,
     ScenarioError, "scenario.beta: missing key(s) right"),
    ("average-wrong-type", "scaled_alpha", "beta.left", [],
     ScenarioError, "scenario.beta.left: expected an object, got list"),
    ("complement-unknown-key", "linear_basic", "alpha",
     {"kind": "complement", "inner": RATIONAL, "x": 1},
     ScenarioError, "scenario.alpha: unknown key(s) x"),
    ("complement-missing-key", "linear_basic", "alpha", {"kind": "complement"},
     ScenarioError, "scenario.alpha: missing key(s) inner"),
    ("complement-wrong-type", "linear_basic", "alpha", {"kind": "complement", "inner": "15/16"},
     ScenarioError, "scenario.alpha.inner: expected an object, got str"),
    ("complement-inner-value-error", "linear_basic", "alpha",
     {"kind": "complement", "inner": {"kind": "rational", "value": "2"}},
     InvalidScenario, "scenario.alpha.inner: exact rational out of [0,1]: 2"),
    ("real-unknown-kind", "linear_basic", "beta.kind", "surreal",
     ScenarioError, "scenario.beta.kind: unknown reference-real kind 'surreal'"),
    ("real-list-kind", "linear_basic", "beta.kind", ["rational"],
     ScenarioError, "scenario.beta.kind: unknown reference-real kind ['rational']"),
    ("real-object-kind", "linear_basic", "beta.kind", {"rational": 1},
     ScenarioError, "scenario.beta.kind: unknown reference-real kind {'rational': 1}"),
    ("real-missing-kind", "linear_basic", "beta.kind", DROP,
     ScenarioError, "scenario.beta.kind: unknown reference-real kind None"),
    ("affine-dyadic-unknown-key", "linear_basic", "beta_approx.generator.x", 1,
     ScenarioError, "scenario.beta_approx.generator: unknown key(s) x"),
    ("affine-dyadic-missing-key", "linear_basic", "beta_approx.generator.w", DROP,
     ScenarioError, "scenario.beta_approx.generator: missing key(s) w"),
    ("affine-dyadic-wrong-type", "linear_basic", "beta_approx.generator.w", "1",
     ScenarioError, "scenario.beta_approx.generator.w: expected an integer, got '1'"),
    ("affine-dyadic-rate-below-one", "linear_basic", "beta_approx.generator.w", 0,
     ScenarioError, "scenario.beta_approx.generator.w: must be >= 1, got 0"),
    ("affine-dyadic-value-error", "linear_basic", "beta_approx.generator.v", "1/4",
     InvalidScenario,
     "scenario.beta_approx.generator: affine-dyadic first term out of [0,1]: -1/8"),
    ("alternating-unknown-key", "oscillating", "beta_approx.generator.x", 1,
     ScenarioError, "scenario.beta_approx.generator: unknown key(s) x"),
    ("alternating-missing-key", "oscillating", "beta_approx.generator.u", DROP,
     ScenarioError, "scenario.beta_approx.generator: missing key(s) u"),
    ("alternating-wrong-type", "oscillating", "beta_approx.generator.v", 0,
     ScenarioError, "scenario.beta_approx.generator.v: expected a fraction string, got 0"),
    ("alternating-value-error", "oscillating", "beta_approx.generator.v", "-1/8",
     InvalidScenario, "scenario.beta_approx.generator: oscillation amplitude must be >= 0"),
    ("table-unknown-key", "table_tail", "beta_approx.generator.head", "0",
     ScenarioError, "scenario.beta_approx.generator: unknown key(s) head"),
    ("table-missing-key", "table_tail", "beta_approx.generator.tail", DROP,
     ScenarioError, "scenario.beta_approx.generator: missing key(s) tail"),
    ("table-wrong-type", "table_tail", "beta_approx.generator.entries", "0",
     ScenarioError, "scenario.beta_approx.generator.entries: expected a list"),
    ("table-wrong-item-type", "table_tail", "beta_approx.generator.entries", ["0", 5],
     ScenarioError,
     "scenario.beta_approx.generator.entries[1]: expected a fraction string, got 5"),
    ("table-value-error", "table_tail", "beta_approx.generator.entries", ["0", "3/2"],
     InvalidScenario, "scenario.beta_approx.generator: table entry 1 out of [0,1]: 3/2"),
    ("prepend-unknown-key", "linear_basic", "beta_approx.generator",
     {"kind": "prepend", "head": "0", "inner": AFFINE, "tail": "0"},
     ScenarioError, "scenario.beta_approx.generator: unknown key(s) tail"),
    ("prepend-missing-key", "linear_basic", "beta_approx.generator",
     {"kind": "prepend", "inner": AFFINE},
     ScenarioError, "scenario.beta_approx.generator: missing key(s) head"),
    ("prepend-wrong-type", "linear_basic", "beta_approx.generator",
     {"kind": "prepend", "head": 0, "inner": AFFINE},
     ScenarioError, "scenario.beta_approx.generator.head: expected a fraction string, got 0"),
    ("prepend-value-error", "linear_basic", "beta_approx.generator",
     {"kind": "prepend", "head": "2", "inner": AFFINE},
     InvalidScenario, "scenario.beta_approx.generator: prepended head out of [0,1]: 2"),
    ("prepend-inner-value-error", "linear_basic", "beta_approx.generator",
     {"kind": "prepend", "head": "0", "inner": {**AFFINE, "u": "2"}},
     InvalidScenario, "scenario.beta_approx.generator.inner: affine-dyadic u out of [0,1]: 2"),
    ("prefix-max-unknown-key", "mirror_staircase", "s2a_witness.alpha_approx.generator.head", "0",
     ScenarioError, "scenario.s2a_witness.alpha_approx.generator: unknown key(s) head"),
    ("prefix-max-missing-key", "mirror_staircase", "s2a_witness.alpha_approx.generator.inner",
     DROP, ScenarioError, "scenario.s2a_witness.alpha_approx.generator: missing key(s) inner"),
    ("prefix-max-wrong-type", "mirror_staircase", "s2a_witness.alpha_approx.generator.inner", [],
     ScenarioError,
     "scenario.s2a_witness.alpha_approx.generator.inner: expected an object, got list"),
    ("complement-gen-unknown-key", "linear_basic", "beta_approx.generator",
     {"kind": "complement", "inner": AFFINE, "x": 1},
     ScenarioError, "scenario.beta_approx.generator: unknown key(s) x"),
    ("complement-gen-missing-key", "linear_basic", "beta_approx.generator", {"kind": "complement"},
     ScenarioError, "scenario.beta_approx.generator: missing key(s) inner"),
    ("complement-gen-wrong-type", "linear_basic", "beta_approx.generator",
     {"kind": "complement", "inner": "1/8"},
     ScenarioError, "scenario.beta_approx.generator.inner: expected an object, got str"),
    ("complement-gen-inner-value-error", "linear_basic", "beta_approx.generator",
     {"kind": "complement", "inner": {"kind": "table", "entries": ["0", "1/16"], "tail": "9/8"}},
     InvalidScenario, "scenario.beta_approx.generator.inner: table tail out of [0,1]: 9/8"),
    ("generator-unknown-kind", "linear_basic", "beta_approx.generator.kind", "fibonacci",
     ScenarioError, "scenario.beta_approx.generator.kind: unknown generator kind 'fibonacci'"),
    ("generator-list-kind", "linear_basic", "beta_approx.generator.kind", ["table"],
     ScenarioError, "scenario.beta_approx.generator.kind: unknown generator kind ['table']"),
    ("generator-missing-kind", "linear_basic", "beta_approx.generator.kind", DROP,
     ScenarioError, "scenario.beta_approx.generator.kind: unknown generator kind None"),
    ("approximation-unknown-key", "linear_basic", "beta_approx.speed", 1,
     ScenarioError, "scenario.beta_approx: unknown key(s) speed"),
    ("approximation-missing-key", "linear_basic", "beta_approx.generator", DROP,
     ScenarioError, "scenario.beta_approx: missing key(s) generator"),
    ("approximation-wrong-type", "linear_basic", "beta_approx", "left_ce",
     ScenarioError, "scenario.beta_approx: expected an object, got str"),
    ("approximation-claim-wrong-type", "linear_basic", "beta_approx.claim", 1,
     ScenarioError, "scenario.beta_approx.claim: unknown claim 1"),
    ("approximation-limit-wrong-type", "linear_basic", "beta_approx.limit", 5,
     ScenarioError, "scenario.beta_approx.limit: expected an object, got int"),
    ("approximation-null-claim", "linear_basic", "beta_approx.claim", None,
     ScenarioError, "scenario.beta_approx.claim: unknown claim None"),
    ("approximation-null-limit", "linear_basic", "beta_approx.limit", None,
     ScenarioError, "scenario.beta_approx: a declared limit is required"),
    ("approximation-null-modulus", "linear_basic", "beta_approx.modulus", None, None, None),
    ("modulus-unknown-key", "linear_basic", "beta_approx.modulus.speed", 9,
     ScenarioError, "scenario.beta_approx.modulus: unknown key(s) speed"),
    ("modulus-missing-key", "linear_basic", "beta_approx.modulus.v", DROP,
     ScenarioError, "scenario.beta_approx.modulus: missing key(s) v"),
    ("modulus-wrong-type", "linear_basic", "beta_approx.modulus", ["1/8", 1],
     ScenarioError, "scenario.beta_approx.modulus: expected an object, got list"),
    ("modulus-rate-wrong-type", "linear_basic", "beta_approx.modulus.w", True,
     ScenarioError, "scenario.beta_approx.modulus.w: expected an integer, got True"),
    ("modulus-value-error", "linear_basic", "beta_approx.modulus.v", "-1/8",
     InvalidScenario, "scenario.beta_approx.modulus: decay coefficient must be >= 0: -1/8"),
    ("modulus-rate-below-one", "linear_basic", "beta_approx.modulus.w", 0,
     ScenarioError, "scenario.beta_approx.modulus.w: must be >= 1, got 0"),
    ("leftce-approximation-wrong-type", "mirror_geometric", "alpha_leftce_approx.generator", 3,
     ScenarioError, "scenario.alpha_leftce_approx.generator: expected an object, got int"),
    ("leftce-missing-limit", "mirror_geometric", "alpha_leftce_approx.limit", DROP,
     ScenarioError, "scenario.alpha_leftce_approx: a declared limit is required"),
    ("leftce-null-limit", "mirror_geometric", "alpha_leftce_approx.limit", None,
     ScenarioError, "scenario.alpha_leftce_approx: a declared limit is required"),
    ("solovay-unknown-key", "linear_basic", "solovay_witness.c", "1",
     ScenarioError, "scenario.solovay_witness: unknown key(s) c"),
    ("solovay-missing-key", "linear_basic", "solovay_witness.constant", DROP,
     ScenarioError, "scenario.solovay_witness: missing key(s) constant"),
    ("solovay-wrong-type", "linear_basic", "solovay_witness.constant", 1,
     ScenarioError, "scenario.solovay_witness.constant: expected a fraction string, got 1"),
    ("solovay-value-error", "linear_basic", "solovay_witness.constant", "0",
     InvalidScenario, "scenario.solovay_witness: witness constant must be positive: 0"),
    ("solovay-staged-function-value-error", "linear_basic",
     "solovay_witness.stage_schedule.overrides",
     [[0, "never"]], InvalidScenario,
     "scenario.solovay_witness: q_0 = 0 must become defined at some finite stage"),
    ("schedule-unknown-key", "linear_basic", "solovay_witness.stage_schedule.step", 1,
     ScenarioError, "scenario.solovay_witness.stage_schedule: unknown key(s) step"),
    ("schedule-missing-key", "linear_basic", "solovay_witness.stage_schedule.offset", DROP,
     ScenarioError, "scenario.solovay_witness.stage_schedule: missing key(s) offset"),
    ("schedule-wrong-type", "linear_basic", "solovay_witness.stage_schedule.slope", "0",
     ScenarioError, "scenario.solovay_witness.stage_schedule.slope: expected an integer, got '0'"),
    ("schedule-negative", "linear_basic", "solovay_witness.stage_schedule.offset", -1,
     ScenarioError, "scenario.solovay_witness.stage_schedule.offset: must be >= 0, got -1"),
    ("schedule-override-not-a-pair", "staged_delay", "solovay_witness.stage_schedule.overrides.1",
     [17], ScenarioError,
     "scenario.solovay_witness.stage_schedule.overrides[1]: expected [index, stage] pairs"),
    ("schedule-override-wrong-index-type", "staged_delay",
     "solovay_witness.stage_schedule.overrides.0",
     ["8", 201], ScenarioError,
     "scenario.solovay_witness.stage_schedule.overrides[0][0]: expected an integer, got '8'"),
    ("schedule-override-prose-stage", "staged_delay", "solovay_witness.stage_schedule.overrides.0",
     [8, "later"], ScenarioError,
     "scenario.solovay_witness.stage_schedule.overrides[0][1]: expected an integer, got 'later'"),
    ("value-rule-unknown-key", "linear_basic", "solovay_witness.value_rule.w", 1,
     ScenarioError, "scenario.solovay_witness.value_rule: unknown key(s) w"),
    ("value-rule-missing-key", "linear_basic", "solovay_witness.value_rule.u", DROP,
     ScenarioError, "scenario.solovay_witness.value_rule: missing key(s) u"),
    ("value-rule-wrong-type", "linear_basic", "solovay_witness.value_rule.v", 0,
     ScenarioError, "scenario.solovay_witness.value_rule.v: expected a fraction string, got 0"),
    ("value-rule-value-error", "linear_basic", "solovay_witness.value_rule.v", "1",
     InvalidScenario,
     "scenario.solovay_witness.value_rule: affine value rule escapes [0,1) at 0: v=1"),
    ("value-rule-override-not-a-pair", "linear_basic", "solovay_witness.value_rule.overrides",
     [[1, "1/2", 2]], ScenarioError,
     "scenario.solovay_witness.value_rule.overrides[0]: expected [index, value] pairs"),
    ("value-rule-override-wrong-value-type", "linear_basic",
     "solovay_witness.value_rule.overrides",
     [[1, 0.5]], ScenarioError,
     "scenario.solovay_witness.value_rule.overrides[0][1]: expected a fraction string, got 0.5"),
    ("value-rule-override-value-error", "linear_basic", "solovay_witness.value_rule.overrides",
     [[1, "1"]],
     InvalidScenario, "scenario.solovay_witness.value_rule: value override out of range"),
    ("enumeration-unknown-key", "linear_basic", "solovay_witness.enumeration",
     {"prefix": ["0"], "order": "canonical"},
     ScenarioError, "scenario.solovay_witness.enumeration: unknown key(s) order"),
    ("enumeration-missing-key", "linear_basic", "solovay_witness.enumeration", {},
     ScenarioError, "scenario.solovay_witness.enumeration: missing key(s) prefix"),
    ("enumeration-wrong-type", "linear_basic", "solovay_witness.enumeration", ["0"],
     ScenarioError, "scenario.solovay_witness.enumeration: expected an object, got list"),
    ("enumeration-prefix-wrong-type", "linear_basic", "solovay_witness.enumeration",
     {"prefix": "0"},
     ScenarioError, "scenario.solovay_witness.enumeration.prefix: expected a list"),
    ("enumeration-prefix-item-wrong-type", "linear_basic", "solovay_witness.enumeration",
     {"prefix": [0]}, ScenarioError,
     "scenario.solovay_witness.enumeration.prefix[0]: expected a fraction string, got 0"),
    ("enumeration-value-error", "linear_basic", "solovay_witness.enumeration",
     {"prefix": ["1/2", "0"]}, InvalidScenario,
     "scenario.solovay_witness.enumeration: enumeration prefix must keep 0 at index 0"),
    ("enumeration-null", "linear_basic", "solovay_witness.enumeration", None, None, None),
    ("s2a-unknown-key", "mirror_staircase", "s2a_witness.gamma_approx", {},
     ScenarioError, "scenario.s2a_witness: unknown key(s) gamma_approx"),
    ("s2a-missing-key", "mirror_staircase", "s2a_witness.constant", DROP,
     ScenarioError, "scenario.s2a_witness: missing key(s) constant"),
    ("s2a-wrong-type", "mirror_staircase", "s2a_witness.alpha_approx", "table",
     ScenarioError, "scenario.s2a_witness.alpha_approx: expected an object, got str"),
    ("s2a-value-error", "mirror_staircase", "s2a_witness.constant", "-1",
     InvalidScenario, "scenario.s2a_witness: witness constant must be positive: -1"),
    ("s2a-modulus-value-error", "mirror_staircase", "s2a_witness.alpha_approx.modulus.v", "-1/8",
     InvalidScenario,
     "scenario.s2a_witness.alpha_approx.modulus: decay coefficient must be >= 0: -1/8"),
    ("s2a-limit-wrong-type", "mirror_staircase", "s2a_witness.beta_approx.limit", 5,
     ScenarioError, "scenario.s2a_witness.beta_approx.limit: expected an object, got int"),
]


def mutated(name, path, value):
    doc = json.loads(corpus_path(name).read_text())
    *head, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    owner = doc
    for key in head:
        owner = owner[key]
    if value is DROP:
        owner.pop(last, None)
    else:
        owner[last] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("name, path, value, error, message",
                         [pytest.param(*row[1:], id=row[0]) for row in MESSAGES])
def test_every_rejection_has_its_exact_class_and_message(name, path, value, error, message):
    if error is None:
        assert parse(mutated(name, path, value)) == parse(mutated(name, path, DROP))
        return
    with pytest.raises(error) as info:
        parse(mutated(name, path, value))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("q", [Q(0), Q(1, 3), Q(-7, 2), Q(5), Q(22, 7)])
def test_fraction_roundtrip(q):
    assert parse_fraction(format_fraction(q), "roundtrip") == q
