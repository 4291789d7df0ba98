from __future__ import annotations

import copy
import json
from fractions import Fraction as Q

import pytest

from solred.approximations import Kind, check_modulus_prefix
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


def test_corpus_declared_moduli_hold(scenarios):
    checked = 0
    for name in ALL_NAMES:
        sc = scenarios[name]
        members = [sc.beta_approx, sc.alpha_leftce_approx]
        if sc.s2a_witness is not None:
            members += [sc.s2a_witness.alpha_approx, sc.s2a_witness.beta_approx]
        for a in members:
            if a is not None and a.limit is not None and a.modulus is not None:
                assert check_modulus_prefix(a, 12) is None, name
                checked += 1
    assert checked >= 10


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


@pytest.mark.parametrize("bad", ["1.5", "+1/2", "0.5", "1/2/3", " 1/2", "1/0"])
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
    assert parse(base).beta == parse(base).beta_approx.limit


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
    assert sc.solovay_witness.g.enumeration.point(1) == Q(1, 4)


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


@pytest.mark.parametrize("q", [Q(0), Q(1, 3), Q(-7, 2), Q(5), Q(22, 7)])
def test_fraction_roundtrip(q):
    assert parse_fraction(format_fraction(q), "roundtrip") == q
