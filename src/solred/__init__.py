"""Exact-rational construction and verification of reducibility witnesses
between computably approximable reals in the unit interval.

The package builds approximation-pair witnesses out of translation-function
witnesses with the same constant, certifies every claimed inequality through
rational interval enclosures, and cross-checks the deterministic search
against a deliberately naive oracle.
"""
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
    check_kind_prefix,
    check_modulus_prefix,
    complement,
    prepend,
)
from .construction import (
    ConstructionTrace,
    RequirementTuple,
    StepRecord,
    build_s2a_from_solovay,
    check_requirement,
    mirror_s2a,
    search_step,
    witness_image,
)
from .errors import BudgetExhausted, InvalidScenario, ScenarioError
from .harness import (
    MIRROR_CITATION,
    Report,
    trace_payload,
    verify_construction,
    verify_mirror,
    verify_prop1,
    verify_s2a_declared,
    verify_solovay_grid,
)
from .oracle import OracleHit, oracle_min_hit
from .reals import (
    Average,
    AffineExponents,
    Complement,
    CutVerdict,
    DyadicSeries,
    ExactRational,
    Interval,
    ListExponents,
    ReferenceReal,
    Scale,
    certify_in_open_unit,
    enclose,
    left_cut_member,
)
from .scenario import (
    Scenario,
    format_fraction,
    load_scenario,
    parse_fraction,
    parse_scenario,
)
from .witnesses import (
    DyadicEnumeration,
    S2aStepCheck,
    S2aVerdict,
    S2aWitness,
    SolovayVerdict,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
    canonical_index,
    canonical_point,
    check_s2a_prefix,
    check_solovay_at,
    check_strict_at,
    enumerate_domain,
    eval_staged,
)

__version__ = "0.1.0"

__all__ = [
    "AffineDyadic", "AffineExponents", "AlternatingDyadic",
    "Approximation", "Average", "BudgetExhausted", "Complement",
    "ComplementGen", "ConstructionTrace", "CutVerdict", "DecayBound",
    "DyadicEnumeration", "DyadicSeries", "ExactRational", "Interval",
    "InvalidScenario", "Kind", "ListExponents", "MIRROR_CITATION",
    "OracleHit", "PrefixMaxGen", "PrependGen", "ReferenceReal", "Report",
    "RequirementTuple", "S2aStepCheck", "S2aVerdict", "S2aWitness",
    "Scale", "Scenario", "ScenarioError", "SolovayVerdict",
    "SolovayWitness", "StageSchedule", "StagedPartialFunction",
    "StepRecord", "Table", "ValueRule", "build_s2a_from_solovay",
    "canonical_index", "canonical_point", "certify_in_open_unit",
    "check_kind_prefix", "check_modulus_prefix", "check_requirement",
    "check_s2a_prefix", "check_solovay_at", "check_strict_at",
    "complement", "enclose", "enumerate_domain", "eval_staged",
    "format_fraction", "left_cut_member", "load_scenario", "mirror_s2a",
    "oracle_min_hit", "parse_fraction", "parse_scenario", "prepend",
    "search_step", "trace_payload", "verify_construction",
    "verify_mirror", "verify_prop1", "verify_s2a_declared",
    "verify_solovay_grid", "witness_image",
]
