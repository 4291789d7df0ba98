from __future__ import annotations

from fractions import Fraction as Q

import pytest

from solred import oracle
from solred.approximations import AffineDyadic, Approximation, Kind, prepend
from solred.construction import build_s2a_from_solovay, check_requirement
from solred.oracle import oracle_min_hit
from solred.reals import ZERO, ExactRational
from solred.scenario import load_scenario
from solred.witnesses import (
    NEVER,
    DyadicEnumeration,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
)

from conftest import corpus_path


def witness(u="1/2", c="1", slope=0, offset=0, overrides=()):
    g = StagedPartialFunction(
        DyadicEnumeration(),
        StageSchedule(slope, offset, tuple(overrides)),
        ValueRule(Q(u), Q(0)))
    return SolovayWitness(g, Q(c))


def half_approx():
    return prepend(ZERO, Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1),
                                       Kind.LEFT_CE, ExactRational(Q(1, 2))))


def test_zero_cap_finds_nothing():
    assert oracle_min_hit(1, 0, witness(), half_approx(), stage_cap=0) is None


def test_step_zero_is_not_searchable():
    with pytest.raises(ValueError):
        oracle_min_hit(0, 0, witness(), half_approx(), stage_cap=10)
    with pytest.raises(ValueError):
        oracle_min_hit(1, 0, witness(), half_approx(), stage_cap=-1)


def test_single_point_domain_yields_nothing():
    w = witness(overrides=[(j, NEVER) for j in range(1, 51)])
    assert oracle_min_hit(1, 0, w, half_approx(), stage_cap=20) is None


def test_cap_boundary_is_inclusive():
    w = witness()
    b = half_approx()
    hit = oracle_min_hit(1, 0, w, b, stage_cap=4)
    assert hit is not None
    assert (hit.stage, hit.index) == (4, 3)
    assert hit.tup.points == (Q(0), Q(1, 8), Q(1, 4))
    assert oracle_min_hit(1, 0, w, b, stage_cap=3) is None


def test_prev_index_pushes_candidates_forward():
    w = witness()
    b = half_approx()
    hit = oracle_min_hit(1, 5, w, b, stage_cap=50)
    assert hit is not None
    assert hit.index == 6
    assert check_requirement(1, b.term(hit.index), w.c, hit.tup) is None


def test_oracle_matches_search_chain_on_identity_witness():
    w = witness(u="1", c="2")
    raw = Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE,
                        ExactRational(Q(1, 2)))
    half = ExactRational(Q(1, 2))
    _, trace = build_s2a_from_solovay(w, raw, half, half,
                                      depth=4, stage_budget=1000)
    b = prepend(ZERO, raw)
    for rec in trace.steps[1:]:
        hit = oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, b,
                             stage_cap=1000)
        assert (hit.stage, hit.index) == (rec.stage_found, rec.index)
        assert hit.tup == rec.tup


def test_oracle_requirement_checks_are_pinned(monkeypatch):
    """The oracle builds one canonical ladder per hit and checks only that.

    Checking every ladder the backtracking enumerator reached cost 1,274
    check_requirement calls for this one oracle call.
    """
    sc = load_scenario(corpus_path("invalid_small_c"))
    w = sc.solovay_witness
    _, trace = build_s2a_from_solovay(w, sc.beta_approx, sc.alpha, sc.beta,
                                      1, sc.stage_budget)
    calls = 0
    real = oracle.check_requirement

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(oracle, "check_requirement", counting)
    hit = oracle_min_hit(2, trace.steps[1].index, w, prepend(ZERO, sc.beta_approx),
                         sc.stage_budget)
    assert hit is not None
    assert calls == 1


def test_oracle_inner_loop_runs_on_integers(monkeypatch):
    """Every point, g-value part, constant part and scale _members reads is an int.

    Replays the first six steps of invalid_g_above, as construction mode does.
    """
    sc = load_scenario(corpus_path("invalid_g_above"))
    w = sc.solovay_witness
    _, trace = build_s2a_from_solovay(w, sc.beta_approx, sc.alpha, sc.beta,
                                      6, sc.stage_budget)
    real = oracle._members
    calls = 0

    def checking(f, points, nums, dens, cn, cd, d, slack):
        nonlocal calls
        calls += 1
        assert all(type(x) is int for x in (*points, *nums, *dens, cn, cd, d, slack))
        return real(f, points, nums, dens, cn, cd, d, slack)

    monkeypatch.setattr(oracle, "_members", checking)
    b = prepend(ZERO, sc.beta_approx)
    for rec in trace.steps[1:]:
        hit = oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, b, sc.stage_budget)
        assert (hit.stage, hit.index, hit.tup) == (rec.stage_found, rec.index, rec.tup)
    assert len(trace.steps) == 7 and calls > 0
