"""Differential fuzzing of the incremental step search against the oracle.

Small random staged witnesses (permuted enumeration prefixes, "never"
stage overrides, value-table overrides, non-monotone and non-dyadic
target values, constants on both sides of the true ratio) must give the
incremental search_step and oracle_min_hit the same step record, and a
larger stage budget must never change a hit already found.  At small budgets
the oracle's stage shell is also run with the plain backtracking ladder
enumerator kept below as a reference, fed Fraction points rebuilt from
the shell's integers, and all three must agree.  A full construction, whose
steps share one domain at one scale, swept forward once, must give the
steps of a chain of standalone searches, whose stages never decrease,
and each of its steps, and the step it exhausts at, must be the oracle's.
The integer keys the search compares target values by must order every
value against every dyadic point exactly as the rationals do, and the
reach the domain keeps incrementally must equal a fresh walk from 0,
with the occupancy holding each point of the stage once.  A run of
stages entered at once must leave the domain as the stage-by-stage
reference kept below does, and the search's two look-aheads, the first
stage that inserts a point below a slot and the first stage at which the
reach gets to a slot, must name the stages at which that reference does.
The oracle's galloping, bisecting stage search must return the hit of
the linear stage shell kept below, built from the same one-stage probe,
in at most 2 * ceil(log2(cap)) + 2 probes, from whatever stage it starts
at, and in at most two from the search's own stage.  That probe, which builds one
ladder per (cut, lo) position of the candidates in its stage, must return
the hit of the memo-free probe kept below, which searches every candidate
on its own.
"""
from __future__ import annotations

import copy
import heapq
import math
import tracemalloc
from bisect import bisect_left, bisect_right
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from solred import construction, oracle
from solred.approximations import (
    AffineDyadic,
    AlternatingDyadic,
    Approximation,
    ComplementGen,
    Kind,
    PrefixMaxGen,
    Table,
)
from solred.construction import (
    RequirementTuple,
    StepRecord,
    _Domain,
    _lex_first_ladder,
    build_s2a_from_solovay,
    check_requirement,
    search_step,
)
from solred.oracle import oracle_min_hit
from solred.reals import ZERO
from solred.scenario import MAX_STAGE_BUDGET
from solred.witnesses import (
    NEVER,
    DyadicEnumeration,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
    canonical_point,
    enumerate_domain,
)

from conftest import TwoTail, fresh_search, integer_ladder, point, prepended, probe_bound

FUZZ = settings(max_examples=400, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

dyadics = st.integers(0, 63).map(lambda k: Q(k, 64))


RATIOS = (Q(1, 2), Q(3, 4), Q(7, 8), Q(1), Q(2))


@st.composite
def staged_witnesses(draw, ratios=RATIOS, overrides=True):
    """A small staged witness; without overrides its values are the affine rule's."""
    size = draw(st.sampled_from([0, 2, 4, 8, 16]))
    perm = draw(st.permutations(range(1, size))) if size else []
    prefix = tuple(canonical_point(j) for j in [0, *perm]) if size else ()
    stages = draw(st.dictionaries(
        st.integers(1, 40), st.one_of(st.just(NEVER), st.integers(0, 40)),
        max_size=8))
    # A late start brings many points in at once, so first hits see a rich domain.
    schedule = StageSchedule(draw(st.integers(0, 1)), draw(st.integers(0, 6)),
                             tuple(sorted(stages.items())))
    u = draw(st.sampled_from([Q(1, 4), Q(1, 2), Q(3, 4), Q(1)]))
    enumeration = DyadicEnumeration(prefix)
    # Small nudges off the affine value make a point fail clause (v) against
    # some finals but not others; wild values break it outright.
    nudges = draw(st.dictionaries(st.integers(0, 26), st.integers(-6, 6),
                                  max_size=6 if overrides else 0))
    table = {j: min(max(u * point(enumeration, j) + Q(d, 128), ZERO), Q(127, 128))
             for j, d in nudges.items()}
    table.update(draw(st.dictionaries(st.integers(0, 40), dyadics,
                                      max_size=2 if overrides else 0)))
    rule = ValueRule(u, ZERO, tuple(sorted(table.items())))
    # The affine part has ratio u: constants range from well below to above it.
    c = u * draw(st.sampled_from(ratios))
    return SolovayWitness(StagedPartialFunction(enumeration, schedule, rule), c)


@st.composite
def dipped_witnesses(draw):
    """A witness whose values are the affine rule's but at one point q_j, j = 2**k,
    where g dips to 1/8 or below: a ladder through that point must wait for a
    later one, often the point just below its b_i."""
    w = draw(staged_witnesses(overrides=False))
    j = 1 << draw(st.integers(1, 3))
    rule = ValueRule(w.g.rule.u, ZERO, ((j, draw(st.sampled_from([ZERO, Q(1, 16), Q(1, 8)]))),))
    return SolovayWitness(StagedPartialFunction(w.g.enumeration, w.g.schedule, rule), w.c)


def _table(terms):
    return Approximation(Table(tuple(terms), terms[-1]), Kind.GENERAL)


# Keys that repeat by parity past the settle index: with dyadic u the two
# tail keys differ, so the search must route both parities.
alternating_targets = st.tuples(
    st.sampled_from([Q(1, 4), Q(3, 8), Q(1, 2), Q(1, 3)]), st.sampled_from([Q(1, 8), Q(1, 4)]),
    st.integers(1, 2)).map(lambda uvw: Approximation(AlternatingDyadic(*uvw)))

affine_targets = st.sampled_from([Q(1, 4), Q(1, 2), Q(3, 4)]).map(
    lambda u: Approximation(AffineDyadic(u, u, 1), Kind.LEFT_CE))

targets = st.one_of(
    st.lists(st.integers(2, 15).map(lambda k: Q(k, 16)), min_size=1, max_size=30).map(_table),
    # Values off the dyadic grid, whose floor and ceiling keys differ.
    st.lists(st.integers(6, 45).map(lambda k: Q(k, 48)), min_size=1, max_size=30).map(_table),
    affine_targets,
    st.just(Approximation(AffineDyadic(Q(1, 3), Q(1, 3), 1), Kind.LEFT_CE)),
    alternating_targets,
    st.sampled_from([AlternatingDyadic(Q(1, 4), Q(1, 8), 1),
                     AlternatingDyadic(Q(3, 8), Q(1, 4), 1),
                     Table((Q(1, 2), Q(1, 8), Q(3, 8)), Q(5, 16))]).map(
        lambda inner: Approximation(PrefixMaxGen(inner))),
    st.sampled_from([Q(1, 4), Q(1, 2)]).map(
        lambda u: Approximation(ComplementGen(AffineDyadic(u, u, 1)))),
)


# (n, least budget, greatest budget).  The backtracking reference enumerates
# every ladder of a failing search, so each step's budget stops short of the
# domain density where that blows up; the least budget keeps most draws dense
# enough to hit.
steps = st.sampled_from([(1, 4, 12), (2, 10, 18), (3, 18, 26)]).flatmap(
    lambda nb: st.tuples(st.just(nb[0]), st.integers(nb[1], nb[2])))

# The same for the search against oracle_min_hit alone, whose ladder reference
# is polynomial and whose stage search bisects, so a budget costs it about
# log2(budget) domain rebuilds.  Step n's ladders hop less than 2**-(n+1), and
# the canonical enumeration brings in every point of denominator 2**(n+2) only
# at about stage 2**(n+2).  So budgets run from about 2**(n+1), where most
# draws exhaust, up to 2**(n+3) from step 5 on, where some of every step's
# draws hit.
deep_steps = st.sampled_from(
    [(1, 4, 40), (2, 10, 60), (3, 18, 80), (4, 34, 100), (5, 66, 256), (6, 130, 512),
     (7, 258, 1024)]).flatmap(
    lambda nb: st.tuples(st.just(nb[0]), st.integers(nb[1], nb[2])))


def backtracking_first_ladder(n, b, c, indices, points, values, gap_limit):
    """Every ladder of every length, in order, over one stage's Fraction points.

    Ladders are enumerated by plain recursive backtracking in canonical
    order (ascending length, then lexicographic positions), cutting a
    branch only where a requirement clause is already unsatisfiable, and
    the first one check_requirement accepts is returned.  The g-values are
    Fractions or integer pairs, which the ladder holds as they are.
    """
    cut = bisect_left(points, b)
    if cut < 3:
        return None
    win_lo = b - gap_limit
    if bisect_right(points, win_lo, 0, cut) >= cut:
        return None  # no domain point inside the window

    def extend(chosen, ell):
        depth = len(chosen) - 1
        if depth == ell:
            tup = integer_ladder([indices[t] for t in chosen], [points[t] for t in chosen],
                                 [values[t] for t in chosen])
            return tup if check_requirement(n, b, c, tup) is None else None
        last = chosen[-1]
        remaining = ell - depth - 1  # positions still to pick after this one
        for p in range(last + 1, cut - remaining):
            if points[p] - points[last] >= gap_limit:
                break  # later positions only widen this hop
            if points[p] + remaining * gap_limit <= win_lo:
                continue  # even maximal hops from p leave the final below the window
            found = extend(chosen + [p], ell)
            if found is not None:
                return found
        return None

    for ell in range(2, cut):
        if ell * gap_limit <= win_lo:
            continue  # ell hops below gap_limit cannot clear the window floor
        tup = extend([0], ell)
        if tup is not None:
            return tup
    return None


def fraction_first_ladder(n, c, cut, lo, entries, points, nums, dens, d):
    """oracle._first_ladder's signature over backtracking_first_ladder.

    The reference's Fraction arguments are rebuilt from the oracle's
    integers: points at scale d and the gap limit 2 * (d >> (n + 2)) over
    d; the g-values stay the value rule's integer pairs.  Its
    target value b is the midpoint of the values that give the positions,
    whose b * d lies above points[cut - 1], at most at points[cut], at
    least at points[lo - 1] + gap and below points[lo] + gap; the ladder
    search reads b only through the positions (see oracle).
    """
    if lo >= cut:
        return None  # no final
    gap = 2 * (d >> (n + 2))
    low = max(points[cut - 1], points[lo - 1] + gap if lo else 0)
    high = min([points[lo] + gap, *points[cut:cut + 1]])
    return backtracking_first_ladder(
        n, Q(low + high, 2 * d), c, [e[0] for e in entries], [Q(x, d) for x in points],
        [e[2] for e in entries], Q(gap, d))


def memo_free_stage_hit(n, prev_index, w, b, stage):
    """The one-stage probe oracle._stage_hit replaced: each candidate's
    positions bisected by its exact term, and each candidate given its own
    ladder search, with no (cut, lo) memo."""
    m = max(n + 2, stage.bit_length(), len(w.g.enumeration.prefix).bit_length())
    entries = sorted(enumerate_domain(w.g, stage, m), key=lambda e: e[1])
    points = [x for _, x, _ in entries]
    if not points or points[0] != 0:
        return None
    nums = [p for _, _, (p, _) in entries]
    dens = [q for _, _, (_, q) in entries]
    d = 1 << m
    gap_limit = 2 * (d >> (n + 2))
    for i in range(prev_index + 1, stage + 1):
        bi = b.term(i)
        bn, bd = bi.numerator, bi.denominator
        cut = bisect_left(points, bn * d, key=lambda x: x * bd)
        lo = bisect_right(points, bn * d - gap_limit * bd, 0, cut, key=lambda x: x * bd)
        tup = oracle._first_ladder(n, w.c, cut, lo, entries, points, nums, dens, d)
        if tup is not None and check_requirement(n, bi, w.c, tup) is None:
            return StepRecord(n, i, Q(*tup.values[-1]), bi, tup, stage)
    return None


def linear_min_hit(n, prev_index, w, b, stage_cap):
    """The stage shell oracle_min_hit replaced: probe every stage from 1 up,
    in turn, and return the first hit."""
    for stage in range(1, stage_cap + 1):
        hit = oracle._stage_hit(n, prev_index, w, b, stage)
        if hit is not None:
            return hit
    return None


def probed_min_hit(n, prev_index, w, b, stage_cap, start=1):
    """oracle_min_hit's result and the stages it probed, in order."""
    probed = []
    real = oracle._stage_hit

    def probe(n, prev_index, w, b, stage):
        probed.append(stage)
        return real(n, prev_index, w, b, stage)

    with mock.patch.object(oracle, "_stage_hit", probe):
        return oracle_min_hit(n, prev_index, w, b, stage_cap, start), probed


def _halving_witness(values=(), schedule=StageSchedule(0, 9)):
    """g = q/2 with value-table overrides; by default every point up to j = 9
    arrives at stage 9."""
    g = StagedPartialFunction(DyadicEnumeration(), schedule, ValueRule(Q(1, 2), ZERO, values))
    return SolovayWitness(g, Q(1, 2))


def _constant(q):
    return _table((q,))


# g(1/16) raised to 7/64: 1/16 fails clause (v) against 1/8 and 3/16 but not against 1/4.
NUDGED = ((8, Q(7, 64)),)


@FUZZ
# The later final 1/4 has the lex-first ladder (0, 1/16, 1/4), not 3/16.
@example(w=_halving_witness(NUDGED), raw=_constant(Q(5, 16)), step=(1, 12), prev_index=0)
# 0 reaches the final 3/16 in one hop, and its only member is the point just below it.
# b = 1/4 is itself a domain point, with the lex-smaller ladder (0, 1/16, 1/4): the
# search must leave it out, because a final lies strictly below b.
@example(w=_halving_witness(NUDGED), raw=_constant(Q(1, 4)), step=(1, 12), prev_index=0)
# b - 1/4 = 1/8 is a domain point, with the lex-smaller ladder (0, 1/16, 1/8): the
# window is open at its lower edge, so the hit is (0, 1/16, 3/16).
@example(w=_halving_witness(), raw=_constant(Q(3, 8)), step=(1, 12), prev_index=0)
# 0 reaches the final 1/8 in one hop, and its member is the least positive point 1/16.
@example(w=_halving_witness(), raw=_constant(Q(1, 4)), step=(1, 12), prev_index=0)
# g(0) = 1/16 = g(1/8): the final 1/8 fails clause (v) against 0 alone, so its
# lex-smaller ladder (0, 1/16, 1/8) must give way to (0, 1/16, 3/16).
@example(w=_halving_witness(((0, Q(1, 16)),)), raw=_constant(Q(1, 4)), step=(1, 12),
         prev_index=0)
# g(1/4) = 0, so candidate 1 (b = 3/8) misses from stage 4 on; 1/16 never arrives,
# and stage 9 inserts 3/16 below b together with 3/8 and 5/8, which must wake it.
@example(w=_halving_witness(((2, ZERO),),
                            StageSchedule(1, 0, ((5, 9), (6, 9), (8, NEVER), (9, 9)))),
         raw=_constant(Q(3, 8)), step=(1, 12), prev_index=0)
# b = 5/24 is off the dyadic grid, and g(1/8) = 0 leaves it no ladder until stage 11
# inserts 3/16, the grid point just below b (its floor key), which must wake it.
@example(w=_halving_witness(((4, ZERO),), StageSchedule(0, 9, ((9, 11),))),
         raw=_constant(Q(5, 24)), step=(1, 12), prev_index=0)
# g(1/8) = 5/32 fails clause (v) against the finals 1/4 and 5/16 (3/16 never
# arrives), so each of their member chains crosses a gap of exactly 1/4, the gap
# limit, from 0 to 1/4; the hit is the three-hop (0, 1/8, 1/4, 3/8).
@example(w=_halving_witness(((4, Q(5, 32)),), StageSchedule(0, 10, ((8, NEVER), (9, NEVER)))),
         raw=_constant(Q(7, 16)), step=(1, 12), prev_index=0)
# g(1/8) = 1/8 meets clause (v)'s upper bound exactly, against 0 (1/8 = c * (1/8 + 1/8))
# and against 1/16 (3/32 = c * (1/16 + 1/8)): the final 1/8 is out, and the hit is
# (0, 1/16, 3/16).
@example(w=_halving_witness(((4, Q(1, 8)),)), raw=_constant(Q(1, 4)), step=(1, 12),
         prev_index=0)
# Candidate 5 (b = 5/16) arrives at stage 5, below the last walk's reach + gap (1/2),
# and stage 5 inserts only 3/8, above it: it has never been searched, so it must be,
# and it hits with (0, 1/8, 1/4).
@example(w=_halving_witness(schedule=StageSchedule(0, 0)),
         raw=_table((Q(1, 8), Q(1, 8), Q(1, 8), Q(13, 16), Q(5, 16))), step=(1, 5),
         prev_index=0)
@given(w=staged_witnesses(), raw=targets, step=steps, prev_index=st.integers(0, 3))
def test_search_step_equals_oracle(w, raw, step, prev_index):
    n, budget = step
    b = prepended(raw)
    rec = fresh_search(n, prev_index, w, b, budget)
    assert oracle_min_hit(n, prev_index, w, b, budget) == rec
    with mock.patch.object(oracle, "_first_ladder", fraction_first_ladder):
        assert oracle_min_hit(n, prev_index, w, b, budget) == rec


# g(1/4) = g(3/16) = 0: see the test below.
ZEROED = _halving_witness(((2, ZERO), (9, ZERO)))


@FUZZ
@example(w=ZEROED, raw=_table((Q(3, 8), Q(5, 16))), n=1, stage=9, prev_index=0)
@given(w=staged_witnesses(), raw=targets, n=st.integers(1, 3), stage=st.integers(0, 40),
       prev_index=st.integers(0, 3))
def test_stage_probe_equals_the_memo_free_probe(w, raw, n, stage, prev_index):
    b = prepended(raw)
    assert oracle._stage_hit(n, prev_index, w, b, stage) == memo_free_stage_hit(
        n, prev_index, w, b, stage)


def test_candidates_at_one_cut_with_different_windows_get_their_own_ladders():
    """At stage 9, b_1 = 3/8 and b_2 = 5/16 both lie above 1/4, the fifth point.

    Their windows (b - 1/4, b) differ: b_1's holds the finals 3/16 and 1/4,
    whose g-values 0 fail clause (v) against 0, and b_2's also holds 1/8,
    which hits with (0, 1/16, 1/8).  A ladder shared by cut alone would give
    b_2 the miss of b_1.
    """
    w = ZEROED
    b = prepended(_table((Q(3, 8), Q(5, 16))))
    points = sorted(point(w.g.enumeration, j) for j in range(10))
    gap = Q(1, 4)
    positions = [(bisect_left(points, bi), bisect_right(points, bi - gap))
                 for bi in (b.term(1), b.term(2))]
    assert positions == [(5, 3), (5, 2)]
    rec = oracle._stage_hit(1, 0, w, b, 9)
    assert (rec.stage_found, rec.index, rec.tup.points, rec.tup.scale) == (9, 2, (0, 1, 2), 16)
    assert memo_free_stage_hit(1, 0, w, b, 9) == rec
    assert oracle_min_hit(1, 0, w, b, 12) == rec == fresh_search(1, 0, w, b, 12)
    with mock.patch.object(oracle, "_first_ladder", fraction_first_ladder):
        assert oracle._stage_hit(1, 0, w, b, 9) == rec


def test_a_candidate_with_two_points_below_it_hits_when_a_third_lands():
    """The hit candidate arrives with only 0 and 1/8 below its b_i = 1/4.

    Point q_j arrives at stage j, so candidate 4 enters at stage 4, when 0
    already reaches 1/4 in hops < 1/4 and b_i lies inside reach + gap,
    but no ladder of three points fits below it.  Stages 5..7 insert
    points above b_i; stage 8 inserts 1/16 below it, which must wake it,
    and it hits with (0, 1/16, 1/8).
    """
    w = _halving_witness(schedule=StageSchedule(0, 0))
    b = prepended(_constant(Q(1, 4)))
    domain = _Domain(w, b, 12)
    domain.start_step(1)
    domain.enter(4)
    points = [Q(x, 2 ** domain.m) for x, _ in _all_points(domain)]
    assert points == [0, Q(1, 8), Q(1, 4), Q(1, 2), Q(3, 4)]
    rec = fresh_search(1, 3, w, b, 12)
    assert (rec.stage_found, rec.index, rec.tup.points, rec.tup.scale) == (8, 4, (0, 1, 2), 16)
    assert oracle_min_hit(1, 3, w, b, 12) == rec


def test_a_step_hits_a_later_index_whose_target_value_an_earlier_step_took():
    """Target values 3/8, 1/2, 3/8, 3/8, ...: step 1 hits index 1 (b = 3/8).

    Steps 2 and 3 hit indices 3 and 4, which share index 1's keys; the
    least index with those keys lies at or below the previous hit, so each
    step must still route and search the least of them above that hit.
    Every step of the construction, whose steps share one domain, equals
    both a standalone search and the oracle.
    """
    w = _halving_witness(schedule=StageSchedule(0, 0))
    trace = build_s2a_from_solovay(w, _table((Q(3, 8), Q(1, 2), Q(3, 8))), 3, 40)
    assert [(r.index, r.stage_found, r.b_value) for r in trace.steps[1:]] == [
        (1, 4, Q(3, 8)), (3, 10, Q(3, 8)), (4, 21, Q(3, 8))]
    for prev, rec in zip(trace.steps, trace.steps[1:]):
        assert fresh_search(rec.n, prev.index, w, trace.target, 40) == rec
        assert oracle_min_hit(rec.n, prev.index, w, trace.target, 40) == rec


@pytest.mark.parametrize("prev_index,index", [(0, 3), (5, 7)])
def test_the_odd_tail_candidate_past_the_settle_index_is_routed(prev_index, index):
    """b_i = 0 for i < 2 and from 2 on alternates 0, 1/4: n0 = 2.

    Only b_i = 1/4 can hit, first at stage 8 with (0, 1/16, 1/8).  Its least
    candidate is the odd-tail index past max(n0, prev_index + 1), the last
    one the search routes: 3 after step 0 and 7 after index 5.  A routing
    bound one index lower leaves it unrouted, and the step exhausts.
    """
    w = _halving_witness(schedule=StageSchedule(0, 0))
    b = Approximation(TwoTail((ZERO, ZERO), ZERO, Q(1, 4)))
    rec = fresh_search(1, prev_index, w, b, 40)
    assert (rec.index, rec.stage_found, rec.tup.points, rec.tup.scale) == (index, 8, (0, 1, 2), 16)
    assert oracle_min_hit(1, prev_index, w, b, 40) == rec


@settings(FUZZ, max_examples=200)
@given(w=staged_witnesses(), raw=targets, step=deep_steps, prev_index=st.integers(0, 3))
def test_search_step_equals_oracle_at_raised_budgets(w, raw, step, prev_index):
    n, budget = step
    b = prepended(raw)
    assert oracle_min_hit(n, prev_index, w, b, budget) == fresh_search(n, prev_index, w, b, budget)


@FUZZ
@given(w=staged_witnesses(), raw=targets, n=st.integers(1, 3), cap=st.integers(0, 40),
       prev_index=st.integers(0, 3))
def test_bisection_equals_the_linear_shell(w, raw, n, cap, prev_index):
    b = prepended(raw)
    hit, probed = probed_min_hit(n, prev_index, w, b, cap)
    assert hit == linear_min_hit(n, prev_index, w, b, cap)
    assert len(probed) <= probe_bound(cap)


def _early_witness():
    """The halving witness with 1/8 and 1/16 enumerated second and third:
    b = 1/4 hits at step 1 from stage 2 on, with (0, 1/16, 1/8)."""
    order = [0, 4, 8, *(j for j in range(1, 16) if j not in (4, 8))]
    g = StagedPartialFunction(DyadicEnumeration(tuple(canonical_point(j) for j in order)),
                              StageSchedule(0, 0), ValueRule(Q(1, 2), ZERO))
    return SolovayWitness(g, Q(1, 2))


PINNED_CAPS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64)
HALVES = prepended(Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE))


@pytest.mark.parametrize("cap", PINNED_CAPS)
def test_bisection_equals_the_linear_shell_at_pinned_caps(cap):
    """Least hitting stages and caps at 0, 1, 2, powers of two and their neighbours.

    On the early witness the least hitting stage is max(2, prev_index + 1);
    on the halving witness, with b_i = 1/2 for every i, it is
    max(4, prev_index + 1).  Stages 2, 4, 8, 16 and 32 are gallop points,
    so a hit there ends the gallop at the least hitting stage itself.
    """
    early, halving = _early_witness(), _halving_witness(schedule=StageSchedule(0, 0))
    quarter = prepended(_constant(Q(1, 4)))
    cases = [(early, quarter, 1, 2), (early, quarter, 2, 3)]
    cases += [(halving, HALVES, least - 1, least)
              for least in (4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33)]
    for w, b, prev_index, least in cases:
        hit, probed = probed_min_hit(1, prev_index, w, b, cap)
        assert hit == linear_min_hit(1, prev_index, w, b, cap)
        assert (None if hit is None else hit.stage_found) == (least if cap >= least else None)
        assert len(probed) <= probe_bound(cap)


def test_a_hit_on_a_gallop_point_bisects_only_below_it():
    """The least hitting stage 8 ends the gallop 1, 2, 4, 8, and the
    bisection probes only 6 and 7 between the miss at 4 and the hit."""
    hit, probed = probed_min_hit(1, 7, _halving_witness(schedule=StageSchedule(0, 0)), HALVES, 100)
    assert probed == [1, 2, 4, 8, 6, 7]
    assert (hit.stage_found, hit.index) == (8, 8)


@FUZZ
@given(w=staged_witnesses(), raw=targets, n=st.integers(1, 3), cap=st.integers(0, 40),
       prev_index=st.integers(0, 3))
def test_every_start_gives_the_hit_from_stage_1(w, raw, n, cap, prev_index):
    """Started anywhere in [0, cap + 2], the stage search returns the hit it
    returns from stage 1, within the same probe bound; started at the
    search's own stage, it probes at most 2 stages."""
    b = prepended(raw)
    hit = oracle_min_hit(n, prev_index, w, b, cap)
    for start in range(cap + 3):
        seeded, probed = probed_min_hit(n, prev_index, w, b, cap, start)
        assert seeded == hit
        assert len(probed) <= probe_bound(cap)
    rec = fresh_search(n, prev_index, w, b, cap)
    if rec is not None:
        seeded, probed = probed_min_hit(n, prev_index, w, b, cap, rec.stage_found)
        assert seeded == rec
        assert len(probed) <= 2


# The halving witness with b_i = 1/2 after index 7: the least hitting stage is 8.
LATE = (1, 7, _halving_witness(schedule=StageSchedule(0, 0)), HALVES)


@pytest.mark.parametrize("cap, start, stages", [
    (100, 8, [8, 7]),  # at the least stage: it and the stage below
    (100, 9, [9, 8, 4, 6, 7]),  # one late: 8 hits too, so the bisection runs below it
    (100, 7, [7, 14, 10, 8]),  # one early: 7 misses, so the gallop goes on
    (100, 200, [100, 99, 49, 24, 12, 6, 9, 7, 8]),  # past the cap: from the cap
    (7, 200, [7]),  # past a cap below the least stage: no hit
])
def test_a_start_changes_only_the_stages_probed(cap, start, stages):
    hit, probed = probed_min_hit(*LATE, cap, start)
    assert probed == stages
    assert hit == oracle_min_hit(*LATE, cap)
    assert (hit and hit.stage_found) == (8 if cap >= 8 else None)


@FUZZ
@given(w=staged_witnesses(), raw=targets, step=steps, prev_index=st.integers(0, 3),
       extra=st.integers(1, 40))
def test_raising_the_budget_keeps_found_hits(w, raw, step, prev_index, extra):
    n, budget = step
    b = prepended(raw)
    rec = fresh_search(n, prev_index, w, b, budget)
    more = fresh_search(n, prev_index, w, b, budget + extra)
    if rec is not None:
        assert more == rec
    elif more is not None:
        assert more.stage_found > budget


def _standalone_chain(w, raw, depth, budget):
    """(step records, (exhausted step, budget) or None) of searches that each
    start from a fresh domain at stage 0."""
    b = prepended(raw)
    chain = [StepRecord(0, 0, w.g.value_at(0), b.term(0), None, w.g.schedule.stage_of(0))]
    for n in range(1, depth + 1):
        rec = fresh_search(n, chain[-1].index, w, b, budget)
        if rec is None:
            return chain, (n, budget)
        chain.append(rec)
    return chain, None


@settings(FUZZ, max_examples=200)
@given(w=staged_witnesses(), raw=targets, depth=st.integers(2, 9), budget=st.integers(12, 100))
def test_standalone_steps_never_find_an_earlier_stage(w, raw, depth, budget):
    """stage_found never decreases along a chain of standalone searches.

    A construction's steps share one domain, and step n resumes at the
    stage where step n - 1 hit; the searches here each scan from stage 1,
    so they would find an earlier hit if one existed.
    """
    chain, _ = _standalone_chain(w, raw, depth, budget)
    stages = [rec.stage_found for rec in chain[1:]]
    assert stages == sorted(stages)


@settings(FUZZ, max_examples=100)
# Five steps hit.  Step 6 exhausts at once: at budget 100 every point is exact at
# 2**-7, and no hop between two of them is below step 6's gap limit 2**-7.
@example(w=_halving_witness(schedule=StageSchedule(0, 0)),
         raw=Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE),
         depth=8, budget=100)
# g(1/8) = 1/16 passes clause (v) against g(0) = 1/64 at step 1 but not at step 2,
# whose slack is half as wide.  A step that inherited step 1's verdict on 1/8 would
# take the ladder to 1/8, which check_requirement rejects, over the hit (0, 3/32, 3/16)
# at stage 17.
@example(w=SolovayWitness(StagedPartialFunction(
             DyadicEnumeration(), StageSchedule(0, 0),
             ValueRule(Q(1, 2), ZERO, ((0, Q(1, 64)), (9, Q(1, 16))))), Q(1, 4)),
         raw=Approximation(AffineDyadic(Q(1, 4), Q(1, 4), 1), Kind.LEFT_CE),
         depth=2, budget=17)
@given(w=staged_witnesses(), raw=targets, depth=st.integers(1, 9), budget=st.integers(12, 100))
def test_shared_log_gives_the_steps_of_standalone_searches(w, raw, depth, budget):
    """The construction's one domain, swept forward once, changes no step.

    Each standalone search runs on a fresh domain of its own and scans it from
    stage 1.
    """
    chain, exhausted = _standalone_chain(w, raw, depth, budget)
    trace = build_s2a_from_solovay(w, raw, depth, budget)
    assert trace.steps == tuple(chain)  # stage_found, index, tup, a_n and b_i of every step
    assert trace.exhausted == exhausted


# (witness, target, budget) of a whole construction, from one of three kinds:
# - affine values at a constant of at least their ratio, a target alternating
#   past its settle index and a large budget, so that steps hit deep and some
#   hit two indices past the step before (the routing bound's case);
# - affine values but one dip, a budget of 9 to 31 and an affine or any
#   target, so that a missed candidate often hits at the stage that inserts
#   the point just below its b_i;
# - any witness, target and budget.
constructions = st.one_of(
    st.tuples(staged_witnesses(ratios=(Q(1), Q(2)), overrides=False), alternating_targets,
              st.integers(78, 600)),
    st.tuples(dipped_witnesses(), affine_targets | targets, st.integers(9, 31)),
    st.tuples(staged_witnesses(), targets, st.integers(8, 600)),
)


# 300 examples: each builds to depth 8 and replays every step in the oracle,
# which probes about 2 * log2(budget) stages per step.
@settings(FUZZ, max_examples=300)
# Seven steps hit, at stages up to 445; step 8 needs the points of denominator 2**10.
@example(case=(_halving_witness(schedule=StageSchedule(0, 0)),
               Approximation(AffineDyadic(Q(3, 4), Q(3, 4), 1), Kind.LEFT_CE), 600))
# Stage 9 inserts 3/16, the slot just below b_4 = 7/32 at scale 2**4, which must
# wake the missed candidate 4: step 1 hits there with (0, 1/16, 3/16).
@example(case=(SolovayWitness(StagedPartialFunction(
    DyadicEnumeration(), StageSchedule(0, 0), ValueRule(Q(1, 4), ZERO, ((4, ZERO),))), Q(3, 16)),
    Approximation(AffineDyadic(Q(1, 4), Q(1, 4), 1), Kind.LEFT_CE), 9))
# Past the settle index the target alternates above and below 1/4.  Step 5 hits
# index 8, two past step 4's index 6: a routing bound one lower stops at 7.
@example(case=(SolovayWitness(StagedPartialFunction(
    DyadicEnumeration(), StageSchedule(0, 0), ValueRule(Q(1, 4), ZERO)), Q(1, 4)),
    Approximation(AlternatingDyadic(Q(1, 4), Q(1, 8), 2)), 78))
@given(case=constructions)
def test_a_whole_construction_equals_the_oracle(case):
    """Every step of a construction to depth 8 is the oracle's minimal hit, and
    the step it exhausts at, if any, has no hit within the budget."""
    w, raw, budget = case
    trace = build_s2a_from_solovay(w, raw, 8, budget)
    for prev, rec in zip(trace.steps, trace.steps[1:]):
        assert oracle_min_hit(rec.n, prev.index, w, trace.target, budget) == rec
    k = len(trace.steps)  # the first step not built
    if trace.exhausted is None:
        assert k == 9
    else:
        assert trace.exhausted == (k, budget) and k >= 1
        assert oracle_min_hit(k, trace.steps[-1].index, w, trace.target, budget) is None


@settings(FUZZ, max_examples=200)
@given(w=staged_witnesses(), raw=targets, budget=st.integers(0, 100), past=st.integers(0, 3))
def test_a_step_no_hop_can_meet_exhausts_before_any_stage(w, raw, budget, past):
    """Step n >= m - 1, m the budget's scale, returns None with the domain at stage 0.

    Every point that can enter by the budget is exact at 2**-m, so no hop
    between two of them is below the gap limit 2**-(n+1); the oracle, which
    scans the stages, finds no hit either.
    """
    b = prepended(raw)
    domain = _Domain(w, b, budget)
    n = max(1, domain.m - 1 + past)
    assert search_step(n, 0, domain) is None
    assert domain.stage == 0
    assert oracle_min_hit(n, 0, w, b, budget) is None


unit_fractions = st.one_of(st.integers(1, 2 ** 300),
                           st.integers(0, 300).map(lambda k: 1 << k)).flatmap(
    lambda den: st.integers(0, den).map(lambda num: Q(num, den)))


@settings(max_examples=1000, deadline=None)
@given(b=unit_fractions, m=st.integers(1, 64), data=st.data())
def test_keys_order_values_against_dyadics_exactly(b, m, data):
    near = math.floor(b * 2 ** m)
    x = data.draw(st.one_of(st.integers(0, 2 ** m), st.integers(near - 2, near + 2)))
    target = prepended(_constant(b))
    fl, ce = target.keys(1, m)
    point = Q(x, 2 ** m)
    assert (b < point) == (fl < x)
    assert (b <= point) == (ce <= x)
    assert (b >= point) == (fl >= x)
    assert (b > point) == (ce > x)
    assert (fl == ce) == (b * 2 ** m == near)
    assert target.term(1) == b
    if 1 << (m - 1) <= MAX_STAGE_BUDGET:  # a larger budget builds no domain
        domain = _Domain(SolovayWitness(StagedPartialFunction(), Q(1)), target, 1 << (m - 1))
        assert domain.m == m
        domain.start_step(m - 1)
        domain.enter(1)
        assert domain.keys(1) == (fl, ce)


def _all_points(domain):
    """Every inserted (x, j), sorted, read off the occupancy, x at the scale 2**m."""
    return [(x, domain.index[x]) for x, on in enumerate(domain.occ) if on]


def _walked_reach_plus_gap(domain):
    """reach + gap by a walk from the point 0 over every point."""
    pts = [x for x, _ in _all_points(domain)]
    assert pts[0] == 0
    k = 0
    while k + 1 < len(pts) and pts[k + 1] - pts[k] < domain.gap:
        k += 1
    return pts[k] + domain.gap


@settings(FUZZ, max_examples=200)
@given(w=staged_witnesses(), depth=st.integers(1, 6), budget=st.integers(0, 60),
       data=st.data())
def test_reach_is_the_walk_from_zero(w, depth, budget, data):
    """The incrementally kept reach equals a fresh walk after every run and step.

    Steps 1..depth start in order on one domain, as in a construction,
    and each enters a drawn number of runs of drawn lengths up to the
    budget.  Only the steps n <= m - 2 that a search starts are started,
    and only once the domain holds the point 0: as search_step does, the
    stage where q_0 enters is entered before step 1 starts.
    """
    domain = _Domain(w, prepended(_constant(Q(1, 2))), budget)
    if (s0 := max(1, w.g.schedule.stage_of(0))) > budget:
        return  # search_step returns None before it starts a step
    domain.enter(s0)
    for n in range(1, min(depth, domain.m - 2) + 1):
        domain.start_step(n)
        assert domain.reach + domain.gap == _walked_reach_plus_gap(domain)
        _assert_occupancy_holds_the_domain(w, domain)
        for _ in range(data.draw(st.integers(0, 4))):
            if domain.stage == budget:
                break
            domain.enter(data.draw(st.integers(domain.stage + 1, budget)))
            assert domain.reach + domain.gap == _walked_reach_plus_gap(domain)
            _assert_occupancy_holds_the_domain(w, domain)


def _assert_occupancy_holds_the_domain(w, domain):
    """The occupancy holds each point j <= stage defined by then exactly once,
    with its index, one slot per integer below 2**m; with no search run in
    the step, every point is live."""
    s = domain.stage
    expected = sorted((w.g.enumeration.scaled(j, domain.m), j) for j in range(s + 1)
                      if (st := w.g.schedule.stage_of(j)) is not None and st <= s)
    if s == 0:
        expected = []  # stage 0 inserts nothing; q_0 arrives when stage 1 is entered
    assert _all_points(domain) == expected
    assert domain.occ.count(1) == len(expected) and set(domain.occ) <= {0, 1}
    assert len(domain.occ) == len(domain.index) == 1 << domain.m
    assert domain.live == domain.occ


class StageByStage:
    """The domain's points entered one stage at a time, the reference for runs.

    Stage t inserts q_t at once when its definition stage has arrived; a
    point defined later waits in a pending heap until that stage.  Every
    insert moves the reach when it lands less than one gap past it.  The
    reach is walked from the slot 0, as the domain's is, so it is 0 until
    a point lands within one gap of it, with or without q_0.
    """

    def __init__(self, g, m, gap):
        self.g, self.m, self.gap = g, m, gap
        self.stage = 0
        self.pending = [(g.schedule.stage_of(0), 0)]  # (definition stage, j), undefined yet
        self.occ, self.live = bytearray(1 << m), bytearray(1 << m)
        self.index = [0] * (1 << m)
        self.reach = 0

    def advance(self):
        """Enter the next stage; return the least point it inserts, if any."""
        g, pending, m = self.g, self.pending, self.m
        t = self.stage = self.stage + 1
        low = None
        if (st := g.schedule.stage_of(t)) is not None:
            if st <= t:
                low = g.enumeration.scaled(t, m)
                self.insert(t, low)
            else:
                heapq.heappush(pending, (st, t))
        while pending and pending[0][0] <= t:
            j = heapq.heappop(pending)[1]
            x = g.enumeration.scaled(j, m)
            self.insert(j, x)
            if low is None or x < low:
                low = x
        return low

    def insert(self, j, x):
        self.occ[x] = self.live[x] = 1
        self.index[x] = j
        reach = self.reach
        if reach < x < reach + self.gap:
            k = self.occ.find(bytes(self.gap - 1), reach + 1)
            self.reach = k - 1 if k >= 0 else self.occ.rfind(1)


def _domain_state(d):
    """occ and live bytes, stage, reach, and (slot, index) at each occupied slot."""
    return (bytes(d.occ), bytes(d.live), d.stage, d.reach,
            [(x, d.index[x]) for x, on in enumerate(d.occ) if on])


@settings(FUZZ, max_examples=300)
@given(w=staged_witnesses(), budget=st.integers(2, 80), data=st.data())
def test_a_run_equals_its_stages(w, budget, data):
    """enter(e) leaves the domain as entering stage+1..e one at a time does.

    Runs of drawn lengths come with a live point cleared now and then, as
    a ladder search clears a final.
    """
    domain = _Domain(w, prepended(_constant(Q(1, 2))), budget)
    domain.start_step(data.draw(st.integers(0, domain.m - 1)))
    ref = StageByStage(w.g, domain.m, domain.gap)
    for _ in range(data.draw(st.integers(1, 12))):
        op = data.draw(st.sampled_from(["enter", "enter", "clear"]))
        if op == "enter" and domain.stage < budget:
            e = data.draw(st.integers(domain.stage + 1, budget))
            for _ in range(e - ref.stage):
                ref.advance()
            domain.enter(e)
        elif op == "clear" and (points := [x for x, on in enumerate(domain.live) if on]):
            x = data.draw(st.sampled_from(points))
            domain.live[x] = ref.live[x] = 0
        assert _domain_state(domain) == _domain_state(ref)


def _entered_at(w, slope, budget, data, least_stage=0):
    """A domain of w's points with the schedule's slope replaced, in a drawn
    step with a gap limit of at least 2, entered to a drawn stage below the
    budget, with its stage-by-stage reference at the same stage."""
    g = w.g.replace(schedule=w.g.schedule.replace(slope=slope))
    domain = _Domain(w.replace(g=g), prepended(_constant(Q(1, 2))), budget)
    domain.start_step(data.draw(st.integers(0, domain.m - 2)))
    ref = StageByStage(g, domain.m, domain.gap)
    stage = data.draw(st.integers(min(least_stage, budget - 1), budget - 1))
    if stage:
        domain.enter(stage)
    for _ in range(stage):
        ref.advance()
    return domain, ref


@settings(FUZZ, max_examples=300)
@given(w=staged_witnesses(), slope=st.integers(0, 3), budget=st.integers(4, 80),
       data=st.data())
def test_first_below_names_the_first_stage_that_inserts_below_a_slot(w, slope, budget, data):
    """first_below(x, hi) is hi or, if earlier, the first stage after the
    domain's at which the stage-by-stage reference inserts a point below
    the slot x.  The overrides, "never" among them, and the prefix enter
    one point at a time, the affine points by levels."""
    domain, ref = _entered_at(w, slope, budget, data)
    x = data.draw(st.integers(0, 1 << domain.m))
    hi = data.draw(st.integers(domain.stage + 1, budget))
    expected = hi
    for t in range(domain.stage + 1, hi):
        if (low := ref.advance()) is not None and low < x:
            expected = t
            break
    state = _domain_state(domain)
    assert domain.first_below(x, hi) == expected
    assert _domain_state(domain) == state


@settings(FUZZ, max_examples=300)
@given(w=staged_witnesses(), slope=st.integers(0, 3), budget=st.integers(4, 80),
       data=st.data())
def test_first_reach_names_the_first_stage_the_reach_gets_to_a_slot(w, slope, budget, data):
    """first_reach(r + gap - 1, hi) is hi or, if earlier, the first stage
    after the domain's at which the stage-by-stage reference's reach is at
    least r, for any r past the reach: the stage at which a waiting
    candidate with fl = r + gap - 1 wakes.  r is drawn at times from the
    reaches the reference passes through, where the hole that ends the
    chain just reaches slot fl - 1.  Its probes enter nothing."""
    domain, ref = _entered_at(w, slope, budget, data, max(1, w.g.schedule.stage_of(0)))
    top = (1 << domain.m) - domain.gap + 1  # fl <= 2**m
    if not domain.occ[0] or domain.reach >= top:
        return  # q_0 is not in by the budget, or no key lies a gap past the reach
    hi = data.draw(st.integers(domain.stage + 1, budget))
    stages = range(domain.stage + 1, hi)
    reaches = []  # the reference's reach at each stage in stages
    for _ in stages:
        ref.advance()
        reaches.append(ref.reach)
    passed = sorted({x for x in reaches if domain.reach < x <= top})
    r = data.draw(st.integers(domain.reach + 1, top)
                  | (st.sampled_from(passed) if passed else st.nothing()))
    expected = next((t for t, x in zip(stages, reaches) if x >= r), hi)
    state = _domain_state(domain)
    assert domain.first_reach(r + domain.gap - 1, hi) == expected
    assert _domain_state(domain) == state


@pytest.mark.parametrize("budget", [MAX_STAGE_BUDGET + 1, 1 << 63])
def test_a_budget_past_the_largest_raises_before_allocating(budget):
    """No mode passes a budget above MAX_STAGE_BUDGET, so a domain refuses
    one before it sizes its 2**m slots.  Every search runs on a domain, so
    this is the one place a budget is refused."""
    w = _halving_witness(schedule=StageSchedule(0, 0))
    b = prepended(_constant(Q(3, 8)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="stage budget"):
            _Domain(w, b, budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("n,prev_index", [(1, 0), (2, 3)])
def test_an_early_hit_at_a_huge_budget_equals_the_oracle(n, prev_index):
    """A standalone search at the largest budget hits within a few stages."""
    w = _halving_witness(schedule=StageSchedule(0, 0))
    b = prepended(_constant(Q(3, 8)))
    budget = MAX_STAGE_BUDGET
    rec = fresh_search(n, prev_index, w, b, budget)
    assert rec is not None and rec.stage_found < 64
    assert oracle_min_hit(n, prev_index, w, b, budget) == rec


def test_log_rejects_a_point_not_exact_at_its_scale():
    """A point finer than the scale raises instead of rounding."""
    domain = _Domain(SolovayWitness(StagedPartialFunction(), Q(1)), _constant(Q(1, 2)), 1)
    assert domain.m == 1
    domain.start_step(0)
    domain.enter(1)
    assert [(j, x, Q(*domain.pair(x))) for x, j in _all_points(domain)] == [
        (0, 0, ZERO), (1, 1, Q(1, 4))]
    with pytest.raises(ValueError, match="not exact"):
        domain.enter(2)  # q_2 = 1/4


def member_first_ladder(n, i, fl, ce, state, spans=None):
    """_lex_first_ladder walking one member at a time, the reference for its runs.

    Each distance class's least member is found by a find over the class's
    window and a clause (v) test of each point in it in turn, from the
    window's start, and each g-value is read as rule.ratio(j, *dyadic(j)),
    apart from the domain's cache.  spans, if given, collects the number of
    slots each class's window spans.
    """
    gap, occ, live, index = state.gap, state.occ, state.live, state.index
    g, c = state.g, state.c

    def pair(x):
        j = index[x]
        return g.rule.ratio(j, *g.enumeration.dyadic(j))

    cn, cds = c.numerator, c.denominator << (state.m + 1)

    def pair_ok(f, k):
        (pf, qf), (pk, qk) = pair(f), pair(k)
        num = pf * qk - pk * qf
        return 0 < num and num * cds < cn * qf * qk * (((f - k) << 1) + gap)

    def ladder_to(f):
        chain = []
        top = hi = f
        while (lo := top - gap + 1) > 0 or not chain:
            start = lo if lo > 0 else 1
            if spans is not None:
                spans.append(max(0, hi - start))
            k = occ.find(1, start, hi)
            while k >= 0 and not pair_ok(f, k):
                k = occ.find(1, k + 1, hi)
            if k < 0:
                return None
            chain.append(k)
            top, hi = k, lo
        return [0] + chain[::-1] + [f]

    best = None
    f = max(0, fl - gap + 1) - 1
    while (f := live.find(1, f + 1, ce)) >= 0:
        if not pair_ok(f, 0):
            live[f] = 0
            continue
        ladder = ladder_to(f)
        if ladder is not None and (best is None or (len(ladder), ladder) < (len(best), best)):
            best = ladder
    if best is None:
        return None
    b = state.b.term(i)
    tup = RequirementTuple(tuple(index[x] for x in best), tuple(best), 1 << state.m,
                           tuple(map(pair, best)))
    return (b, tup) if check_requirement(n, b, c, tup) is None else None


def _both_walks(w, raw, stage, n):
    """The results of _lex_first_ladder and member_first_ladder for each
    distinct key of the target on one drawn domain entered to the stage, in
    step min(n, m - 2), each walk on its own copy; the bytes _run compares;
    and the slots that the reference's class windows span."""
    domain = _Domain(w, prepended(raw), stage)
    if max(1, w.g.schedule.stage_of(0)) > stage or domain.m < 3:
        return [], 0, 0  # no point 0, or no step with a gap limit of at least 2
    domain.enter(stage)
    n = min(n, domain.m - 2)
    domain.start_step(n)
    ref = copy.deepcopy(domain)
    compared, spans, pairs = 0, [], []
    real = construction._repeats

    def counting(occ, a, z, d):
        nonlocal compared
        compared += z - a
        return real(occ, a, z, d)

    for i in range(1, min(domain.n0 + 2, 40) + 1):  # later indices repeat these keys
        fl, ce = domain.keys(i)
        with mock.patch.object(construction, "_repeats", counting):
            got = _lex_first_ladder(n, i, fl, ce, domain)
        pairs.append((got, member_first_ladder(n, i, fl, ce, ref, spans)))
        assert domain.live == ref.live
    return pairs, compared, sum(spans)


def _lattice_witness(values=(), c=Q(1, 2)):
    """g = q/2 with value-table overrides, each point q_j entering at stage j."""
    return SolovayWitness(_halving_witness(values, StageSchedule(0, 0)).g, c)


# Stage 63 holds every slot at the scale 2**6, so step 3 (gap 4) walks from the
# final 29 in hops of 3.  g(7/32) raised by 1/256 still passes clause (v): its
# slot 14 ends the first run, the member step takes it, and a second run
# goes on from it.
RUN_OVERRIDE = (_lattice_witness(((19, Q(29, 256)),)), 63, 3)
# Stage 80 holds the even slots at 2**7 and the level-7 points up to slot 33:
# step 4 (gap 4) walks from the final 62 in hops of 2 until the window reaches
# slot 33, where the repeat breaks and a run in hops of 3 takes over.
RUN_BREAK = (_lattice_witness(), 80, 4)
# c = 7/16 < 1/2 fails clause (v) for members 14 slots or more below the final,
# and g(0) = 1/8 lets the final 29 pass it against 0 all the same: the run from
# 26 must stop after 17, found by galloping to 7 members and bisecting back.
RUN_FAILS = (_lattice_witness(((0, Q(1, 8)),), Q(7, 16)), 63, 3)


@pytest.mark.parametrize("case,runs", [
    (RUN_OVERRIDE, [(26, 3, 3), (14, 3, 4), (27, 3, 8), (28, 3, 9)]),
    (RUN_BREAK, [(60, 2, 12), (33, 3, 10)]),
    (RUN_FAILS, [(26, 3, 3), (27, 3, 3), (28, 3, 3)]),
])
def test_the_pinned_walks_take_their_runs(case, runs):
    """(k, d, members taken) of each run tried in the pinned walks below, on
    the target 1/2: the first run of each walk ends where its comment says."""
    (w, stage, n), taken = case, []
    real = construction._run

    def counting(occ, k, d, *args):
        taken.append((k, d, real(occ, k, d, *args)))
        return taken[-1][2]

    with mock.patch.object(construction, "_run", counting):
        pairs, _, _ = _both_walks(w, _constant(Q(1, 2)), stage, n)
    assert taken[:len(runs)] == runs
    assert all(got == ref for got, ref in pairs)


@FUZZ
@example(w=RUN_OVERRIDE[0], raw=_constant(Q(1, 2)), stage=63, n=3)
@example(w=RUN_BREAK[0], raw=_constant(Q(1, 2)), stage=80, n=4)
@example(w=RUN_FAILS[0], raw=_constant(Q(1, 2)), stage=63, n=3)
@given(w=staged_witnesses(), raw=targets, stage=st.integers(1, 127), n=st.integers(1, 5))
def test_runs_give_the_member_walk_ladders(w, raw, stage, n):
    """_lex_first_ladder equals the member-by-member reference, ladder,
    b_i and cleared finals, on drawn domains: permuted prefixes, value
    and stage overrides, and levels partly entered."""
    for got, ref in _both_walks(w, raw, stage, n)[0]:
        assert got == ref


@settings(FUZZ, max_examples=200)
# q_2 = 1/4 never enters, which leaves a hole in the domain: comparing from the
# run's top at every test compares 536 bytes here, over four times the 129 slots.
@example(w=SolovayWitness(StagedPartialFunction(
             DyadicEnumeration(), StageSchedule(0, 0, ((2, NEVER),)), ValueRule(Q(1, 4), ZERO)),
             Q(1, 4)),
         raw=Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE), stage=46, n=4)
@given(w=staged_witnesses(), raw=targets, stage=st.integers(1, 127), n=st.integers(1, 5))
def test_run_checks_compare_a_bounded_number_of_bytes(w, raw, stage, n):
    """The bytes the runs compare stay within four times the slots of the
    class windows that the member walk's finds span.

    A run from k after a hop d that takes t members compares at most
    gap - d + 4td bytes (see _run), and stands for t class windows of d
    slots and k's own, whose empty slots before k number gap - d - 1.
    Comparing from the run's top at every galloping and bisecting test
    compared up to six times these slots on such draws.
    """
    _, compared, spans = _both_walks(w, raw, stage, n)
    assert compared <= 4 * spans


@settings(FUZZ, max_examples=200)
@example(w=SolovayWitness(StagedPartialFunction(
    DyadicEnumeration((Q(0), Q(1, 4), Q(1, 2), Q(3, 4))), StageSchedule(0, 0),
    ValueRule(Q(1, 2), ZERO, ((0, Q(1, 8)), (2, Q(1, 16))))), Q(1, 2)), stage=40)
@given(w=staged_witnesses(), stage=st.integers(1, 127))
def test_a_pair_read_from_its_slot_is_the_value_rules(w, stage):
    """read gives each inserted point's pair from its slot, as
    rule.ratio(j, *dyadic(j)) gives it, and caches it under j: on permuted
    prefixes, value overrides and the point 0."""
    domain = _Domain(w, prepended(_constant(Q(1, 2))), stage)
    domain.enter(stage)
    slots = [x for x, _ in _all_points(domain)]
    js = [domain.index[x] for x in slots]
    assert (0 in js) == (max(1, w.g.schedule.stage_of(0)) <= stage)
    rule, dyadic = w.g.rule, w.g.enumeration.dyadic
    expected = tuple(rule.ratio(j, *dyadic(j)) for j in js)
    assert domain.read(slots) == expected
    assert domain.pairs == dict(zip(js, expected))
    assert [domain.pair(x) for x in slots] == list(expected)
