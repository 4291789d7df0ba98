from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from solred import construction, harness
from solred.approximations import (
    AffineDyadic,
    Approximation,
    Kind,
    Table,
)
from solred.construction import (
    RequirementTuple,
    WitnessImage,
    build_s2a_from_solovay,
    check_requirement,
    mirror_s2a,
    search_step,
)
from solred.errors import InvalidScenario
from solred.harness import trace_payload, verify_mirror, verify_prop1
from solred.oracle import oracle_min_hit
from solred.reals import ZERO, ExactRational, enclose
from solred.scenario import format_fraction, load_scenario
from solred.witnesses import (
    NEVER,
    DyadicEnumeration,
    S2aVerdict,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
    check_strict_at,
)

from conftest import (
    INVALID_WITNESS_NAMES,
    VALID_WITNESS_NAMES,
    box_fractions,
    corpus_path,
    count_fraction_points,
    fresh_search,
    integer_ladder,
    prepended,
)


def halving(points):
    """Fraction points and their halves, the halving rule's g-values."""
    pts = tuple(Q(p) for p in points)
    return pts, tuple(p / 2 for p in pts)


def ladder(points, values):
    return integer_ladder(range(len(points)), points, values)


def halving_ladder(points):
    return ladder(*halving(points))


def witness(u="1/2", c="1", slope=0, offset=0, overrides=()):
    g = StagedPartialFunction(
        DyadicEnumeration(),
        StageSchedule(slope, offset, tuple(overrides)),
        ValueRule(Q(u), Q(0)))
    return SolovayWitness(g, Q(c))


def climb_to(beta_str):
    """Left-c.e. approximation beta - beta * 2**-n toward a rational target."""
    beta = Q(beta_str)
    return Approximation(AffineDyadic(beta, beta, 1), Kind.LEFT_CE)


QUARTER = ExactRational(Q(1, 4))
HALF = ExactRational(Q(1, 2))


def test_check_requirement_satisfied_example():
    tup = halving_ladder(["0", "3/16", "3/8"])
    assert check_requirement(1, Q(1, 2), Q(1), tup) is None


def test_check_requirement_window_clause():
    tup = halving_ladder(["0", "3/16", "3/8"])
    assert check_requirement(1, Q(3, 8), Q(1), tup) == 2
    low = halving_ladder(["0", "1/8", "15/64"])
    assert check_requirement(1, Q(1, 2), Q(1), low) == 2


def test_check_requirement_gap_clause_is_strict():
    tup = halving_ladder(["0", "1/4", "3/8"])
    assert check_requirement(1, Q(1, 2), Q(1), tup) == 4


def test_check_requirement_short_ladder():
    tup = halving_ladder(["0", "3/8"])
    assert check_requirement(1, Q(1, 2), Q(1), tup) == 1


def test_check_requirement_ordering_clause():
    off_origin = halving_ladder(["1/16", "3/16", "3/8"])
    assert check_requirement(1, Q(1, 2), Q(1), off_origin) == 3
    plateau = halving_ladder(["0", "3/16", "3/16", "3/8"])
    assert check_requirement(1, Q(1, 2), Q(1), plateau) == 3


def test_check_requirement_value_clause():
    flat = ladder(["0", "3/16", "3/8"], ["0", "3/16", "3/16"])
    assert check_requirement(1, Q(1, 2), Q(1), flat) == 5
    steep = ladder(["0", "3/16", "3/8"], ["0", "1/32", "1/2"])
    assert check_requirement(1, Q(1, 2), Q(1), steep) == 5


def test_requirement_tuple_shape_validation():
    with pytest.raises(ValueError):
        RequirementTuple((0,), (0, 1), 4, ((0, 1),))
    with pytest.raises(ValueError):
        RequirementTuple((), (), 1, ())
    with pytest.raises(ValueError):
        RequirementTuple((0,), (0,), 0, ((0, 1),))
    with pytest.raises(ValueError):
        RequirementTuple((0,), (0,), 1, ((1, -2),))


# (point, g-value numerator, g-value denominator) of one ladder member
members = st.lists(st.tuples(st.integers(-(1 << 24), 1 << 24), st.integers(-(1 << 40), 1 << 40),
                             st.integers(1, 1 << 40)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@example(m=4, k=3, raw=[(0, 0, 1), (2, 1, 8), (4, 3, 16)])
@example(m=0, k=1, raw=[(0, 0, 1)])
@given(m=st.integers(0, 30), k=st.integers(1, 40), raw=members)
def test_tuples_at_scale_m_and_m_plus_k_compare_equal(m, k, raw):
    """The search and the oracle give one ladder at different scales 2**m;
    both tuples hold it at its least exact scale, so they are equal."""
    indices, values = tuple(range(len(raw))), tuple((p, q) for _, p, q in raw)
    points = tuple(x for x, _, _ in raw)
    coarse = RequirementTuple(indices, points, 1 << m, values)
    fine = RequirementTuple(indices, tuple(x << k for x in points), 1 << (m + k), values)
    assert coarse == fine and hash(coarse) == hash(fine)
    assert math.gcd(coarse.scale, *coarse.points) == 1
    assert [Q(x, coarse.scale) for x in coarse.points] == [Q(x, 1 << m) for x in points]


@settings(max_examples=300, deadline=None)
@example(m=3, raw=[(0, 0, 5), (4, 6, 3), (-2, -6, 4), (7, -7, 1), (8, 1 << 40, 1)])
@given(m=st.integers(0, 30), raw=members)
def test_ladder_payload_writes_str_of_each_fraction(m, raw):
    """Points over 2**m and unreduced g-value pairs, 0, integers and negative
    numerators among them, are written as str(Fraction) writes them."""
    tup = RequirementTuple(tuple(range(len(raw))), tuple(x for x, _, _ in raw), 1 << m,
                           tuple((p, q) for _, p, q in raw))
    assert harness.ladder_payload(tup, {}) == {
        "indices": list(range(len(raw))),
        "points": [str(Q(x, 1 << m)) for x, _, _ in raw],
        "values": [str(Q(p, q)) for _, p, q in raw],
    }


def test_a_trace_writes_each_member_from_its_own_fractions(scenarios, built):
    """A trace's ladders share indices, and their texts come from one memo
    per trace: every member is still written as str(Fraction) of its own
    point and g-value.  The oracle result writes its one ladder with a
    fresh memo, and writes step 3's ladder as the trace does."""
    for name, trace in built.items():
        sc = scenarios[name]
        rows = trace_payload(sc, trace)["steps"]
        held = [j for rec in trace.steps[1:] for j in rec.tup.indices]
        assert len(set(held)) < len(held), name
        for rec, row in zip(trace.steps[1:], rows[1:]):
            tup = rec.tup
            assert row["ladder"] == {"indices": list(tup.indices),
                                     "points": [str(Q(x, tup.scale)) for x in tup.points],
                                     "values": [str(Q(p, q)) for p, q in tup.values]}, name
        hit = oracle_min_hit(3, trace.steps[2].index, sc.solovay_witness, trace.target,
                             sc.stage_budget)
        assert harness.ladder_payload(hit.tup, {}) == rows[3]["ladder"], name


def fraction_check_requirement(n, b, c, points, values):
    """Reference: check_requirement as it was, in Fraction arithmetic, on
    the ladder's Fraction points and g-values."""
    if n < 0:
        raise ValueError("step number must be >= 0")
    ell = len(points) - 1
    if ell < 2:
        return 1
    gap_limit = Q(1, 2 ** (n + 1))
    last = points[-1]
    if not (b - gap_limit < last < b):
        return 2
    if points[0] != ZERO:
        return 3
    for k in range(ell):
        if points[k] >= points[k + 1]:
            return 3
    for k in range(ell):
        if points[k + 1] - points[k] >= gap_limit:
            return 4
    value_slack = Q(1, 2 ** (n + 2))
    g_last = values[-1]
    for k in range(ell):
        diff = g_last - values[k]
        if not (ZERO < diff < c * (last - points[k] + value_slack)):
            return 5
    return None


denominators = st.sampled_from([1, 2, 3, 5, 7, 12, 64, 3 ** 5])
inside = st.builds(lambda d, k: Q(k % d + 1, d + 1), denominators, st.integers(0, 10 ** 6))


@st.composite
def requirement_cases(draw, accepted=False):
    """(n, b, c, points, values) drawn as shares of step n's own bounds.

    Each gap is a share of the gap limit 2**-(n+1), b lies a share of
    it above the last point, and each g_last - g_k is a share of its
    clause-(v) bound c * (last - q_k + 2**-(n+2)).  Every share is
    strictly inside (0, 1), except that one case may put one share on an
    end of its bound (0 or 1) or just outside, or move the first point
    off 0.  With accepted, there is no such edit, ell >= 2 and c > 0, so
    the ladder meets the step-n requirement.  Points and g-values are
    Fractions, not all dyadic.
    """
    n = draw(st.integers(0, 20))
    gap_limit = Q(1, 2 ** (n + 1))
    ell = draw(st.integers(2 if accepted else 0, 6))
    gaps = [draw(inside) for _ in range(ell)]
    lift = draw(inside)
    cuts = [draw(inside) for _ in range(ell)]
    start = ZERO
    where = "nowhere" if accepted else draw(
        st.sampled_from(["nowhere", "gap", "window", "value", "start"]))
    edge = draw(st.sampled_from([Q(0), Q(1), Q(-1, 7), Q(8, 7)]))
    if where == "gap" and ell:
        gaps[draw(st.integers(0, ell - 1))] = edge
    elif where == "window":
        lift = edge
    elif where == "value" and ell:
        cuts[draw(st.integers(0, ell - 1))] = edge
    elif where == "start":
        start = gap_limit / 7
    points = [start]
    for gap in gaps:
        points.append(points[-1] + gap * gap_limit)
    b = points[-1] + lift * gap_limit
    c = draw(st.builds(Q, st.integers(1, 9), denominators))
    if not accepted:
        c *= draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, -1]))
    g_last = draw(st.builds(Q, st.integers(0, 50), denominators))
    values = [g_last - c * (points[-1] - p + gap_limit / 2) * cut
              for p, cut in zip(points, cuts)]
    return n, b, c, tuple(points), (*values, g_last)


@settings(max_examples=1000, deadline=None)
@example(case=(1, Q(3, 8), Q(1), *halving(["0", "3/16", "3/8"])), other=1)  # last = b
@example(case=(1, Q(5, 8), Q(1), *halving(["0", "3/16", "3/8"])), other=1)  # last = b - 2**-2
@example(case=(1, Q(1, 2), Q(1), *halving(["0", "1/4", "3/8"])), other=1)  # a gap of 2**-2
# g_last - g_0 = 0, and g_last - g_0 = c * (last - 0 + 2**-3)
@example(case=(1, Q(1, 2), Q(1), (Q(0), Q(3, 16), Q(3, 8)), (Q(1, 2), Q(1, 4), Q(1, 2))),
         other=0)
@example(case=(1, Q(1, 2), Q(1), (Q(0), Q(3, 16), Q(3, 8)), (Q(0), Q(1, 4), Q(1, 2))), other=0)
@given(case=requirement_cases(), other=st.integers(0, 20))
def test_check_requirement_equals_the_fraction_reference(case, other):
    """check_requirement on the integer tuple against the reference on the
    drawn Fractions themselves."""
    n, b, c, points, values = case
    tup = ladder(points, values)
    for step in (n, other):
        assert (check_requirement(step, b, c, tup)
                == fraction_check_requirement(step, b, c, points, values))


@settings(max_examples=300, deadline=None)
@given(case=requirement_cases(accepted=True))
def test_a_ladder_accepted_at_step_n_is_accepted_at_every_earlier_step(case):
    """Each clause of step n implies the same clause of step n - 1 when c > 0.

    The construction's single sweep rests on this: step n resumes at the
    stage where step n - 1 hit.
    """
    n, b, c, points, values = case
    tup = ladder(points, values)
    assert check_requirement(n, b, c, tup) is None
    assert all(check_requirement(k, b, c, tup) is None for k in range(n))


def test_search_step_first_hit_on_halving_witness():
    w = witness()
    b = prepended(climb_to("1/2"))
    rec = fresh_search(1, 0, w, b, 100)
    assert rec is not None
    assert (rec.stage_found, rec.index) == (4, 3)
    assert (rec.tup.points, rec.tup.scale) == ((0, 1, 2), 8)  # 0, 1/8, 1/4
    assert rec.value == Q(*rec.tup.values[-1]) == Q(1, 8)
    assert check_requirement(1, b.term(rec.index), w.c, rec.tup) is None


def count_searches(monkeypatch, name, reads=None):
    """(ladder searches, exhausted step or None) of a full-depth construct.

    Given a list, each search appends (step, stage, keys of its b_i) to it.
    """
    calls = 0
    real = construction._lex_first_ladder

    def counting(n, i, fl, ce, state):
        nonlocal calls
        calls += 1
        if reads is not None:
            reads.append((n, state.stage, state.keys(i)))
        return real(n, i, fl, ce, state)

    monkeypatch.setattr(construction, "_lex_first_ladder", counting)
    sc = load_scenario(corpus_path(name))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, sc.depth,
                                   sc.stage_budget)
    return calls, None if trace.exhausted is None else trace.exhausted[0]


def test_ladder_search_work_is_pinned():
    """Each file's searches at its shipped parameters, walking event stages only.

    Searching every ready candidate at every stage cost 78,870 searches on
    invalid_small_c; each step of a valid witness needs exactly one
    search.  Each event stage searches every ready candidate again: a skip
    of the candidates with no point landed below b_i since their last miss
    saved no search on any of these files.  A step resumes at the stage
    where the step before it hit, so the stages before that are not
    searched again: re-running them cost 11,674 searches.  Of the
    candidates with equal keys (fl, ce) only the least is routed: routing
    every one of them cost 11,635 searches.  A candidate whose window
    (b_i - gap, b_i) holds no live final misses unsearched: searching those
    cost 245 searches in all.
    """
    expected = {**dict.fromkeys(VALID_WITNESS_NAMES, (12, None)),
                "invalid_small_c": (46, 3), "invalid_g_above": (6, None)}
    counts = {}
    for name in expected:
        with pytest.MonkeyPatch.context() as monkeypatch:
            counts[name] = count_searches(monkeypatch, name)
    assert counts == expected


def test_runs_take_the_ladder_members_on_linear_basic(monkeypatch):
    """A run of equal hops takes many distance classes in one step.

    linear_basic's 12 ladders hold 4,088 points.  Each ladder's walk finds
    one member by a find over its class window and tries a run after it,
    and 9 of those 12 runs take the other 4,052 members between 0 and the
    final: walking them one at a time cost one find and one clause (v)
    test each.
    """
    runs = []
    real = construction._run

    def counting(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(construction, "_run", counting)
    sc = load_scenario(corpus_path("linear_basic"))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, sc.depth,
                                   sc.stage_budget)
    assert sum(len(rec.tup.points) for rec in trace.steps[1:]) == 4088
    assert (len(runs), sum(t > 0 for t in runs), sum(runs)) == (12, 9, 4052)


@pytest.mark.parametrize("budget,searches,finals", [(400, 46, 53), (8192, 626, 633),
                                                    (65536, 4712, 4719)])
def test_finals_walk_is_pinned(monkeypatch, budget, searches, finals):
    """A final that fails clause (v) against 0 is walked once per step.

    invalid_small_c exhausts at step 3.  Testing every final in the
    window against 0, its searches walked 3,315 finals at budget 400 and
    1,945,656 at 8,192, of which 24 passed.  A final that fails is cleared
    from the step's live bytes, so later searches of the step scan past it.
    Each final walked is one find of the live bytes that lands on it, and
    each search adds one more: search_step's pre-check, which finds a live
    final in the window before every search.  The searches whose window
    holds no live final, which walk none, are skipped: searching those too
    made 256 and 9,241 searches at budgets 400 and 8,192.
    """
    found = calls = 0

    class CountingLive(bytearray):
        def find(self, *args):
            nonlocal found
            k = super().find(*args)
            found += k >= 0
            return k

    real_start = construction._Domain.start_step

    def start_step(self, n):
        real_start(self, n)
        self.live = CountingLive(self.live)

    real_search = construction._lex_first_ladder

    def counting(*args):
        nonlocal calls
        calls += 1
        return real_search(*args)

    monkeypatch.setattr(construction._Domain, "start_step", start_step)
    monkeypatch.setattr(construction, "_lex_first_ladder", counting)
    sc = load_scenario(corpus_path("invalid_small_c"))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, 3, budget)
    assert trace.exhausted == (3, budget)
    assert (calls, found - calls) == (searches, finals)


@pytest.mark.parametrize("name,enters,below,reaches,searches", [
    ("linear_basic", 29, 9, 9, 12),
    ("identity_c2", 29, 9, 9, 12),
    ("staged_delay", 31, 11, 10, 12),
    ("oscillating", 29, 9, 9, 12),
    ("table_tail", 17, 11, 10, 12),
    ("scaled_alpha", 28, 9, 9, 12),
    ("invalid_small_c", 78, 63, 0, 46),
    ("invalid_g_above", 20, 3, 3, 6),
])
def test_search_event_work_is_pinned(monkeypatch, name, enters, below, reaches, searches):
    """The step search's domain calls and ladder searches at each file's own depth and budget.

    Each step enters the domain once per event stage and looks ahead with
    first_below (the next stage that inserts a point below a ready b_i)
    and first_reach (the next stage at which a waiting b_i gets ready).
    Counting a candidate with fl == reach + gap as ready cost oscillating
    17 searches; reading the greatest ready ce one slot low, from an fl,
    cost invalid_small_c 77 enters and 62 first_below calls.
    """
    calls = dict.fromkeys(("enter", "first_below", "first_reach", "search"), 0)

    def counting(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(owner, attr, wrapper)

    for method in ("enter", "first_below", "first_reach"):
        counting(construction._Domain, method, method)
    counting(construction, "_lex_first_ladder", "search")
    sc = load_scenario(corpus_path(name))
    build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, sc.depth, sc.stage_budget)
    assert tuple(calls.values()) == (enters, below, reaches, searches)


@pytest.mark.parametrize("name,n0,reads", [("oscillating", 22, 26), ("table_tail", 5, 17)])
def test_the_domain_reads_each_key_once_up_to_the_last_index_routed(monkeypatch, name, n0, reads):
    """A construction to depth 14 at stage budget 65,536 reads b_1..b_L once
    each, in ascending order, L the greatest index routed.

    Routing asks for no index past max(n0, i_{n-1} + 1) + 1, and here it
    asks past n0 + 1, n0 the target's settle index at the scale 2**17.
    Serving those indices from n0 or n0 + 1, whose keys they repeat, read
    23 keys on oscillating and 6 on table_tail.
    """
    read, asked = [], []
    real_read, real_ask = Approximation.keys, construction._Domain.keys

    def reading(self, i, m):
        read.append(i)
        return real_read(self, i, m)

    def asking(self, i):
        asked.append(i)
        return real_ask(self, i)

    monkeypatch.setattr(Approximation, "keys", reading)
    monkeypatch.setattr(construction._Domain, "keys", asking)
    sc = load_scenario(corpus_path(name))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, 14, 65536)
    assert trace.exhausted is None
    assert max(1, trace.target.settle(17)) == n0 and max(asked) > n0 + 1
    assert read == list(range(1, max(asked) + 1)) and len(read) == reads


@pytest.mark.parametrize("name", VALID_WITNESS_NAMES + INVALID_WITNESS_NAMES)
def test_no_two_searches_of_one_stage_read_the_same_keys(monkeypatch, name):
    """Equal keys give equal search outcomes, so one stage of a step searches each once."""
    reads = []
    count_searches(monkeypatch, name, reads)
    assert reads and len(set(reads)) == len(reads)


def test_prop1_image_work_is_pinned(monkeypatch):
    """prop1 evaluates each image term once; its running maximum needs no kind check.

    Re-deriving the running maximum term by term cost 41 + 861 image
    evaluations at depth 40.
    """
    calls = 0
    real = construction.WitnessImage.term

    def counting(self, n):
        nonlocal calls
        calls += 1
        return real(self, n)

    monkeypatch.setattr(construction.WitnessImage, "term", counting)
    report = verify_prop1(load_scenario(corpus_path("linear_basic")).replace(depth=40))
    assert report.sections["image"]["evaluated_terms"] == 41
    assert report.sections["image"]["monotone_violation_at"] is None
    assert calls == 41


@pytest.mark.parametrize("verify,name", [(verify_prop1, "linear_basic"),
                                          (verify_mirror, "mirror_geometric")])
def test_each_report_checks_one_kind_claim(monkeypatch, verify, name):
    """prop1 checks beta_approx's claim and mirror the left-c.e. claim, once each.

    A running maximum never decreases, and 1 - a_n rises exactly where
    a_n falls, so neither mode re-checks the sequence it derives.
    """
    calls = []
    real = harness.check_kind_prefix

    def counting(a, n_max):
        calls.append(a.kind)
        return real(a, n_max)

    monkeypatch.setattr(harness, "check_kind_prefix", counting)
    report = verify(load_scenario(corpus_path(name)).replace(depth=40))
    assert report.exit_code() == 0
    assert calls == [Kind.LEFT_CE]


def test_construction_reads_each_point_and_target_term_once(monkeypatch):
    """One log serves every step, so each b_i is read once, and only as keys.

    The 20 key reads are b_1..b_20 of the prepended target: its settle index
    at the scale 2**14 is n0 = 19 (the inner generator's 18, plus 1), and
    every later index repeats the keys of n0 or n0 + 1.  Reading every
    stage's keys cost 9,214 reads, b_1..b_9214.  An exact term
    (Approximation.term) is read once for step 0
    and once per hit.  A g-value is read as one integer pair (ValueRule.ratio)
    only when a ladder search reads its point, 2,047 points, and as an exact
    value (value_at) only for g(0) at step 0, whose pair is read once more.
    Rebuilding the domain at every step cost 18,439 value_at and 18,340
    Approximation.term calls; with one log but exact reads, 9,216 value_at
    and 9,216 Approximation.term calls; with exact g-values in the search,
    2,048 value_at calls.
    """
    calls = {"value_at": 0, "ratio": 0, "term": 0, "keys": 0}
    read = []
    keys_read = []

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(self, *args):
            calls[name] += 1
            if name == "ratio":
                read.append(args[0])
            if name == "keys":
                keys_read.append(args[0])
            return real(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    counting(StagedPartialFunction, "value_at")
    counting(ValueRule, "ratio")
    counting(Approximation, "term")
    counting(Approximation, "keys")
    sc = load_scenario(corpus_path("linear_basic"))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, sc.depth,
                                   sc.stage_budget)
    assert trace.steps[-1].stage_found == 9214
    assert trace.target.settle(14) == 19
    assert calls == {"value_at": 1, "ratio": 2048, "term": 13, "keys": 20}
    assert keys_read == list(range(1, 21))
    assert read[0] == 0 and len(set(read[1:])) == len(read) - 1  # once per point


@pytest.mark.parametrize("name,members,read", [("linear_basic", 2047, 2047),
                                                ("invalid_small_c", 4, 38)])
def test_ladder_search_builds_fractions_only_for_returned_ladders(monkeypatch, name,
                                                                  members, read):
    """The search compares g-values as integer pairs, and a returned
    ladder holds the cached pair of each member, so the one Fraction a
    step builds is its a_n.  On invalid_small_c the searches read 38
    g-values and its two ladders hold 4 points; exact g-values in the
    search built a Fraction for all 38, and Fraction members built one
    per point and one per member of each ladder.
    """
    built = 0
    real = construction.Q

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(construction, "Q", counting)
    sc = load_scenario(corpus_path(name))
    w, b = sc.solovay_witness, prepended(sc.beta_approx)
    domain = construction._Domain(w, b, sc.stage_budget)
    steps, index = [], 0
    while (rec := search_step(len(steps) + 1, index, domain)):
        steps.append(rec)
        index = rec.index
    ladders = {j for rec in steps for j in rec.tup.indices}
    assert (len(ladders), len(domain.pairs)) == (members, read)
    for rec in steps:
        assert all(v is domain.pairs[j] for j, v in zip(rec.tup.indices, rec.tup.values))
    assert built == len(steps)  # a_n, and no Fraction per member


def test_construction_builds_no_fraction_point(monkeypatch):
    """The domain takes each point as an integer at its scale from the dyadic pair.

    Building a reduced Fraction per point and dividing it back cost 9,215
    canonical_point calls on linear_basic.
    """
    calls = count_fraction_points(monkeypatch)
    sc = load_scenario(corpus_path("linear_basic"))
    trace = build_s2a_from_solovay(sc.solovay_witness, sc.beta_approx, sc.depth,
                                   sc.stage_budget)
    assert trace.steps[-1].stage_found == 9214
    assert calls == {"canonical_point": 0}


def test_construction_inserts_each_point_once(monkeypatch):
    """The steps share one domain, which enters each stage once.

    At stage 9,214 it holds the points q_0..q_9214, each once.  Entering
    the domain stage by stage cost 9,214 stage entries; by runs that were
    undone when not quiet, 171 enter calls, 61 of them undone; by one run
    up to the stage before each event stage and one more for that stage,
    38 enter calls.  Each enter runs from the domain's stage to the next
    event stage.  Replaying the domain into every step cost 18,438 inserts.

    With g(0) defined at stage s0 = 7, step 1 enters stages 1..7 in one
    enter, since no ladder exists without the point 0: walking them with
    the point 0 missing cost 29 enter calls.  Steps 1.. are those of
    linear_basic itself.
    """
    entered = []  # (stage before, stage after) of each enter
    domains = set()
    real = construction._Domain.enter

    def counting(self, e):
        entered.append((self.stage, e))
        domains.add(self)
        return real(self, e)

    sc = load_scenario(corpus_path("linear_basic"))
    w = sc.solovay_witness
    shipped = build_s2a_from_solovay(w, sc.beta_approx, sc.depth, sc.stage_budget)
    monkeypatch.setattr(construction._Domain, "enter", counting)
    for s0, enters in ((0, 29), (7, 23)):
        entered.clear()
        domains.clear()
        g = w.g.replace(schedule=w.g.schedule.replace(overrides=((0, s0),)))
        trace = build_s2a_from_solovay(w.replace(g=g), sc.beta_approx, sc.depth,
                                       sc.stage_budget)
        assert trace.steps[0].stage_found == s0 and trace.steps[1:] == shipped.steps[1:]
        assert [r.stage_found for r in trace.steps] == [s0, *FROZEN_HITS["linear_basic"][1][1:]]
        assert trace.steps[-1].stage_found == 9214
        assert [t for t, _ in entered] == [0] + [e for _, e in entered[:-1]]
        assert all(t < e for t, e in entered) and sum(e - t for t, e in entered) == 9214
        assert len(entered) == enters
        (domain,) = domains
        assert domain.stage == 9214
        enumeration = g.enumeration
        slots = [enumeration.scaled(j, domain.m) for j in range(9215)]
        assert domain.occ.count(1) == 9215 and all(domain.occ[x] for x in slots)
        assert [domain.index[x] for x in slots] == list(range(9215))


def test_affine_dyadic_term_is_exact_at_large_n():
    u, v, w, n = Q(3, 4), Q(1, 3), 2, 5000
    term = AffineDyadic(u, v, w).term(n)
    assert term == u - v / 2 ** (w * n)
    assert term.denominator == 3 * 2 ** (w * n)


FROZEN_HITS = {
    "linear_basic": (
        [0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
        [0, 16, 16, 16, 34, 70, 142, 286, 574, 1150, 2302, 4606, 9214]),
    "identity_c2": (
        [0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
        [0, 16, 16, 16, 34, 70, 142, 286, 574, 1150, 2302, 4606, 9214]),
    "oscillating": (
        [0, 1, 3, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22],
        [0, 8, 8, 16, 34, 70, 142, 286, 574, 1150, 2302, 4606, 9214]),
    "table_tail": (
        [0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14],
        [0, 8, 8, 17, 35, 71, 143, 287, 575, 1151, 2303, 4607, 9215]),
    "scaled_alpha": (
        [0, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
        [0, 8, 8, 17, 36, 73, 148, 297, 596, 1193, 2388, 4777, 9556]),
    "staged_delay": (
        [0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13],
        [0, 32, 32, 34, 70, 142, 204, 286, 574, 1150, 2302, 4606, 9214]),
}


@pytest.mark.parametrize("name", VALID_WITNESS_NAMES)
def test_full_depth_hits_are_frozen(built, name):
    """Stage/index pairs pinned after confirming them against the oracle."""
    trace = built[name]
    indices, stages = FROZEN_HITS[name]
    assert [s.index for s in trace.steps] == indices
    assert [s.stage_found for s in trace.steps] == stages


def test_first_ladders_are_canonical(built):
    trace = built["linear_basic"]
    step1 = trace.steps[1]
    assert (step1.tup.points, step1.tup.scale) == ((0, 1, 2), 32)  # 0, 1/32, 1/16
    assert step1.value == Q(1, 32)
    trace = built["table_tail"]
    step1 = trace.steps[1]
    assert (step1.tup.points, step1.tup.scale) == ((0, 1, 2), 16)  # 0, 1/16, 1/8
    assert step1.value == Q(1, 16)


def test_step_zero_is_g_at_zero(built, scenarios):
    for name in VALID_WITNESS_NAMES:
        trace = built[name]
        first = trace.steps[0]
        assert (first.n, first.index, first.stage_found) == (0, 0, 0)
        assert first.value == scenarios[name].solovay_witness.g.value_at(0)
        assert first.tup is None
        assert first.b_value == Q(0)


def test_indices_strictly_increase(built):
    for name in VALID_WITNESS_NAMES:
        trace = built[name]
        idx = [s.index for s in trace.steps]
        assert all(a < b for a, b in zip(idx, idx[1:]))


def test_every_recorded_step_satisfies_its_requirement(built, scenarios):
    for name in VALID_WITNESS_NAMES:
        trace, c = built[name], scenarios[name].solovay_witness.c
        for rec in trace.steps[1:]:
            assert check_requirement(rec.n, rec.b_value, c, rec.tup) is None
            assert rec.value == Q(*rec.tup.values[-1])


def test_output_constant_equals_input_constant(built, scenarios):
    for name in VALID_WITNESS_NAMES:
        sc = scenarios[name]
        witness = trace_payload(sc, built[name])["witness"]
        assert witness["constant"] == format_fraction(sc.solovay_witness.c)


def test_witness_tables_replay_the_trace(built, scenarios):
    trace = built["linear_basic"]
    witness = trace_payload(scenarios["linear_basic"], trace)["witness"]
    assert witness["alpha_terms"] == [format_fraction(rec.value) for rec in trace.steps]
    assert witness["beta_terms"] == [format_fraction(rec.b_value) for rec in trace.steps]


def test_constructed_tail_converges_toward_alpha(built, scenarios):
    """Late terms must sit within the promised distance of the target."""
    for name in VALID_WITNESS_NAMES:
        trace, sc = built[name], scenarios[name]
        depth = len(trace.steps) - 1
        half = depth // 2
        a_lo, a_hi = box_fractions(enclose(sc.alpha, 40))
        b_lo, b_hi = box_fractions(enclose(sc.beta, 40))
        worst_alpha = max(
            max(abs(a_lo - s.value), abs(a_hi - s.value))
            for s in trace.steps[half:])
        worst_beta = max(
            max(abs(b_lo - s.b_value), abs(b_hi - s.b_value))
            for s in trace.steps)
        assert worst_alpha < sc.solovay_witness.c * (worst_beta + Q(1, 2 ** half))


def test_zero_budget_exhausts_with_partial_trace():
    w = witness()
    trace = build_s2a_from_solovay(w, climb_to("1/2"), depth=3, stage_budget=0)
    assert len(trace.steps) == 1 and trace.steps[0].n == 0
    assert trace.exhausted == (1, 0)


def test_a_depth_past_the_budgets_scale_allocates_nothing_for_it():
    """The domain's scale comes from the stage budget, never from the depth.

    linear_basic at stage budget 4096 exhausts at step 11 at any depth, and
    every step from 12 on returns at once.  Scaling the domain by depth 4096
    made every point and key a 4097-bit integer: the build peaked at 8.59 MB
    traced.  At the budget's scale 2**13 it peaks at 1.19 MB (CPython 3.11).
    """
    sc = load_scenario(corpus_path("linear_basic"))
    args = (sc.solovay_witness, sc.beta_approx)
    tracemalloc.start()
    try:
        deep = build_s2a_from_solovay(*args, depth=4096, stage_budget=4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert (len(deep.steps), deep.exhausted) == (11, (11, 4096))
    assert deep == build_s2a_from_solovay(*args, depth=40, stage_budget=4096)


def test_g_zero_undefined_within_budget_exhausts_at_step_zero():
    w = witness(offset=50)
    trace = build_s2a_from_solovay(w, climb_to("1/2"), depth=2, stage_budget=10)
    assert trace.steps == ()
    assert trace.exhausted == (0, 10)


@pytest.mark.parametrize("slope,first_stage", [(0, 4), (2, 8), (3, 12)])
def test_slow_schedules_delay_hits_without_breaking_them(slope, first_stage):
    w = witness(slope=slope)
    b_raw = climb_to("1/2")
    trace = build_s2a_from_solovay(w, b_raw, depth=3, stage_budget=500)
    assert trace.steps[1].stage_found == first_stage
    for rec in trace.steps[1:]:
        assert check_requirement(rec.n, rec.b_value, w.c, rec.tup) is None
        hit = oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, trace.target,
                             stage_cap=rec.stage_found)
        assert hit == rec
        cert = check_strict_at(QUARTER, HALF, rec.value, rec.b_value, w.c,
                               rec.n, guard=8)
        assert cert.verdict is S2aVerdict.HOLDS


def test_witness_image_and_leftce_closed_form():
    w = witness()
    b = climb_to("1/2")
    image = WitnessImage(w.g, b.gen, stage_budget=100)
    hits = [image.term(n) for n in range(20)]
    assert [q for q, _, _ in hits] == [b.term(n) for n in range(20)]
    assert [s for _, s, _ in hits] == [0] * 20  # every point is defined at stage 0
    terms = [g for _, _, g in hits]
    running = [max(terms[:n + 1]) for n in range(20)]
    assert terms == running == [Q(1, 4) - Q(1, 2 ** (n + 2)) for n in range(20)]


def test_witness_image_exhausts_at_never_defined_point():
    w = witness(overrides=[(1, NEVER)])
    at_half = Table((Q(1, 4),), Q(1, 2))
    image = WitnessImage(w.g, at_half, stage_budget=100)
    assert image.term(0) == (Q(1, 4), 0, Q(1, 8))
    assert image.term(1) is None


def test_witness_image_exhausts_past_budget():
    w = witness(overrides=[(1, 500)])
    at_half = Table((Q(1, 4),), Q(1, 2))
    assert WitnessImage(w.g, at_half, 500).term(1) == (Q(1, 2), 500, Q(1, 4))
    assert WitnessImage(w.g, at_half, 499).term(1) is None


def test_mirror_s2a_pairs_complement_with_original():
    stair = Approximation(Table((Q(0), Q(1, 2)), Q(3, 4)), Kind.LEFT_CE)
    m = mirror_s2a(stair)
    assert m.c == Q(1)
    assert [m.alpha_approx.term(n) for n in range(3)] == [Q(1), Q(1, 2), Q(1, 4)]
    assert [m.beta_approx.term(n) for n in range(3)] == [Q(0), Q(1, 2), Q(3, 4)]


def test_mirror_s2a_rejects_unclaimed_input():
    wobble = Approximation(Table((Q(1, 2),), Q(1, 4)), Kind.GENERAL)
    with pytest.raises(InvalidScenario):
        mirror_s2a(wobble)


def test_strict_certificates_hold_for_every_built_step(built, scenarios):
    for name in VALID_WITNESS_NAMES:
        trace, sc = built[name], scenarios[name]
        for rec in trace.steps:
            check = check_strict_at(sc.alpha, sc.beta, rec.value, rec.b_value,
                                    sc.solovay_witness.c, rec.n, guard=sc.guard)
            assert check.verdict is S2aVerdict.HOLDS, (name, rec.n)
