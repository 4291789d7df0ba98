"""Constructive conversion of Solovay-style witnesses.

Given a staged witness (g, c) for a target pair of reals and a
computable approximation b_0, b_1, ... of the target, the main routine
builds an approximation-pair witness with the *same* constant c.  Step
0 outputs (i_0, a_0) = (0, g(0)) after prepending 0 to the target
approximation.  Step n >= 1 dovetails through stages, hunting for the
first index i > i_{n-1} whose value b = b_i admits a finite ladder of
already-defined domain points

  0 = q_{m_0} < q_{m_1} < ... < q_{m_ell}      (ell >= 2)

satisfying the step requirement:

  (i)   ell >= 2
  (ii)  b - 2**-(n+1) < q_{m_ell} < b
  (iii) the points start at 0 and strictly increase
  (iv)  consecutive gaps are < 2**-(n+1)
  (v)   for every k < ell:
        0 < g(q_{m_ell}) - g(q_{m_k}) < c * (q_{m_ell} - q_{m_k} + 2**-(n+2))

The step output is a_n = g(q_{m_ell}).  All five clauses are decided
in exact rational arithmetic, so a satisfied requirement is a finite
certificate.

Search order is canonical and deterministic: stages ascending; within
a stage, candidate indices i ascending; within an index, ladders by
ascending ell and then lexicographically by positions in the
value-sorted domain (first position pinned to the point 0).

The search is incremental.  A construction keeps one domain and sweeps
it forward once.  The domain is a bytearray of occupancy bytes, one
slot per dyadic at the scale 2**m that the stage budget fixes, so a
slot is its point's integer at that scale and value order is slot
order: the reach of 0 in hops below the gap limit
(every ladder a search can find lies below it), each distance class of
the ladder walk and each window of finals is found by a C-level find
over those bytes.  A final that fails clause (v) against 0 can end no
ladder for the rest of the step, so it is cleared from the step's live
copy of the bytes and walked once.  With c > 0, a ladder that meets
step n's requirement for b_i meets step n-1's too, and every step-n
candidate is a step-(n-1) candidate, so step n cannot hit before the
stage where step n-1 did, and it resumes there.  Within a step the
domain only grows, and a search's answer depends only on (n, c), the
domain points
strictly below b_i and b_i's keys (fl, ce) below.  So a candidate that
missed is searched again only at a stage that inserts a point below
its b_i, and of equal-key candidates only the least index is routed,
since candidates are searched in ascending i.  Past the target's settle
index n0 the keys repeat by parity (see approximations), so no
candidate past max(n0, i_{n-1} + 1) + 1 is routed, and b's keys are
read only up to index n0 + 1.
Within one search, each live final in the window gets a direct
shortest-path search over the members that clause (v) admits against
it, and the least ladder over the finals is the canonical one.  The
oracle re-derives the same hits with none of this machinery, and the
test suite holds the two to exact equality.

The search's work grows with its events, not with its stages: the
stages at which a walk stage by stage would route, wake or search a
candidate.  The search computes the next one directly (see search_step)
and enters it together with the quiet stages before it, in one enter
with one write per canonical level, so each stage is entered once.

The search loop compares integers only.  Domain points and every step's
gap limit are dyadic, so the search compares at one scale 2**m, the
domain's slots, and reads each b_i it routes (whose denominator can run
to thousands of bits) once, as keys fl = floor(b_i * 2**m) and
ce = ceil(b_i * 2**m), which the target's generator computes on
integers of about m bits (see approximations).  No integer lies strictly between fl and ce, so for
every integer x, b_i < x iff fl < x and b_i <= x iff ce <= x.  A g-value
is read the first time a ladder search needs it, as the value rule's
unreduced integer pair, and the search pre-filters clause (v) by
cross-multiplying those pairs.  A returned ladder stays in integers too:
its RequirementTuple holds the slots, reduced to the ladder's least
exact scale, and the cached pairs, and check_requirement, which
cross-multiplies every clause into integers, accepts every hit.  The one
Fraction a step builds is its output a_n.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from fractions import Fraction
from math import gcd, inf, lcm

from .approximations import ONE, ZERO, Approximation, ComplementGen, Kind, PrependGen
from .errors import InvalidScenario
from .records import Record
from .scenario import MAX_STAGE_BUDGET
from .witnesses import S2aWitness, SolovayWitness, StagedPartialFunction, eval_staged

Q = Fraction


class RequirementTuple(Record):
    """A candidate ladder in integers: enumeration indices, points, g-values.

    Point k is points[k] / scale, at the ladder's least exact scale: the
    constructor divides scale and every point by their greatest common
    divisor, so for the dyadic points of a built ladder, given at any
    scale 2**m, the common trailing zero bits are stripped.  g-value k is
    p / q for values[k] = (p, q), q > 0: the value rule's unreduced pair.
    The search builds its ladders at one scale per domain and the oracle
    at one scale per stage, and both read each pair through
    rule.ratio(j, *dyadic(j)), so equal indices give equal pairs, and
    with the canonical scale the two build equal tuples for one ladder.
    """

    __slots__ = _fields = ("indices", "points", "scale", "values")

    def __init__(self, indices: tuple[int, ...], points: tuple[int, ...], scale: int,
                 values: tuple[tuple[int, int], ...]) -> None:
        if not (len(indices) == len(points) == len(values)):
            raise ValueError("ladder components must have equal length")
        if len(indices) == 0:
            raise ValueError("ladder must be nonempty")
        if scale < 1 or any(q < 1 for _, q in values):
            raise ValueError("the scale and every g-value denominator must be positive")
        k = gcd(scale, *points)
        if k > 1:
            points, scale = tuple(x // k for x in points), scale // k
        super().__init__(indices, points, scale, values)

    @property
    def ell(self) -> int:
        return len(self.points) - 1


def check_requirement(n: int, b: Fraction, c: Fraction, tup: RequirementTuple) -> int | None:
    """First violated clause (1..5) of the step-n requirement, else None.

    Clauses are checked in the fixed order (i)..(v), on integers: the
    points, b and the slack 2**-(n+2) are numerators P_k, B and S over
    d = lcm(b's denominator, 2**(n+2), the ladder's scale) (the gap limit
    is then 2S), and each g-difference g_last - g_k = num / den is
    cross-multiplied from the two pairs, so clause (v) reads 0 < num and
    num * d * c_d < c_n * (P_last - P_k + S) * den.
    Every comparison is exact, so the answer is total and certain.
    """
    if n < 0:
        raise ValueError("step number must be >= 0")
    ell = tup.ell
    if ell < 2:
        return 1
    d = lcm(b.denominator, 1 << (n + 2), tup.scale)
    k = d // tup.scale
    pts = [x * k for x in tup.points]
    slack = d >> (n + 2)
    gap_limit = 2 * slack
    last = pts[-1]
    bn = b.numerator * (d // b.denominator)
    if not (bn - gap_limit < last < bn):
        return 2
    if pts[0] != 0 or any(x >= y for x, y in zip(pts, pts[1:])):
        return 3
    if any(y - x >= gap_limit for x, y in zip(pts, pts[1:])):
        return 4
    cn, cd = c.numerator, c.denominator
    ln, ld = tup.values[-1]
    for x, (p, q) in zip(pts, tup.values[:-1]):
        num = ln * q - p * ld
        if not (0 < num and num * d * cd < cn * (last - x + slack) * ld * q):
            return 5
    return None


class StepRecord(Record):
    """Step n: i_n into trace.target, a_n, b_{i_n}, the ladder (None only for
    step 0) and the stage it was found at."""

    __slots__ = _fields = ("n", "index", "value", "b_value", "tup", "stage_found")

    def __init__(self, n: int, index: int, value: Fraction, b_value: Fraction,
                 tup: RequirementTuple | None, stage_found: int) -> None:
        super().__init__(n, index, value, b_value, tup, stage_found)


class ConstructionTrace(Record):
    """The steps, the target they index (0, then beta_approx) and, when the
    stage budget ran out, (the failed step, the stage budget)."""

    __slots__ = _fields = ("steps", "target", "exhausted")

    def __init__(self, steps: tuple[StepRecord, ...], target: Approximation,
                 exhausted: tuple[int, int] | None = None) -> None:
        super().__init__(steps, target, exhausted)


class _Domain:
    """The dovetailed domain of a construction, entered up to each event stage.

    Points, keys and gap limits are integers at one scale 2**m, the
    least at which all points j <= stage_budget and all points of the
    prefix are exact, and at which the gap limit of every step that
    search_step starts is exact too (see there).  Tracks, incrementally:
    the keys (fl, ce) of b_i, read from the target's generator once per
    index and only up to n0 + 1, where n0 = max(1, b.settle(m)): past it
    the keys repeat by parity, so keys(i) returns a later index's keys
    from n0 or n0 + 1; and g-values, cached by enumeration index as an
    unreduced integer pair (pairs) on a ladder search's first read, which
    a returned ladder's RequirementTuple holds as they are.

    The points themselves are occupancy bytes, one slot per integer
    x < 2**m: occ[x] is 1 iff x / 2**m is a point, and index[x] is its
    enumeration index.  Value order is slot order, so every scan of the
    domain is a C-level bytearray find.  The budget is at most
    MAX_STAGE_BUDGET, so m <= 17 unless the prefix is longer, and the
    domain holds two bytearrays and one list of 2**m entries.  A point
    finer than 2**-m raises.

    For the current step it tracks the reach, the largest point that the
    slot 0 reaches with every hop < gap (search_step enters q_0 first).  A
    chain of hops ends at the first run of gap - 1 empty slots, so the
    reach is found by one find of that run.  Within a step points only
    arrive, so the reach only moves up, and it moves only when a point
    lands less than one gap past it.
    live is occ less the finals known to fail clause (v) against 0 in this
    step: _lex_first_ladder clears a final from it at the first failure,
    and tests a final that passed again, on two cached pairs, whenever a
    later search of the step walks it.
    pair_ok(f, 0) depends only on n, c and the points 0 and f, so a final
    that fails it ends no ladder for the rest of the step (see there).
    start_step resets live to occ, and enter marks each point it inserts live.

    enter(e) enters the stages stage+1..e: each q_j whose entry stage
    max(1, j, s_j) lies in that range (stage 0 inserts nothing).  On the
    affine schedule the entry stage is nondecreasing in j (max(1, j,
    offset) for slope 0, max(1, slope*j + offset) for slope >= 1), so the
    affine js entered by a stage t are those up to _top(t), and on each
    canonical level an interval of j is an arithmetic progression of
    slots, one extended-slice write.  q_0, the prefix (not canonical) and
    the overrides are single points, sorted by entry stage once.  The same
    groups of points answer, without entering them, the search's
    look-aheads first_below and first_reach.
    """

    def __init__(self, g: StagedPartialFunction, b: Approximation, stage_budget: int):
        if not 0 <= stage_budget <= MAX_STAGE_BUDGET:
            raise ValueError(f"stage budget must be in 0..{MAX_STAGE_BUDGET}")
        self.g, self.b = g, b
        self.m = max(stage_budget.bit_length(), len(g.enumeration.prefix).bit_length())
        self.n0 = max(1, b.settle(self.m))  # keys(i) == keys(i - 2) for i >= n0 + 2
        self.stage = 0
        self._keys: list[tuple[int, int]] = [(0, 0)]  # (fl, ce) of b_i; index 0 is no candidate
        self.pairs: dict[int, tuple[int, int]] = {}  # j -> g(q_j) unreduced, on first read
        self.occ = bytearray(1 << self.m)   # occ[x] = 1 iff x / 2**m is a point
        self.index = [0] * (1 << self.m)    # index[x]: the enumeration index of point x
        self.live = bytearray(1 << self.m)  # occ less this step's finals that fail against 0
        self.gap = 0  # the step's gap limit
        self._hole = b""  # gap - 1 empty slots: a chain of hops ends at the first such run
        self.reach = 0  # largest point 0 reaches with every hop < gap
        sched = g.schedule
        self._slope, self._offset = sched.slope, sched.offset
        self._first = max(1, sched.offset)  # no affine point enters before this stage
        # q_j for j >= j0 and off the overrides is affine; the rest go one at a time
        self._j0 = max(1, len(g.enumeration.prefix))
        overrides = sorted({j for j, _ in sched.overrides if j >= self._j0})
        self._overrides = [*overrides, inf]  # the overridden js from j0 on, then a sentinel
        single = sorted((max(1, j, st), j) for j in (*range(self._j0), *overrides)
                        if (st := sched.stage_of(j)) is not None)
        self._single_stages = [st for st, _ in single]
        self._single = [j for _, j in single]

    def keys(self, i: int) -> tuple[int, int]:
        """(fl, ce) of b_i, i >= 1: each index up to n0 + 1 read once, in order."""
        n0 = self.n0
        if i > n0 + 1:
            i = n0 + (i - n0) % 2
        keys = self._keys
        while len(keys) <= i:
            keys.append(self.b.keys(len(keys), self.m))
        return keys[i]

    def pair(self, j: int) -> tuple[int, int]:
        """g(q_j) of an inserted point as an unreduced integer pair (p, q), q > 0."""
        p = self.pairs.get(j)
        if p is None:
            g = self.g
            p = self.pairs[j] = g.rule.ratio(j, *g.enumeration.dyadic(j))
        return p

    def start_step(self, n: int) -> None:
        """Set step n's gap limit, walk its reach from 0, and reset live."""
        self.gap = 1 << (self.m - n - 1)
        self._hole = bytes(self.gap - 1)
        self.live = self.occ.copy()
        self.reach = self._reach_from(0)

    def _reach_from(self, x: int) -> int:
        """The largest point that the point x reaches with every hop < gap."""
        k = self.occ.find(self._hole, x + 1)
        return k - 1 if k >= 0 else self.occ.rfind(1)

    def _top(self, t: int) -> int:
        """The greatest j whose affine entry stage is at most t, or -1."""
        if t < self._first:
            return -1
        return t if self._slope == 0 else (t - self._offset) // self._slope

    def _groups(self, t: int, e: int) -> Iterator[tuple[int, int, int, int]]:
        """(first slot, count, slot step, first j) of each group of the points
        that enter at the stages t+1..e: a single point, or affine points
        j..j+count-1 on one canonical level.  A group's first point has its
        least slot and its least entry stage."""
        yield from self._singles(t, e)
        yield from self._affine(t, e)

    def _singles(self, t: int, e: int) -> Iterator[tuple[int, int, int, int]]:
        """The single-point groups of _groups, in ascending entry stage."""
        stages = self._single_stages
        if stages and stages[-1] > t:
            m, scaled = self.m, self.g.enumeration.scaled
            k = bisect_right(stages, t)
            for j in self._single[k:bisect_right(stages, e, k)]:
                yield scaled(j, m), 1, 1, j

    def _affine(self, t: int, e: int) -> Iterator[tuple[int, int, int, int]]:
        """The affine groups of _groups, in ascending j, so in ascending entry stage."""
        m, scaled = self.m, self.g.enumeration.scaled  # raises for a point not exact at 2**-m
        a, z = max(self._top(t) + 1, self._j0), self._top(e)
        overrides = self._overrides
        k = bisect_left(overrides, a)
        while a <= z:  # one group per canonical level, split at the overrides
            if overrides[k] == a:
                a, k = a + 1, k + 1
                continue
            level = a.bit_length()
            top = min(z, (1 << level) - 1, overrides[k] - 1)
            yield scaled(a, m), top - a + 1, 2 << (m - level), a  # on level L, 2**(m-L+1) apart
            a = top + 1

    def enter(self, e: int) -> int:
        """Enter the stages stage+1..e; return the least point they insert, or 2**m."""
        occ, live, index = self.occ, self.live, self.index
        low, high = len(occ), -1
        for x, count, step, j in self._groups(self.stage, e):
            if count == 1:
                last = x
                occ[x] = live[x] = 1
                index[x] = j
            else:
                last = x + (count - 1) * step
                sl = slice(x, last + 1, step)
                occ[sl] = live[sl] = b"\1" * count
                index[sl] = range(j, j + count)
            if x < low:
                low = x
            if last > high:
                high = last
        self.stage = e
        reach = self.reach
        if low < reach + self.gap and high > reach:  # a point may extend the reach
            self.reach = self._reach_from(reach)
        return low

    def first_below(self, x: int, hi: int) -> int:
        """min(hi, the first stage after this one that inserts a point below the slot x).

        A group's first point has its least slot and entry stage, and the
        single points and the affine groups each come in ascending entry
        stage.  So the first group of each kind whose first slot lies below
        x names that kind's first such stage, and the affine groups are
        read only up to the stage the single points named.
        """
        stage_of = self.g.schedule.stage_of
        for groups in (self._singles, self._affine):
            for x0, _, _, j in groups(self.stage, hi - 1):
                if x0 < x:
                    hi = max(1, j, stage_of(j))
                    break
        return hi

    def first_reach(self, fl: int, hi: int) -> int:
        """min(hi, the first stage after this one at which fl < reach + gap).

        Needs reach + gap <= fl.  The reach only grows with the stage, and
        it is at least fl - gap + 1 iff (reach, fl) holds no run of gap - 1
        empty slots; so the stage is bisected, each probe writing the points
        that enter by it into a copy of those slots.  It enters nothing.
        """
        lo, start, stage_of = self.stage, self.reach + 1, self.g.schedule.stage_of
        groups = []  # (first slot in the copy, slot step, first j, count, its entry stage)
        for x, count, step, j in self._groups(lo, hi - 1):  # of the points in (reach, fl)
            k0, k1 = max(0, (start - x + step - 1) // step), min(count - 1, (fl - 1 - x) // step)
            if k0 <= k1:
                j += k0
                groups.append((x + k0 * step - start, step, j, k1 - k0 + 1, max(1, j, stage_of(j))))
        while hi - lo > 1:
            t = (lo + hi) // 2
            window, z = self.occ[start:fl], self._top(t)  # z: the last affine j entered by t
            for y, step, j, count, first in groups:
                if first <= t:
                    count = min(count, z - j + 1) if count > 1 else 1
                    window[y:y + (count - 1) * step + 1:step] = b"\1" * count
            if window.find(self._hole) < 0:
                hi = t
            else:
                lo = t
        return hi

    def ceil(self) -> int:
        """reach + gap: the window of a b_i at or above it holds no reached point."""
        return self.reach + self.gap


def _lex_first_ladder(n: int, i: int, fl: int, ce: int, c: Fraction, state: _Domain
                      ) -> tuple[Fraction, RequirementTuple] | None:
    """(b_i, canonically first requirement-satisfying ladder) for this stage.

    The universe is the points below b_i, 0 and at least two more among
    them.  The canonical ladder is the least by (ell, positions in the
    value-sorted domain), and since value order is slot order, it is the
    least by (ell, slots).  It is found by a direct shortest-path search
    per final f in the window (clause (ii)), with no backtracking:

    - clause (v) admits as members only the k < f with pair_ok(f, k),
      and requires pair_ok(f, 0).  pair_ok is clause (v) cross-multiplied
      into integers at the domain's scale 2**m: with g_f - g_k = num / den,
      c = cn / cd and the slack 2**-(n+2) equal to gap / 2, it reads
      0 < num and num * cd * 2**(m+1) < cn * den * (2 * (x_f - x_k) + gap);
    - pair_ok(f, 0) reads only n (through gap), c, and the points f and 0
      with their g-values, all fixed for the rest of the step, and every
      ladder ending at f has 0 as its first point.  So a final that fails
      it ends no ladder for the rest of the step: it is cleared from the
      domain's live bytes, and the finals are found by scanning those;
    - over admissible points, the hop distance to f (hops < gap,
      clause (iv)) never increases with value, so each distance class is
      a run of slots.  Walking back from f, class h starts at the first
      slot within one hop of the least member m_{h-1} of class h-1
      (m_0 = f), and m_h is its first admissible point; the walk stops
      when 0 is within one hop, or fails on an empty class;
    - the lex-first shortest path is then 0, m_{h-1}, ..., m_1, f.  When
      0 reaches f in one hop, the ladder is (0, first admissible k, f),
      because clause (i) needs ell >= 2;
    - the least (ell, slots) over the finals wins.  Only then is b_i
      read as a Fraction; the ladder's RequirementTuple holds its slots
      at the domain's scale 2**m and its cached pairs, with no Fraction
      per member, and it is accepted solely by check_requirement.

    search_step calls it only with a gap limit of at least 2: below
    that, no point but 0 lies below a ready b_i.
    """
    gap = state.gap
    occ, live, index = state.occ, state.live, state.index
    pair = state.pair
    cn, cd = c.numerator, c.denominator
    shift = state.m + 1

    def pair_ok(f: int, k: int) -> bool:
        (pf, qf), (pk, qk) = pair(index[f]), pair(index[k])
        num = pf * qk - pk * qf
        return 0 < num and (num * cd << shift) < cn * qf * qk * (((f - k) << 1) + gap)

    def first_member(f: int, lo: int, hi: int) -> int:
        """The least point k in [lo, hi) with pair_ok(f, k); -1 if none."""
        k = occ.find(1, lo, hi)
        while k >= 0 and not pair_ok(f, k):
            k = occ.find(1, k + 1, hi)
        return k

    def ladder_to(f: int) -> list[int] | None:
        """Lex-first shortest ladder ending at f; None if 0 cannot reach f."""
        chain: list[int] = []   # m_1, m_2, ...: least member of each distance class
        top, hi = f, f
        while (lo := top - gap + 1) > 0:
            top = first_member(f, lo, hi)
            if top < 0:
                return None  # empty distance class: 0 cannot reach f
            chain.append(top)
            hi = lo
        if not chain:  # 0 reaches f in one hop, but clause (i) needs ell >= 2
            k = first_member(f, 1, f)
            if k < 0:
                return None
            chain = [k]
        return [0] + chain[::-1] + [f]

    best: list[int] | None = None
    f = max(0, fl - gap + 1) - 1  # b - gap < x iff fl - gap < x
    while (f := live.find(1, f + 1, ce)) >= 0:  # x < b iff x < ce
        if not pair_ok(f, 0):
            live[f] = 0  # ends no ladder for the rest of the step
            continue
        ladder = ladder_to(f)
        if ladder is not None and (best is None or (len(ladder), ladder) < (len(best), best)):
            best = ladder
    if best is None:
        return None
    b = state.b.term(i)
    js = [index[t] for t in best]
    tup = RequirementTuple(tuple(js), tuple(best), 1 << state.m, tuple(map(pair, js)))
    return (b, tup) if check_requirement(n, b, c, tup) is None else None


def search_step(n: int, prev_index: int, witness: SolovayWitness,
                b: Approximation, stage_budget: int,
                domain: _Domain | None = None) -> StepRecord | None:
    """Deterministic dovetailed hunt for the step-n record; None on budget.

    At stage s the domain holds exactly the enumeration indices j <= s
    whose definition stage has arrived, and the candidate target indices
    are prev_index < i <= s.  The search resumes at the domain's stage
    and enters stages up to stage_budget: a construction passes the one
    domain that step n-1 left at stage_found_{n-1}, where step n cannot
    yet have hit (see the module docstring), and a standalone search
    builds a fresh domain at stage 0.
    A step n with n + 1 >= m, the domain's scale, returns None at once,
    before start_step: every point that can enter by the budget is exact
    at 2**-m, so at that scale a hop between distinct points is a
    positive integer.  Clauses (i) and (iii) need at least one such hop,
    and clause (iv) needs every hop below 2**(m-n-1) <= 1, so no such step
    ever hits.  Every step that starts has an integer gap limit >= 2.
    Every ladder starts at the point 0, so before start_step a search
    enters the domain to max(1, s_0), where q_0 enters, or returns None at
    once if the budget stops short of it.
    Every comparison with a key is at the scale 2**m, the domain's slots.
    A candidate whose b_i is at or above the domain's ceil (reach + gap)
    provably admits no ladder yet, since its window holds no point that 0
    reaches.  It waits in one heap keyed by fl, and the reach only
    increases within a step, so it is woken at most once.  Every other
    candidate is ready.  A ready candidate is searched when it becomes
    ready, and after a miss only at a stage that inserts a point below its
    b_i.  It misses unsearched while fewer than three points lie below b_i
    (two finds over the occupancy bytes tell), and while its window
    (b_i - gap, b_i) holds no live final (one find over the live bytes),
    since then the search would find no final to end a ladder at.
    A candidate whose keys (fl, ce) equal a lesser candidate's is never
    routed: every search outcome depends on b_i only through its keys, and
    the lesser one, searched first, hits at every stage the later one would.
    So no candidate past last = max(n0, prev_index + 1) + 1 is routed, n0
    the domain's settle index: for i > last >= n0 + 1, keys(i) == keys(i - 2),
    and stepping down by 2 reaches last - 1 or last, both at least
    max(n0, prev_index + 1), so above prev_index, with the same keys on
    the way (each step down starts at n0 + 2 or above).  Those are
    candidates that arrive before i.  Routing and key reads stop at last.

    After it walks stage s, the search enters s+1..e with one enter and
    walks the next event stage e.  e is the least of:
    - s + 1 while s < last: it brings candidate s + 1;
    - the first stage that inserts a point below top_ce, the greatest ce
      of a ready candidate: each has missed by then and is searched again
      only at a stage that inserts a point below its ce;
    - the first stage at which the least waiting fl is below ceil: the
      reach only grows, and that candidate wakes first;
    - the stage budget.
    At every stage before e no candidate arrives, wakes or is searched, so
    stage_found, the ladder and every search are those of a walk stage by
    stage.  Keys are read only in routing, in ascending i, so a key that
    leaves [0, 1] raises at the stage where that walk reads it.
    That one enter returns low, the least point inserted in s+1..e, where
    a walk stage by stage would test a missed candidate against the least
    point of stage e alone; the two agree.  When e > s + 1, e is at most
    the first stage that inserts a point below top_ce, so the quiet
    stages s+1..e-1 insert none: low is below a missed candidate's
    ce <= top_ce only if stage e inserted it.  When stage e inserts
    nothing, low is 2**m or at least top_ce, and every missed candidate
    is skipped either way.
    """
    if n < 1:
        raise ValueError("searchable steps start at n = 1")
    domain = domain or _Domain(witness.g, b, stage_budget)
    s0 = max(1, witness.g.schedule.stage_of(0))  # the stage where the point 0 enters
    if n + 1 >= domain.m or s0 > stage_budget:
        return None  # no hop between points exact at 2**-m is below 2**-(n+1), or no point 0
    if domain.stage < s0:
        domain.enter(s0)
    domain.start_step(n)

    ready: list[tuple[int, int, int]] = []  # (i, fl, ce): b_i below ceil
    wait: list[tuple[int, tuple]] = []      # (fl, candidate): b_i at or above ceil
    missed: set[int] = set()                # ready candidates whose last search failed
    top_ce = 0                              # the greatest ce of a ready candidate
    seen: set[tuple[int, int]] = set()      # keys (fl, ce) of the routed candidates
    ceil = domain.ceil()                    # only increases
    occ = domain.occ                        # its slots x < ce are the points below b_i
    live, gap = domain.live, domain.gap
    last = max(domain.n0, prev_index + 1) + 1  # every later candidate repeats a lesser one's keys

    s = domain.stage
    low = 0  # least point inserted since the last walked stage
    arrived = range(prev_index + 1, min(s, last) + 1)  # candidates entered since the last routing
    while True:
        for i in arrived:
            if (keys := domain.keys(i)) in seen:
                continue  # a lesser routed index shares every search outcome
            seen.add(keys)
            cand = (i, *keys)
            if cand[1] >= ceil:  # b_i >= ceil
                heapq.heappush(wait, (cand[1], cand))
            else:
                ready.append(cand)
                top_ce = max(top_ce, cand[2])
        while wait and wait[0][0] < ceil:  # b_i < ceil
            ready.append(cand := heapq.heappop(wait)[1])
            top_ce = max(top_ce, cand[2])
        if ready:
            ready.sort()
            for i, fl, ce in ready:
                if i in missed and ce <= low:
                    continue  # nothing new below b_i (low >= b_i) since its last miss
                if ((k := occ.find(1, 1, ce)) < 0 or occ.find(1, k + 1, ce) < 0
                        or live.find(1, max(0, fl - gap + 1), ce) < 0):
                    missed.add(i)  # a ladder needs 0, two more points and a live final
                    continue
                hit = _lex_first_ladder(n, i, fl, ce, witness.c, domain)
                if hit is not None:
                    bi, tup = hit
                    return StepRecord(n, i, Q(*tup.values[-1]), bi, tup, s)
                missed.add(i)
        if s >= stage_budget:
            return None
        e = s + 1 if s < last else domain.first_below(top_ce, stage_budget)
        if wait and e > s + 1:
            e = domain.first_reach(wait[0][0], e)
        low = domain.enter(e)
        ceil = domain.ceil()
        arrived = (e,) if prev_index < e <= last else ()
        s = e


class WitnessImage(Record):
    """The image n -> g(base.term(n)) under a stage budget.

    term(n) is (b_n, s, g(b_n)), b_n = base.term(n) read once and s its
    definition stage, or None while g is undefined at b_n through the
    budget: the point never enters the enumeration, or its definition
    stage lies past the budget.  Nothing is silently substituted.
    """

    __slots__ = _fields = ("fn", "base", "stage_budget")

    def __init__(self, fn: StagedPartialFunction, base: object, stage_budget: int) -> None:
        super().__init__(fn, base, stage_budget)

    def term(self, n: int) -> tuple[Fraction, int, Fraction] | None:
        hit = eval_staged(self.fn, q := self.base.term(n), self.stage_budget)
        return None if hit is None else (q, *hit)


def build_s2a_from_solovay(witness: SolovayWitness, beta_approx: Approximation,
                           depth: int, stage_budget: int) -> ConstructionTrace:
    """Run steps 0..depth and return their trace.

    The steps' values a_n and targets b_{i_n} are the approximation-pair
    witness, and its constant is the input constant, untouched.  The
    trace carries the target, 0 and then beta_approx, that every i_n
    indexes.  A step that exhausts the stage budget ends the trace, and
    the trace's exhausted field names that step and the budget; step 0
    exhausts, with no steps, when g(0) is defined after the budget.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    b = Approximation(PrependGen(ZERO, beta_approx.gen))
    s0 = witness.g.schedule.stage_of(0)  # never None: StagedPartialFunction checks it
    if s0 > stage_budget:
        return ConstructionTrace((), b, (0, stage_budget))
    steps = [StepRecord(0, 0, witness.g.value_at(0), b.term(0), None, s0)]
    domain = _Domain(witness.g, b, stage_budget)
    for n in range(1, depth + 1):
        rec = search_step(n, steps[-1].index, witness, b, stage_budget, domain)
        if rec is None:
            return ConstructionTrace(tuple(steps), b, (n, stage_budget))
        steps.append(rec)
    return ConstructionTrace(tuple(steps), b)


def mirror_s2a(a: Approximation) -> S2aWitness:
    """Pair a nondecreasing approximation with its complement, constant 1.

    The complement 1 - a_n rises exactly where a_n falls, so a's
    left-c.e. claim makes it a right-c.e. claim: it approximates one
    minus the original limit from above.  The termwise distance identity
    makes the pair a witness with constant exactly 1.
    """
    if a.kind is not Kind.LEFT_CE:
        raise InvalidScenario("mirror input must carry a left-c.e. kind claim")
    return S2aWitness(alpha_approx=Approximation(ComplementGen(a.gen), Kind.RIGHT_CE),
                      beta_approx=a, c=ONE)
