"""Independent reference for the step search.

Re-derives step hits with none of the incremental machinery the main
search uses: every probed stage rebuilds the domain from scratch, and
nothing is cached across stages.  The least hitting stage is found by
galloping and bisecting over stages from a start stage, which
oracle_min_hit justifies.  Construction mode starts at the search's own
stage s, so a correct record costs two probes, s and s - 1.  The answer
is still the oracle's record, read from its own rebuild of the stage it
proves least, so the guess moves only the probes: a wrong index or
ladder differs at s, a stage one too late hits at s - 1, and a stage
too early misses at s, from which the gallop goes on.
Each stage's points are the integers P_k that enumerate_domain returns at
one scale d = 2**m per stage, with
m = max(n+2, stage.bit_length(), len(prefix).bit_length()), at which
every point j <= stage is exact, and its g-values are the value rule's
unreduced integer pairs n_k / d_k; the slack is S = d >> (n+2) and the
gap limit 2S.

Every candidate index i in (prev_index, stage] is located in the stage
by two positions, computed from its keys fl = floor(b_i * d) and
ce = ceil(b_i * d), which Approximation.keys gives without building b_i
as a Fraction: cut, the number of points below b_i, and lo, the first
point above b_i - 2S.  The points are integers, so P_k < b_i * d iff
P_k < ce and P_k > b_i * d - 2S iff P_k > fl - 2S, and both positions
are bisections.  The canonical ladder for those positions (least length
ell, then least positions in the value-sorted domain) comes from an
exact-length count per final f in the window [lo, cut): a ladder ending
at f may use only the members clause (v) admits against f, decided per
pair as 0 < num and num * d * c_d < c_n * (P_f - P_k + S) * d_f * d_k
with num = n_f * d_k - n_k * d_f, so the g-values never share a
denominator.  Ladders of every length from max(2, least hop count) up
to one hop per member after 0 exist, and the least of the finals'
lex-first ladders at the least such length, a RequirementTuple of the
stage's integers with no Fraction per member, is accepted for candidate
i solely by check_requirement on b_i, the one place b_i is read
exactly.  Its scale is reduced to the least exact one, so it equals the
search's tuple for the same ladder, built at the domain's scale.

Candidates at one position share a ladder.  The ladder search for one
candidate reads b_i in three places only: cut bounds the points it may
use and asks for three of them; [lo, cut) is its range of finals; and
check_requirement's clause (ii), b_i - 2S < P_f < b_i, holds for every
final in [lo, cut) by the definition of the two positions.  Each
final's members, hop counts and lex-first ladder depend only on n, c
and the stage's points and g-values, and check_requirement's other
clauses read b_i only through a common denominator that scales both
sides of each comparison alike.  So two candidates with the same
(cut, lo) have the same canonical ladder and the same verdict on it.
_first_ladder therefore takes the two positions in place of b_i, and
_stage_hit tries only the least index at each position: a later index
there would get the ladder and the verdict the least one got, a miss,
so it goes with neither a ladder search nor a check.  The set of tried
positions lives for that one stage: nothing is cached across stages.

The oracle shares with the search only Approximation.keys, which
test_keys_agree_with_the_exact_term holds to the exact term, and
check_requirement, RequirementTuple and the StepRecord both answer
with, and in construction mode the stage its stage search starts at;
the test suite holds their records to equality.  Its stage
shell, its exact-length ladder count, its search over stages and its
per-probe rebuild stay its own: enumerate_domain rebuilds each probed
stage from the witness's schedule and value rule, one canonical level
at a time, where the search keeps one domain at one scale per
construction, walks distance classes backward from each final and
routes only the least of candidates with equal keys.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter

from .approximations import Approximation
from .construction import RequirementTuple, StepRecord, check_requirement
from .witnesses import SolovayWitness, enumerate_domain


def oracle_min_hit(n: int, prev_index: int, witness: SolovayWitness,
                   b: Approximation, stage_cap: int, start: int = 1) -> StepRecord | None:
    """The step-n record at the least hitting stage up to the cap, or None.

    "Some candidate hits at stage s" is monotone in s: the domain at s
    (j <= s with s_j <= s) only grows with s, and g(q_j) does not depend
    on s; the candidates (prev_index, s] only grow; whether a ladder is
    valid depends only on n, b_i, c and its own points; and
    _stage_hit finds a candidate's ladder whenever one exists.  So the
    search probes start first, clamped to [1, stage_cap].  If start hits
    and start - 1 misses, start is the least hitting stage; if start - 1
    hits too, the probes bisect below it.  If start misses, they gallop up
    (2 * start, 4 * start, ..., then the cap) to the first stage that
    hits and bisect between it and the last stage that missed.  Stage 0
    has no candidate, so start = 1 is the plain gallop from stage 1.
    The probe at the least hitting stage gives that stage, its least
    hitting index and that index's canonical ladder: exactly the hit of
    a scan of every stage from 1, whatever start is.  start only chooses
    the stages probed, so a caller may pass a guess, such as another
    search's stage: a guess one stage too late hits at start - 1, and
    one too early misses at start and the gallop goes on.
    """
    if n < 1:
        raise ValueError("searchable steps start at n = 1")
    if stage_cap < 0:
        raise ValueError("stage cap must be >= 0")
    miss, stage = 0, min(max(start, 1), stage_cap)  # stage 0 has no candidate, so it always misses
    while True:
        if stage == miss:
            return None
        hit = _stage_hit(n, prev_index, witness, b, stage)
        if hit is not None:
            break
        miss, stage = stage, min(2 * stage, stage_cap)
    if miss == 0 and stage > 1:  # start hit: the stage below decides whether it is the least
        probe = _stage_hit(n, prev_index, witness, b, stage - 1)
        if probe is None:
            return hit
        stage, hit = stage - 1, probe
    while stage - miss > 1:
        mid = (miss + stage) // 2
        probe = _stage_hit(n, prev_index, witness, b, mid)
        if probe is None:
            miss = mid
        else:
            stage, hit = mid, probe
    return hit


def _stage_hit(n: int, prev_index: int, witness: SolovayWitness, b: Approximation,
               stage: int) -> StepRecord | None:
    """The record of the least hitting index in (prev_index, stage], over
    the domain rebuilt from scratch at this stage alone, or None."""
    prefix_len = len(witness.g.enumeration.prefix)
    m = max(n + 2, stage.bit_length(), prefix_len.bit_length())
    entries = sorted(enumerate_domain(witness.g, stage, m), key=itemgetter(1))
    points = [x for _, x, _ in entries]
    if not points or points[0] != 0:
        return None
    nums = [p for _, _, (p, _) in entries]
    dens = [q for _, _, (_, q) in entries]
    d = 1 << m
    gap_limit = 2 * (d >> (n + 2))
    tried: set[tuple[int, int]] = set()  # (cut, lo) positions of lesser indices
    for i in range(prev_index + 1, stage + 1):
        fl, ce = b.keys(i, m)
        cut = bisect_left(points, ce)
        lo = bisect_right(points, fl - gap_limit, 0, cut)
        if (cut, lo) in tried:
            continue  # the lesser index's ladder and verdict, which missed
        tried.add((cut, lo))
        tup = _first_ladder(n, witness.c, cut, lo, entries, points, nums, dens, d)
        if tup is not None:
            bi = b.term(i)
            if check_requirement(n, bi, witness.c, tup) is None:
                return StepRecord(n, i, Fraction(*tup.values[-1]), bi, tup, stage)
    return None


def _first_ladder(n: int, c: Fraction, cut: int, lo: int,
                  entries: list[tuple[int, int, tuple[int, int]]], points: list[int],
                  nums: list[int], dens: list[int], d: int) -> RequirementTuple | None:
    """Canonical ladder over one stage's value-sorted entries, from points
    below position cut to a final in [lo, cut), or None.

    points are the entries' points at scale d, and nums and dens their
    g-values' numerators and denominators.  The ladder is not checked
    against any b_i: its caller accepts it per candidate.
    """
    if cut < 3 or lo >= cut:
        return None
    slack = d >> (n + 2)
    gap_limit = 2 * slack
    feasible = []  # (least ell, members, hops to f) per final that has a ladder
    for f in range(lo, cut):
        chain = _members(f, points, nums, dens, c.numerator, c.denominator, d, slack)
        if chain is None:
            continue
        hops = _hops_to_last(chain, points, gap_limit)
        ell = max(2, hops[0])
        # Splitting a hop at a member between its ends keeps both halves below
        # gap_limit, so every length from ell up to one hop per member after 0
        # exists.
        if ell <= len(chain) - 1:
            feasible.append((ell, chain, hops))
    if not feasible:
        return None
    ell = min(e for e, _, _ in feasible)
    best = min(_lex_first(chain, hops, ell) for e, chain, hops in feasible if e == ell)
    return RequirementTuple(tuple(entries[t][0] for t in best), tuple(points[t] for t in best),
                            d, tuple(entries[t][2] for t in best))


def _members(f: int, points: list[int], nums: list[int], dens: list[int], cn: int, cd: int,
             d: int, slack: int) -> list[int] | None:
    """Positions a ladder ending at f may use, ascending and ending at f.

    None when clause (v) rejects 0, or when two consecutive members lie
    a gap limit (2 * slack) or more apart, so that no ladder reaches f.
    Positions are read lazily and the scan stops at the first such gap.
    """
    gap_limit = 2 * slack
    pf, nf, df = points[f], nums[f], dens[f]

    def pair_ok(k: int) -> bool:
        num = nf * dens[k] - nums[k] * df
        return 0 < num and num * d * cd < cn * (pf - points[k] + slack) * df * dens[k]

    if not pair_ok(0):
        return None
    chain = [0]
    for k in range(1, f + 1):
        if points[k] - points[chain[-1]] >= gap_limit:
            return None  # every later member, f included, lies at least as far
        if k == f or pair_ok(k):
            chain.append(k)
    return chain


def _hops_to_last(chain: list[int], points: list[int], gap_limit: int) -> list[int]:
    """Least number of hops below gap_limit from each member to the last one.

    The hop count never increases with position, so from each member
    the farthest member within one hop is the best next one; that
    member only moves down as the pass walks backward.
    """
    hops = [0] * len(chain)
    far = len(chain) - 1
    for t in range(len(chain) - 2, -1, -1):
        while points[chain[far]] - points[chain[t]] >= gap_limit:
            far -= 1
        hops[t] = hops[far] + 1
    return hops


def _lex_first(chain: list[int], hops: list[int], ell: int) -> list[int]:
    """Lex-first ladder of exactly ell hops from chain[0] to chain[-1].

    From member u the last member is reachable in exactly h hops iff
    hops[u] <= h <= last - u.  If the current member t can finish in
    left + 1 hops, the first u > t with hops[u] <= left lies within one
    hop of t (the farthest member within one hop has hop count
    hops[t] - 1) and no later than last - left (whose hop count is at
    most left), so it can finish in exactly left hops, and no smaller
    member can.
    """
    last = len(chain) - 1
    ladder = [chain[0]]
    t = 0
    for left in range(ell - 1, -1, -1):
        t = next(u for u in range(t + 1, last + 1) if hops[u] <= left)
        ladder.append(chain[t])
    return ladder
