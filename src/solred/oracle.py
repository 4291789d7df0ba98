"""Independent reference for the step search.

Re-derives step hits with none of the incremental machinery the main
search uses: every probed stage rebuilds the domain from scratch,
every candidate index is tried in turn, and nothing is cached across
stages or candidates.  The least hitting stage is found by galloping
and bisecting over stages, which oracle_min_hit justifies.  Each
stage's points are the integers P_k that enumerate_domain returns at
one scale d = 2**m per stage, with
m = max(n+2, stage.bit_length(), len(prefix).bit_length()), at which
every point j <= stage is exact; the slack is S = d >> (n+2) and the
gap limit 2S, and b is located by cross-multiplied bisection.  Within
one stage and index, the canonical ladder (least length ell, then
least positions in the value-sorted domain) comes from an
exact-length count per final f in the window: a ladder ending at f may
use only the members clause (v) admits against f, decided per pair as
0 < num and num * d * c_d < c_n * (P_f - P_k + S) * d_f * d_k with
num = n_f * d_k - n_k * d_f, so the g-values never share a
denominator.  Ladders of every length from max(2, least hop count) up
to one hop per member after 0 exist, and the least of the finals'
lex-first ladders at the least such length, read back as Fractions
P_k / d, is accepted solely by check_requirement.

The search walks distance classes backward from each final, keying b
at one scale per construction; this reference counts exact lengths
forward at a scale per stage.  The two share only check_requirement,
RequirementTuple and the StepRecord both answer with, and the test
suite holds their records to equality.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .approximations import Approximation
from .construction import RequirementTuple, StepRecord, check_requirement
from .witnesses import SolovayWitness, enumerate_domain


def oracle_min_hit(n: int, prev_index: int, witness: SolovayWitness,
                   b: Approximation, stage_cap: int) -> StepRecord | None:
    """The step-n record at the least hitting stage up to the cap, or None.

    "Some candidate hits at stage s" is monotone in s: the domain at s
    (j <= s with s_j <= s) only grows with s, and g(q_j) does not depend
    on s; the candidates (prev_index, s] only grow; whether a ladder is
    valid depends only on n, b_i, c and its own points; and
    _first_ladder finds a ladder whenever one exists.  So the probes
    gallop up from stage 1 (1, 2, 4, ..., then the cap) to the first
    stage that hits, and bisect between it and the last stage that
    missed.  The probe at the least hitting stage gives that stage, its
    least hitting index and that index's canonical ladder: exactly the
    hit of a scan of every stage from 1.
    """
    if n < 1:
        raise ValueError("searchable steps start at n = 1")
    if stage_cap < 0:
        raise ValueError("stage cap must be >= 0")
    miss, stage = 0, min(1, stage_cap)  # stage 0 has no candidate, so it always misses
    while True:
        if stage == miss:
            return None
        hit = _stage_hit(n, prev_index, witness, b, stage)
        if hit is not None:
            break
        miss, stage = stage, min(2 * stage, stage_cap)
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
    entries = sorted(enumerate_domain(witness.g, stage, m), key=lambda e: e[1])
    points = [x for _, x, _ in entries]
    if not points or points[0] != 0:
        return None
    nums = [v.numerator for _, _, v in entries]
    dens = [v.denominator for _, _, v in entries]
    for i in range(prev_index + 1, stage + 1):
        bi = b.term(i)
        tup = _first_ladder(n, bi, witness.c, entries, points, nums, dens, 1 << m)
        if tup is not None:
            return StepRecord(n, i, tup.values[-1], bi, tup, stage)
    return None


def _first_ladder(n: int, b: Fraction, c: Fraction,
                  entries: list[tuple[int, int, Fraction]], points: list[int],
                  nums: list[int], dens: list[int], d: int) -> RequirementTuple | None:
    """Canonical ladder to b over one stage's value-sorted entries, or None.

    points are the entries' points at scale d, and nums and dens their
    g-values' numerators and denominators.
    """
    bn, bd = b.numerator, b.denominator
    cut = bisect_left(points, bn * d, key=lambda x: x * bd)
    if cut < 3:
        return None
    slack = d >> (n + 2)
    gap_limit = 2 * slack
    finals = range(bisect_right(points, bn * d - gap_limit * bd, 0, cut,
                                key=lambda x: x * bd), cut)
    if not finals:
        return None
    feasible = []  # (least ell, members, hops to f) per final that has a ladder
    for f in finals:
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
    tup = RequirementTuple(tuple(entries[t][0] for t in best),
                           tuple(Fraction(points[t], d) for t in best),
                           tuple(entries[t][2] for t in best))
    return tup if check_requirement(n, b, c, tup) is None else None


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
