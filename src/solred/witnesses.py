"""Reducibility witnesses and their finite-prefix checkers.

A Solovay-style witness is a staged partial function g on the dyadic
rationals in [0, 1) together with a positive rational constant c.  The
function is given declaratively:

* an input enumeration q_0, q_1, ... of dyadics with q_0 = 0 (the
  canonical order 0, 1/2, 1/4, 3/4, 1/8, 3/8, ... or that order with an
  explicit finite-prefix permutation);
* a definition-stage schedule telling at which stage each q_j becomes
  defined (affine in j, with finite overrides, "never" allowed);
* a value rule (affine in q, with finite table overrides) fixing
  g(q_j) once and for all -- values never change once defined.

The enumeration gives each point as an integer pair, q_j = numerator /
2**exponent, and the value rule turns it into g(q_j) as one unreduced
integer pair.  The search and the oracle read points only as integers
at a power-of-two scale; point(j) and canonical_point(j) are the
Fraction views of the pair.

An approximation-pair witness (S2aWitness) is two computable
approximations and a constant; the claimed relation between them is
checked prefix-wise against reference reals via enclosures.

All checkers are budgeted and three-valued: each verdict comes from one
kernel, ``certify`` (defined in reals and re-exported here), which
decides an inequality from interval endpoints as Holds, Fails or
Unknown, on integers: each side of an inequality over one denominator,
cross-multiplied.  More budget can only move Unknown to a certified
verdict, never flip one.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .approximations import ONE, ZERO, Approximation, over_one_denominator
from .reals import Interval, ReferenceReal, S2aVerdict, certify, enclose, left_cut_member
from .records import Record

Q = Fraction


def canonical_dyadic(j: int) -> tuple[int, int]:
    """j-th canonical dyadic as (numerator, exponent), (0, 0) or with an odd numerator."""
    if j < 0:
        raise ValueError("enumeration index must be >= 0")
    if j == 0:
        return 0, 0
    level = j.bit_length()
    return 2 * (j - (1 << (level - 1))) + 1, level


def _at_scale(numerator: int, exponent: int, m: int) -> int:
    """numerator / 2**exponent * 2**m; raises ValueError when not exact at that scale."""
    if exponent > m:
        raise ValueError(f"domain point {Q(numerator, 1 << exponent)} is not exact "
                         f"at scale 2**{m}")
    return numerator << (m - exponent)


def canonical_point(j: int) -> Fraction:
    """j-th dyadic in the canonical order: 0, 1/2, 1/4, 3/4, 1/8, 3/8, ..."""
    numerator, exponent = canonical_dyadic(j)
    return Q(numerator, 1 << exponent)


def canonical_index(q: Fraction) -> int | None:
    """Inverse of canonical_point on Q cap [0,1); None off the enumeration."""
    if q == ZERO:
        return 0
    if q < ZERO or q >= ONE:
        return None
    den = q.denominator
    if den & (den - 1) != 0:
        return None  # not dyadic
    level = den.bit_length() - 1
    return (1 << (level - 1)) + (q.numerator - 1) // 2


class DyadicEnumeration(Record):
    """Canonical dyadic order, optionally permuted on a finite prefix.

    ``prefix`` must be a permutation of the first len(prefix) canonical
    points and must keep 0 at index 0, so q_0 = 0 always holds.
    """

    _fields = ("prefix",)

    def __init__(self, prefix: tuple[Fraction, ...] = ()) -> None:
        if prefix:
            if prefix[0] != ZERO:
                raise ValueError("enumeration prefix must keep 0 at index 0")
            expected = {canonical_point(j) for j in range(len(prefix))}
            if set(prefix) != expected:  # the canonical points are distinct
                raise ValueError("prefix must permute the first canonical points")
        super().__init__(prefix)

    @cached_property
    def _prefix_index(self) -> dict[Fraction, int]:
        return {q: j for j, q in enumerate(self.prefix)}

    @cached_property
    def _prefix_dyadics(self) -> tuple[tuple[int, int], ...]:
        return tuple((q.numerator, q.denominator.bit_length() - 1) for q in self.prefix)

    def dyadic(self, j: int) -> tuple[int, int]:
        """q_j as (numerator, exponent): q_j = numerator / 2**exponent."""
        if j < len(self.prefix):
            return self._prefix_dyadics[j]
        return canonical_dyadic(j)

    def scaled(self, j: int, m: int) -> int:
        """q_j * 2**m; raises ValueError when q_j is not exact at that scale."""
        level = j.bit_length()
        if 0 < level <= m and j >= len(self.prefix):  # canonical_dyadic(j), inline
            return (2 * j + 1 - (1 << level)) << (m - level)
        return _at_scale(*self.dyadic(j), m)

    def point(self, j: int) -> Fraction:
        numerator, exponent = self.dyadic(j)
        return Q(numerator, 1 << exponent)

    def index_of(self, q: Fraction) -> int | None:
        # The prefix permutes the first canonical points, so a point
        # outside it has no canonical index below len(prefix).
        hit = self._prefix_index.get(q)
        return canonical_index(q) if hit is None else hit


NEVER = None  # stage value meaning "never defined"


class StageSchedule(Record):
    """s_j = slope*j + offset with finite overrides; None means never."""

    _fields = ("slope", "offset", "overrides")

    def __init__(self, slope: int = 0, offset: int = 0,
                 overrides: tuple[tuple[int, int | None], ...] = ()) -> None:
        if slope < 0 or offset < 0:
            raise ValueError("stage schedule parameters must be >= 0")
        for j, s in overrides:
            if j < 0 or (s is not None and s < 0):
                raise ValueError("stage override out of range")
        super().__init__(slope, offset, overrides)

    @cached_property
    def _override_map(self) -> dict[int, int | None]:
        return dict(self.overrides)

    def stage_of(self, j: int) -> int | None:
        if j in self._override_map:
            return self._override_map[j]
        return self.slope * j + self.offset


class ValueRule(Record):
    """g(q_j) = u*q_j + v, with finite index-keyed table overrides.

    The affine part is validated to map [0,1) into [0,1):
    0 <= v < 1 and 0 <= u + v <= 1.
    """

    _fields = ("u", "v", "overrides")

    def __init__(self, u: Fraction = Q(1, 2), v: Fraction = ZERO,
                 overrides: tuple[tuple[int, Fraction], ...] = ()) -> None:
        if not (ZERO <= v < ONE):
            raise ValueError(f"affine value rule escapes [0,1) at 0: v={v}")
        if not (ZERO <= u + v <= ONE):
            raise ValueError(f"affine value rule escapes [0,1): u+v={u + v}")
        for j, val in overrides:
            if j < 0 or not (ZERO <= val < ONE):
                raise ValueError("value override out of range")
        super().__init__(u, v, overrides)

    @cached_property
    def _override_map(self) -> dict[int, Fraction]:
        return dict(self.overrides)

    @cached_property
    def _affine(self) -> tuple[int, int, int]:
        return over_one_denominator(self.u, self.v)

    def affine_at(self, e: int) -> tuple[int, int, int]:
        """(a, b, q) with u*x + v = (a * num + b) / q for every x = num / 2**e, q > 0."""
        a, b, d = self._affine
        return a, b << e, d << e

    def ratio(self, j: int, num: int, e: int) -> tuple[int, int]:
        """g(q_j) for q_j = num / 2**e as an unreduced integer pair (p, q), q > 0."""
        hit = self._override_map.get(j)
        if hit is not None:
            return hit.numerator, hit.denominator
        a, b, q = self.affine_at(e)
        return a * num + b, q


class StagedPartialFunction(Record):
    __slots__ = _fields = ("enumeration", "schedule", "rule")

    # The default parts are records, immutable, so one instance of each serves every call.
    def __init__(self, enumeration: DyadicEnumeration = DyadicEnumeration(),
                 schedule: StageSchedule = StageSchedule(), rule: ValueRule = ValueRule()) -> None:
        if schedule.stage_of(0) is None:
            raise ValueError("q_0 = 0 must become defined at some finite stage")
        super().__init__(enumeration, schedule, rule)

    def value_at(self, j: int) -> Fraction:
        return Q(*self.rule.ratio(j, *self.enumeration.dyadic(j)))


class SolovayWitness(Record):
    __slots__ = _fields = ("g", "c")

    def __init__(self, g: StagedPartialFunction, c: Fraction) -> None:
        if c <= ZERO:
            raise ValueError(f"witness constant must be positive: {c}")
        super().__init__(g, c)


class S2aWitness(Record):
    __slots__ = _fields = ("alpha_approx", "beta_approx", "c")

    def __init__(self, alpha_approx: Approximation, beta_approx: Approximation,
                 c: Fraction) -> None:
        if c <= ZERO:
            raise ValueError(f"witness constant must be positive: {c}")
        super().__init__(alpha_approx, beta_approx, c)


def eval_staged(g: StagedPartialFunction, q: Fraction, stage: int) -> tuple[int, Fraction] | None:
    """(s_j, g(q)) as of the given stage, for q = q_j; None while still pending.

    Defined exactly when q = q_j for some j whose definition stage s_j has
    arrived.  Monotone in stage, and the value never changes once defined.
    """
    j = g.enumeration.index_of(q)
    if j is None:
        return None
    s = g.schedule.stage_of(j)
    if s is None or s > stage:
        return None
    return s, g.value_at(j)


def enumerate_domain(g: StagedPartialFunction, stage: int,
                     m: int) -> list[tuple[int, int, tuple[int, int]]]:
    """Dovetailed finite domain at a stage: j <= stage with s_j <= stage.

    Returns (index, q_j * 2**m, (p, q)) triples in ascending index order:
    each point is the integer at scale 2**m, and a point not exact at
    that scale raises ValueError; g(q_j) = p / q is the value rule's
    unreduced integer pair, q > 0.

    q_0, the prefix and every index with a stage or value override are
    read one at a time through stage_of, dyadic and ratio.  Every other
    index is in the domain iff slope*j + offset <= stage, that is up to
    the schedule's last index, (stage - offset) // slope or stage when
    slope = 0, and has the canonical point and the affine value, so the
    indices between two read one at a time are built one canonical level
    at a time.
    """
    schedule, rule = g.schedule, g.rule
    if schedule.slope:  # at most stage, and below 0 when offset > stage
        last = (stage - schedule.offset) // schedule.slope
    else:
        last = stage if schedule.offset <= stage else -1
    singles = sorted({0, *range(min(len(g.enumeration.prefix), stage + 1)),
                      *(j for j, _ in schedule.overrides if j <= stage),
                      *(j for j, _ in rule.overrides if j <= stage)})
    out: list[tuple[int, int, tuple[int, int]]] = []
    start = 0  # the least index not yet read
    for k in (*singles, stage + 1):
        hi = min(k, last + 1)
        while start < hi:  # a pass per canonical level e: 2**(e-1) <= j < 2**e
            e = start.bit_length()
            top = min(hi, 1 << e)
            if e > m:
                _at_scale(*canonical_dyadic(start), m)  # raises for the level's first index
            a, b, q = rule.affine_at(e)
            shift, base = m - e, 1 - (1 << e)  # q_j = (2j + base) / 2**e on the level
            nums = zip(range(start, top), range(2 * start + base, 2 * top + base, 2))
            out += [(j, num << shift, (a * num + b, q)) for j, num in nums]
            start = top
        if k <= stage:
            s = schedule.stage_of(k)
            if s is not None and s <= stage:
                num, e = g.enumeration.dyadic(k)
                out.append((k, _at_scale(num, e, m), rule.ratio(k, num, e)))
        start = k + 1
    return out


class SolovayVerdict(enum.Enum):
    HOLDS = "holds"
    FAILS_LOWER = "fails_lower"    # g(q) >= alpha certified
    FAILS_UPPER = "fails_upper"    # alpha - g(q) >= c*(beta - q) certified
    G_UNDEFINED = "g_undefined"
    UNKNOWN = "unknown"


def solovay_sides(a_box: Interval, b_box: Interval, value: Fraction, q: Fraction,
                  c: Fraction) -> tuple[Interval, Interval]:
    """alpha - value and c*(beta - q) as integer boxes, from enclosures of alpha and beta."""
    (a_lo, a_hi, ad), (b_lo, b_hi, bd), (cn, cd) = a_box, b_box, c.as_integer_ratio()
    (v, vd), (q, qd) = value.as_integer_ratio(), q.as_integer_ratio()
    return (Interval(a_lo * vd - v * ad, a_hi * vd - v * ad, ad * vd),
            Interval(cn * (b_lo * qd - q * bd), cn * (b_hi * qd - q * bd), cd * bd * qd))


def solovay_verdict(diff: Interval, gap: Interval) -> SolovayVerdict:
    """Decide 0 < alpha - g(q) < c*(beta - q) from integer boxes of its two sides.

    A certified failure of the lower bound is reported before one of the
    upper bound.
    """
    lower = certify(0, 0, diff.lo, diff.hi, True)
    upper = certify(diff.lo * gap.d, diff.hi * gap.d, gap.lo * diff.d, gap.hi * diff.d, True)
    if lower is S2aVerdict.FAILS:
        return SolovayVerdict.FAILS_LOWER
    if upper is S2aVerdict.FAILS:
        return SolovayVerdict.FAILS_UPPER
    if lower is upper is S2aVerdict.HOLDS:
        return SolovayVerdict.HOLDS
    return SolovayVerdict.UNKNOWN


def check_solovay_at(w: SolovayWitness, alpha: ReferenceReal, beta: ReferenceReal,
                     q: Fraction, stage: int, budget: int) -> SolovayVerdict | None:
    """Spot-check the Solovay condition 0 < alpha - g(q) < c*(beta - q).

    None when refinement within the budget does not certify q < beta:
    the condition claims nothing there.  Otherwise enclosures of alpha
    and beta at width <= 2**-budget drive the three-valued verdict.
    """
    if left_cut_member(beta, q, budget) is not S2aVerdict.HOLDS:
        return None
    hit = eval_staged(w.g, q, stage)
    if hit is None:
        return SolovayVerdict.G_UNDEFINED
    return solovay_verdict(*solovay_sides(enclose(alpha, budget), enclose(beta, budget),
                                          hit[1], q, w.c))


class S2aStepCheck(NamedTuple):
    """Per-index outcome of an approximation-pair prefix check, in integers.

    alpha_err = (lo, hi, d) bounds |alpha - a_n| over the whole enclosure
    alpha_box, lo / d <= |alpha - a_n| <= hi / d, and beta_err bounds
    |beta - b_n| over beta_box; bound = (p, q) is c*(beta_err lo + 2**-n).
    """

    n: int
    verdict: S2aVerdict
    alpha_err: Interval
    beta_err: Interval
    bound: tuple[int, int]
    alpha_box: Interval
    beta_box: Interval


def _abs_err_bounds(box: Interval, t: Fraction) -> Interval:
    """|x - t| over x in the box, with lower bound 0 when t lies in it."""
    (lo, hi, d), (p, q) = box, t.as_integer_ratio()
    lo, hi, d = lo * q - p * d, hi * q - p * d, d * q  # x - t at the ends
    if lo >= 0:
        return Interval(lo, hi, d)
    return Interval(-hi, -lo, d) if hi <= 0 else Interval(0, max(-lo, hi), d)


def _step_check(alpha: ReferenceReal, beta: ReferenceReal, a: Fraction, b: Fraction,
                c: Fraction, n: int, guard: int, strict: bool) -> S2aStepCheck:
    """The bound of check_strict_at, decided with <= when not strict."""
    if guard < 0:
        raise ValueError("guard must be >= 0")
    a_box, b_box = enclose(alpha, n + guard), enclose(beta, n + guard)
    a_err, b_err = _abs_err_bounds(a_box, a), _abs_err_bounds(b_box, b)
    (a_lo, a_hi, ad), (b_lo, b_hi, bd), (cn, cd) = a_err, b_err, c.as_integer_ratio()
    # c*(|beta - b| + 2**-n) = cn * (|beta - b| * 2**n + bd) / (cd * bd * 2**n)
    r_lo, r_hi, rd = cn * ((b_lo << n) + bd), cn * ((b_hi << n) + bd), (cd * bd) << n
    verdict = certify(a_lo * rd, a_hi * rd, r_lo * ad, r_hi * ad, strict)
    return S2aStepCheck(n, verdict, a_err, b_err, (r_lo, rd), a_box, b_box)


def check_s2a_prefix(w: S2aWitness, alpha: ReferenceReal, beta: ReferenceReal,
                     n_max: int, guard: int) -> list[S2aStepCheck]:
    """Check |alpha - a_n| <= c*(|beta - b_n| + 2**-n) for n = 0..n_max.

    Enclosures at width 2**-(n+guard) make both sides exact interval
    bounds; Holds and Fails are certified strictly, everything else is
    Unknown.  Larger guard can only sharpen Unknown entries.
    """
    return [_step_check(alpha, beta, w.alpha_approx.term(n), w.beta_approx.term(n),
                        w.c, n, guard, False)
            for n in range(n_max + 1)]


def check_strict_at(alpha: ReferenceReal, beta: ReferenceReal,
                    a: Fraction, b: Fraction, c: Fraction,
                    n: int, guard: int) -> S2aStepCheck:
    """Certify the strict bound |alpha - a| < c*(|beta - b| + 2**-n).

    Same enclosure discipline as check_s2a_prefix but with the strict
    comparison the step construction promises: Holds only when the
    certified upper error is strictly inside the bound, Fails only when
    the certified lower error already violates it.
    """
    return _step_check(alpha, beta, a, b, c, n, guard, True)
