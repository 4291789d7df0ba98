"""Exact rational numerics: reference reals and their integer enclosures.

A ReferenceReal is a small closed-form expression denoting a real in
[0, 1].  Every constructor keeps enough structure to produce, on
demand, an interval that provably contains the value (an *enclosure*),
as integer endpoints over one denominator.  Enclosures are the only way
the rest of the package ever looks at a reference real, so every
downstream certification is a finite integer fact about them.

Supported constructors:

* ``ExactRational(v)``          -- the rational v itself
* ``DyadicSeries(exponents)``   -- sum of 2**(-e_k) over a strictly
  increasing positive integer sequence e_k, either the affine family
  e_k = s*k + t (s >= 1, t >= 1) or an explicit finite list
* ``Scale(inner, factor)``      -- factor * inner, factor in (0, 1]
* ``Average(left, right)``      -- (left + right) / 2
* ``Complement(inner)``         -- 1 - inner

A series is enclosed from an integer partial sum (closed-form for affine
exponents), N and N + 1 over 2**e, so any number of terms costs a few
integer operations.  A Scale multiplies by its factor's numerator and
denominator, an Average cross-multiplies, a Complement takes d - hi and
d - lo.  enclose (by width) and enclose_at_tick (by refinement round,
the budget unit of the three-valued left-cut test) share one recursive
walk and differ only in how a series picks its terms.

Every comparison against an enclosure goes through one kernel, certify,
which decides an inequality between two interval-valued sides, each
cross-multiplied to integers, as Holds, Fails or Unknown; the witness
checkers use the same kernel.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from fractions import Fraction
from typing import NamedTuple

from .records import Record

ZERO = Fraction(0)
ONE = Fraction(1)
OPEN_UNIT_BUDGET = 64  # refinement ticks certify_in_open_unit spends on each side


class Interval(NamedTuple):
    """The closed interval [lo / d, hi / d]: integers lo <= hi over one d > 0."""

    lo: int
    hi: int
    d: int


class S2aVerdict(enum.Enum):
    HOLDS = "holds"
    FAILS = "fails"
    UNKNOWN = "unknown"


def certify(lhs_lo: int, lhs_hi: int, rhs_lo: int, rhs_hi: int, strict: bool) -> S2aVerdict:
    """Decide lhs < rhs (strict) or lhs <= rhs for lhs in [lhs_lo, lhs_hi]
    and rhs in [rhs_lo, rhs_hi], integers over one common denominator.

    Holds when the inequality holds at every pair of points of the two
    boxes, Fails when it holds at none, Unknown otherwise: interval
    certification in the sense of R. E. Moore, *Interval Analysis*, 1966.
    """
    if (lhs_hi < rhs_lo) if strict else (lhs_hi <= rhs_lo):
        return S2aVerdict.HOLDS
    if (lhs_lo >= rhs_hi) if strict else (lhs_lo > rhs_hi):
        return S2aVerdict.FAILS
    return S2aVerdict.UNKNOWN


class ReferenceReal(Record):
    """Base class for closed-form reals in [0, 1]; see module docstring."""

    __slots__ = ()


class ExactRational(ReferenceReal):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        if not (ZERO <= value <= ONE):
            raise ValueError(f"exact rational out of [0,1]: {value}")
        super().__init__(value)


class AffineExponents(Record):
    """e_k = s*k + t with integer s >= 1, t >= 1 (strictly increasing)."""

    __slots__ = _fields = ("s", "t")

    def __init__(self, s: int, t: int) -> None:
        if s < 1 or t < 1:
            raise ValueError("affine exponent family needs s >= 1 and t >= 1")
        super().__init__(s, t)

    def exponent(self, k: int) -> int:
        return self.s * k + self.t

    def count(self) -> int | None:
        return None  # infinite

    def numerator(self, k: int) -> int:
        """N with sum_{j<k} 2**-e_j = N / 2**e_{k-1}: a repunit in base 2**s."""
        return k if k < 2 else ((1 << (self.s * k)) - 1) // ((1 << self.s) - 1)

    def first_at_least(self, bits: int) -> int:
        """Least j >= 0 with e_j >= bits."""
        return max(0, -((self.t - bits) // self.s))


class ListExponents(Record):
    """Explicit finite strictly increasing positive exponent list."""

    __slots__ = _fields = ("values",)

    def __init__(self, values: tuple[int, ...]) -> None:
        prev = 0
        for e in values:
            if e <= prev:
                raise ValueError("exponent list must be strictly increasing and positive")
            prev = e
        super().__init__(values)

    def exponent(self, k: int) -> int:
        return self.values[k]

    def count(self) -> int | None:
        return len(self.values)

    def numerator(self, k: int) -> int:
        """N with sum_{j<k} 2**-e_j = N / 2**e_{k-1}."""
        return sum(1 << (self.values[k - 1] - e) for e in self.values[:k])

    def first_at_least(self, bits: int) -> int:
        """Least j >= 0 with e_j >= bits, or the count when there is none."""
        return bisect_left(self.values, bits)


class DyadicSeries(ReferenceReal):
    """Sum of 2**-e_k over the exponents.

    The first k terms sum to N / 2**e_{k-1} for an integer N (e_{-1} = 0),
    and the tail after them is at most 2**-e_{k-1}, since exponents grow by
    at least one per term.  The enclosure after k terms is therefore
    [N, N + 1] / 2**e_{k-1}, or the point N / 2**e_{k-1} once a list runs out.
    """

    __slots__ = _fields = ("exponents",)

    def _box(self, k: int, exhausted: bool) -> Interval:
        total = self.exponents.numerator(k)
        return Interval(total, total + (not exhausted),
                        1 << (self.exponents.exponent(k - 1) if k else 0))

    def after_terms(self, k: int) -> Interval:
        """Enclosure after the first k terms."""
        count = self.exponents.count()
        return self._box(k, False) if count is None or k < count else self._box(count, True)

    def within(self, num: int, den: int) -> Interval:
        """Enclosure after the fewest terms (at least one) with tail bound <= num / den > 0.

        Only running out of listed terms gives a point: a bound met exactly
        at the last listed term still gives [S, S + 2**-e_last].
        """
        bits = max(0, den.bit_length() - num.bit_length())
        bits += num << bits < den  # the least bits >= 0 with 2**-bits <= num / den
        j = self.exponents.first_at_least(bits)
        return self._box(j, True) if j == self.exponents.count() else self._box(j + 1, False)


class Scale(ReferenceReal):
    __slots__ = _fields = ("inner", "factor")

    def __init__(self, inner: ReferenceReal, factor: Fraction) -> None:
        if not (ZERO < factor <= ONE):
            raise ValueError(f"scale factor must be in (0,1]: {factor}")
        super().__init__(inner, factor)


class Average(ReferenceReal):
    __slots__ = _fields = ("left", "right")


class Complement(ReferenceReal):
    __slots__ = _fields = ("inner",)


def _refine(real: ReferenceReal, leaf, fn: int = 1, fd: int = 1) -> Interval:
    """Enclosure of real with each series leaf enclosed by leaf(series, fn, fd).

    fn / fd is the product of the Scale factors above the leaf.
    """
    if isinstance(real, DyadicSeries):
        return leaf(real, fn, fd)
    if isinstance(real, ExactRational):
        return Interval(real.value.numerator, real.value.numerator, real.value.denominator)
    if isinstance(real, Scale):
        p, q = real.factor.as_integer_ratio()
        lo, hi, d = _refine(real.inner, leaf, fn * p, fd * q)
        return Interval(lo * p, hi * p, d * q)
    if isinstance(real, Average):
        l_lo, l_hi, ld = _refine(real.left, leaf, fn, fd)
        r_lo, r_hi, rd = _refine(real.right, leaf, fn, fd)
        return Interval(l_lo * rd + r_lo * ld, l_hi * rd + r_hi * ld, 2 * ld * rd)
    if isinstance(real, Complement):
        lo, hi, d = _refine(real.inner, leaf, fn, fd)
        return Interval(d - hi, d - lo, d)
    raise TypeError(f"not a ReferenceReal: {real!r}")


def enclose(real: ReferenceReal, bits: int) -> Interval:
    """Integer enclosure of the value, of width <= 2**-bits, bits >= 0.

    Each series leaf sums the fewest terms whose tail bound is within the
    precision left after the Scale factors above it, 2**-bits / factor.
    Raising bits gives nested-or-equal intervals, since a series only
    ever adds terms.
    """
    if bits < 0:
        raise ValueError("bits must be >= 0")
    return _refine(real, lambda series, fn, fd: series.within(fd, fn << bits))


def enclose_at_tick(real: ReferenceReal, tick: int) -> Interval:
    """Enclosure after tick refinement rounds, one term of every series each.

    Successive ticks give nested-or-equal intervals shrinking to the
    value; this is the budget unit for left_cut_member.
    """
    if tick < 0:
        raise ValueError("tick must be >= 0")
    return _refine(real, lambda series, fn, fd: series.after_terms(tick))


def left_cut_member(real: ReferenceReal, q: Fraction, budget: int) -> S2aVerdict:
    """Budgeted test of q < value.

    HOLDS is certified when some enclosure has q < lo; FAILS when
    q >= hi (which covers the exact-rational tie q == value, since a
    point interval has hi == value); UNKNOWN when the budget runs out
    undecided.  Verdicts are monotone in budget: once certified, more
    budget never flips the answer, because enclosures are nested.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    p, d = q.numerator, q.denominator
    for tick in range(1, budget + 1):
        lo, hi, scale = enclose_at_tick(real, tick)
        verdict = certify(p * scale, p * scale, lo * d, hi * d, True)
        if verdict is not S2aVerdict.UNKNOWN:
            return verdict
    return S2aVerdict.UNKNOWN


def certify_in_open_unit(real: ReferenceReal) -> bool:
    """True when refinement certifies 0 < value and 0 < 1 - value within OPEN_UNIT_BUDGET ticks."""
    return all(left_cut_member(r, ZERO, OPEN_UNIT_BUDGET) is S2aVerdict.HOLDS
               for r in (real, Complement(real)))
