"""Computable approximations: rational sequences with convergence claims.

An Approximation pairs a declarative term generator with a kind claim
(general / left-c.e. / right-c.e.).  Kind claims are metadata: they are
checked on finite prefixes by check_kind_prefix, never assumed, and a
claim derived from a checked one (a running maximum, a complement) is
not checked again.

Generators:

* ``AffineDyadic(u, v, w)``       -- term(n) = u - v * 2**(-w*n)
* ``AlternatingDyadic(u, v, w)``  -- term(n) = u + (-1)**n * v * 2**(-w*n)
* ``Table(entries, tail)``        -- explicit prefix, then the constant tail
* ``PrependGen(head, inner)``     -- head, then inner shifted by one
* ``PrefixMaxGen(inner)``         -- running maximum of inner
* ``ComplementGen(inner)``        -- 1 - inner

Any object with ``term(n)`` and ``ratio(n)`` methods slots in here.

A generator provides term(n), an exact rational, and ratio(n), the same
term as an unreduced integer pair (p, q) with q > 0, so that a caller
which only needs floor(term(n) * 2**m) can skip the gcd of a Fraction.
All terms lie in [0, 1]; generator constructors validate the range
where it is decidable from the parameters.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

Q = Fraction

ZERO = Q(0)
ONE = Q(1)


class Kind(enum.Enum):
    GENERAL = "general"
    LEFT_CE = "left_ce"      # claimed nondecreasing
    RIGHT_CE = "right_ce"    # claimed nonincreasing


def over_one_denominator(u: Fraction, v: Fraction) -> tuple[int, int, int]:
    """(U, V, D) with u = U / D and v = V / D, D the product of the denominators."""
    (un, ud), (vn, vd) = u.as_integer_ratio(), v.as_integer_ratio()
    return un * vd, vn * ud, ud * vd


def _check_unit(q: Fraction, what: str) -> None:
    if not (ZERO <= q <= ONE):
        raise ValueError(f"{what} out of [0,1]: {q}")


@dataclass(frozen=True)
class AffineDyadic:
    """term(n) = u - v * 2**(-w*n); all terms lie between u-v and u."""

    u: Fraction
    v: Fraction
    w: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("decay rate w must be >= 1")
        _check_unit(self.u, "affine-dyadic u")
        _check_unit(self.u - self.v, "affine-dyadic first term")

    def term(self, n: int) -> Fraction:
        return Q(*self.ratio(n))

    @cached_property
    def _pair(self) -> tuple[int, int, int]:
        return over_one_denominator(self.u, self.v)

    def ratio(self, n: int) -> tuple[int, int]:
        u, v, d = self._pair
        k = self.w * n
        return (u << k) - v, d << k


@dataclass(frozen=True)
class AlternatingDyadic:
    """term(n) = u + (-1)**n * v * 2**(-w*n); oscillates around u."""

    u: Fraction
    v: Fraction
    w: int

    def __post_init__(self) -> None:
        if self.w < 1:
            raise ValueError("decay rate w must be >= 1")
        if self.v < ZERO:
            raise ValueError("oscillation amplitude must be >= 0")
        _check_unit(self.u + self.v, "alternating-dyadic upper excursion")
        _check_unit(self.u - self.v, "alternating-dyadic lower excursion")

    def term(self, n: int) -> Fraction:
        return Q(*self.ratio(n))

    @cached_property
    def _pair(self) -> tuple[int, int, int]:
        return over_one_denominator(self.u, self.v)

    def ratio(self, n: int) -> tuple[int, int]:
        u, v, d = self._pair
        k = self.w * n
        return (u << k) + (v if n % 2 == 0 else -v), d << k


@dataclass(frozen=True)
class Table:
    """Explicit finite prefix followed by a constant tail."""

    entries: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        for i, e in enumerate(self.entries):
            _check_unit(e, f"table entry {i}")
        _check_unit(self.tail, "table tail")

    def term(self, n: int) -> Fraction:
        if n < len(self.entries):
            return self.entries[n]
        return self.tail

    def ratio(self, n: int) -> tuple[int, int]:
        return self.term(n).as_integer_ratio()


@dataclass(frozen=True)
class PrependGen:
    head: Fraction
    inner: object

    def __post_init__(self) -> None:
        _check_unit(self.head, "prepended head")

    def term(self, n: int) -> Fraction:
        if n == 0:
            return self.head
        return self.inner.term(n - 1)

    def ratio(self, n: int) -> tuple[int, int]:
        if n == 0:
            return self.head.as_integer_ratio()
        return self.inner.ratio(n - 1)


@dataclass(frozen=True)
class PrefixMaxGen:
    """Running maximum of inner; term(n) extends the maxima already computed."""

    inner: object
    # maxima[m] = max(inner.term(0..m)); not part of equality, hash or repr
    maxima: list = field(default_factory=list, compare=False, repr=False)

    def term(self, n: int) -> Fraction:
        maxima = self.maxima
        while len(maxima) <= n:
            t = self.inner.term(len(maxima))
            maxima.append(t if not maxima or t > maxima[-1] else maxima[-1])
        return maxima[n]

    def ratio(self, n: int) -> tuple[int, int]:
        return self.term(n).as_integer_ratio()


@dataclass(frozen=True)
class ComplementGen:
    inner: object

    def term(self, n: int) -> Fraction:
        return ONE - self.inner.term(n)

    def ratio(self, n: int) -> tuple[int, int]:
        p, q = self.inner.ratio(n)
        return q - p, q


@dataclass(frozen=True)
class Approximation:
    """A term generator plus a kind claim, checked by check_kind_prefix."""

    gen: object
    kind: Kind = Kind.GENERAL

    def term(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("term index must be >= 0")
        value = self.gen.term(n)
        if not (0 <= value.numerator <= value.denominator):
            raise ValueError(f"approximation term {n} out of [0,1]: {value}")
        return value

    def keys(self, n: int, m: int) -> tuple[int, int]:
        """(floor, ceil) of term(n) * 2**m, from the generator's unreduced ratio.

        Raises exactly when term(n) does, with the same message.
        """
        if n < 0:
            raise ValueError("term index must be >= 0")
        p, q = self.gen.ratio(n)
        if not (0 <= p <= q):
            raise ValueError(f"approximation term {n} out of [0,1]: {Q(p, q)}")
        fl, rem = divmod(p << m, q)
        return fl, fl + (rem != 0)


def check_kind_prefix(a: Approximation, n_max: int) -> int | None:
    """First index n in 1..n_max where the kind claim breaks, else None.

    A violation at n means the pair (term(n-1), term(n)) moves the
    wrong way.  GENERAL claims nothing and never produces a violation.
    """
    if n_max < 0:
        raise ValueError("prefix length must be >= 0")
    if a.kind is Kind.GENERAL:
        return None
    prev = a.term(0)
    for n in range(1, n_max + 1):
        cur = a.term(n)
        if a.kind is Kind.LEFT_CE and cur < prev:
            return n
        if a.kind is Kind.RIGHT_CE and cur > prev:
            return n
        prev = cur
    return None
