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

Any object with ``term(n)``, ``keys(n, m)`` and ``settle(m)`` methods
slots in here.

A generator provides term(n), an exact rational; keys(n, m), the
floor and ceiling of term(n) * 2**m, for a caller that compares terms
only with integers at the scale 2**m; and settle(m), an index n0 past
which the keys repeat by parity: keys(n, m) == keys(n - 2, m) for every
n >= n0 + 2, so a caller need read keys(n, m) only up to n0 + 1 (each
generator proves its bound in its settle).  The dyadic generators give keys
in closed form: with u = U / D, v = V / D, once w*n - m >= bits(V) they
follow from divmod(U * 2**m, D) and the sign of V alone, at a cost that
does not grow with n or w (see _Dyadic.keys).  PrependGen and
ComplementGen map their inner keys, PrefixMaxGen takes their running
maximum, and Table takes keys from term.  All terms lie in [0, 1];
generator constructors validate the range where it is decidable from
the parameters.
"""
from __future__ import annotations

import enum
from fractions import Fraction
from functools import cached_property

from .records import Record

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


def _fraction_keys(q: Fraction, m: int) -> tuple[int, int]:
    """(floor, ceil) of q * 2**m."""
    fl, r = divmod(q.numerator << m, q.denominator)
    return fl, fl + (r != 0)


class _Dyadic(Record):
    """Fields and keys of the dyadic generators: with u = U / D, v = V / D and
    k = w*n, term(n) = u - V' / (D * 2**k), where V' = signs[n % 2] * V."""

    _fields = ("u", "v", "w")
    signs = (1, 1)  # a class constant, not a field

    def __init__(self, u: Fraction, v: Fraction, w: int) -> None:
        if w < 1:
            raise ValueError("decay rate w must be >= 1")
        super().__init__(u, v, w)

    @cached_property
    def _pair(self) -> tuple[int, int, int, int]:
        """(U, V, D, the bit length of |V|)."""
        u, v, d = over_one_denominator(self.u, self.v)
        return u, v, d, abs(v).bit_length()

    def keys(self, n: int, m: int) -> tuple[int, int]:
        """(floor, ceil) of term(n) * 2**m, on integers of O(m + bits(U, V, D)) bits.

        term(n) * 2**m = fl + (r - e) / D, with fl, r = divmod(U * 2**m, D)
        and e = V' / 2**(k-m).  Once k - m is at least the bit length of
        |V|, |e| < 1, and since 0 <= r < D the sign of V' alone decides:
        V' = 0 gives (fl, fl + (r != 0)); V' < 0 puts r - e in (r, r + 1),
        within (0, D), so (fl, fl + 1); V' > 0 puts r - e in (r - 1, r),
        within (0, D) when r > 0, so (fl, fl + 1), and within (-1, 0) when
        r = 0, so (fl - 1, fl).  Below that threshold k < m + bits(V), so
        the exact division stays that small.
        """
        u, v, d, v_bits = self._pair
        v *= self.signs[n % 2]
        k = self.w * n
        if k - m < v_bits:
            fl, r = divmod(((u << k) - v) << m, d << k)
            return fl, fl + (r != 0)
        fl, r = divmod(u << m, d)
        if v > 0 and r == 0:
            return fl - 1, fl
        return fl, fl + (v != 0 or r != 0)

    def settle(self, m: int) -> int:
        """n0 = ceil((m + bits(V)) / w): keys(n, m) == keys(n - 2, m) for n >= n0 + 2.

        For n >= n0, w*n - m >= bits(V), so keys takes its closed form,
        which reads n only through the sign of V' = signs[n % 2] * V.  So
        n and n - 2 >= n0, of one parity, have equal keys.
        """
        return -(-(m + self._pair[3]) // self.w)


class AffineDyadic(_Dyadic):
    """term(n) = u - v * 2**(-w*n); all terms lie between u-v and u."""

    def __init__(self, u: Fraction, v: Fraction, w: int) -> None:
        super().__init__(u, v, w)
        _check_unit(self.u, "affine-dyadic u")
        _check_unit(self.u - self.v, "affine-dyadic first term")

    def term(self, n: int) -> Fraction:
        u, v, d, _ = self._pair
        k = self.w * n
        return Q((u << k) - v, d << k)


class AlternatingDyadic(_Dyadic):
    """term(n) = u + (-1)**n * v * 2**(-w*n); oscillates around u."""

    signs = (-1, 1)

    def __init__(self, u: Fraction, v: Fraction, w: int) -> None:
        super().__init__(u, v, w)
        if self.v < ZERO:
            raise ValueError("oscillation amplitude must be >= 0")
        _check_unit(self.u + self.v, "alternating-dyadic upper excursion")
        _check_unit(self.u - self.v, "alternating-dyadic lower excursion")

    def term(self, n: int) -> Fraction:
        u, v, d, _ = self._pair
        k = self.w * n
        return Q((u << k) + (v if n % 2 == 0 else -v), d << k)


class Table(Record):
    """Explicit finite prefix followed by a constant tail."""

    __slots__ = _fields = ("entries", "tail")

    def __init__(self, entries: tuple[Fraction, ...], tail: Fraction) -> None:
        for i, e in enumerate(entries):
            _check_unit(e, f"table entry {i}")
        _check_unit(tail, "table tail")
        super().__init__(entries, tail)

    def term(self, n: int) -> Fraction:
        if n < len(self.entries):
            return self.entries[n]
        return self.tail

    def keys(self, n: int, m: int) -> tuple[int, int]:
        return _fraction_keys(self.term(n), m)

    def settle(self, m: int) -> int:
        """len(entries): from there on every term is the tail."""
        return len(self.entries)


class PrependGen(Record):
    __slots__ = _fields = ("head", "inner")

    def __init__(self, head: Fraction, inner: object) -> None:
        _check_unit(head, "prepended head")
        super().__init__(head, inner)

    def term(self, n: int) -> Fraction:
        if n == 0:
            return self.head
        return self.inner.term(n - 1)

    def keys(self, n: int, m: int) -> tuple[int, int]:
        if n == 0:
            return _fraction_keys(self.head, m)
        return self.inner.keys(n - 1, m)

    def settle(self, m: int) -> int:
        """The inner n0 plus 1: for n >= n0 + 3, keys(n, m) and keys(n - 2, m)
        are the inner keys at n - 1 and n - 3 >= n0, of one parity."""
        return self.inner.settle(m) + 1


class PrefixMaxGen(Record):
    """Running maximum of inner; term(n) and keys(n, m) extend the maxima already computed."""

    __slots__ = ("inner", "maxima", "key_maxima")
    _fields = ("inner",)

    def __init__(self, inner: object) -> None:
        super().__init__(inner)
        # maxima[n] = max(inner.term(0..n)); key_maxima[m][n] = the running maximum
        # of inner.keys(0..n, m); not fields, so not part of equality, hash or repr
        object.__setattr__(self, "maxima", [])
        object.__setattr__(self, "key_maxima", {})

    def term(self, n: int) -> Fraction:
        maxima = self.maxima
        while len(maxima) <= n:
            t = self.inner.term(len(maxima))
            maxima.append(t if not maxima or t > maxima[-1] else maxima[-1])
        return maxima[n]

    def keys(self, n: int, m: int) -> tuple[int, int]:
        """Floor and ceiling are monotone, so the keys of the running maximum
        are the running maxima of the inner keys: no exact term is formed."""
        maxima = self.key_maxima.setdefault(m, [])
        while len(maxima) <= n:
            fl, ce = self.inner.keys(len(maxima), m)
            if maxima:
                fl, ce = max(fl, maxima[-1][0]), max(ce, maxima[-1][1])
            maxima.append((fl, ce))
        return maxima[n]

    def settle(self, m: int) -> int:
        """The inner n0 plus 1: from n0 on the inner keys take two values, one
        per parity, and from n0 + 1 on both are in the running maximum, so
        it is constant.  The inner n0 alone is too early: keys(n0 + 2, m)
        may take in the odd value that keys(n0, m) has not seen."""
        return self.inner.settle(m) + 1


class ComplementGen(Record):
    __slots__ = _fields = ("inner",)

    def term(self, n: int) -> Fraction:
        return ONE - self.inner.term(n)

    def keys(self, n: int, m: int) -> tuple[int, int]:
        fl, ce = self.inner.keys(n, m)
        return (1 << m) - ce, (1 << m) - fl

    def settle(self, m: int) -> int:
        """The inner n0: keys(n, m) is a function of the inner keys(n, m) alone."""
        return self.inner.settle(m)


class Approximation(Record):
    """A term generator plus a kind claim, checked by check_kind_prefix."""

    __slots__ = _fields = ("gen", "kind")

    def __init__(self, gen: object, kind: Kind = Kind.GENERAL) -> None:
        super().__init__(gen, kind)

    def term(self, n: int) -> Fraction:
        if n < 0:
            raise ValueError("term index must be >= 0")
        value = self.gen.term(n)
        if not (0 <= value.numerator <= value.denominator):
            raise ValueError(f"approximation term {n} out of [0,1]: {value}")
        return value

    def keys(self, n: int, m: int) -> tuple[int, int]:
        """(floor, ceil) of term(n) * 2**m, from the generator's keys.

        Raises exactly when term(n) does, with the same message: fl >= 0
        and ce <= 2**m hold exactly when 0 <= term(n) <= 1, and only the
        error path builds the exact term.
        """
        if n < 0:
            raise ValueError("term index must be >= 0")
        fl, ce = self.gen.keys(n, m)
        if fl < 0 or ce > 1 << m:
            raise ValueError(f"approximation term {n} out of [0,1]: {self.gen.term(n)}")
        return fl, ce

    def settle(self, m: int) -> int:
        """The generator's n0: keys(n, m) == keys(n - 2, m) for every n >= n0 + 2."""
        return self.gen.settle(m)


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
