from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solred.reals import (
    AffineExponents,
    Average,
    Complement,
    DyadicSeries,
    ExactRational,
    Interval,
    ListExponents,
    S2aVerdict,
    Scale,
    certify_in_open_unit,
    enclose,
    enclose_at_tick,
    left_cut_member,
)

from conftest import box_fractions

THIRD_SERIES = DyadicSeries(AffineExponents(2, 2))


def exact_value(real) -> Q:
    """Closed-form value of a reference real, computed independently."""
    if isinstance(real, ExactRational):
        return real.value
    if isinstance(real, DyadicSeries):
        gen = real.exponents
        if isinstance(gen, ListExponents):
            return sum((Q(1, 2 ** e) for e in gen.values), Q(0))
        return Q(1, 2 ** gen.t) / (1 - Q(1, 2 ** gen.s))
    if isinstance(real, Scale):
        return real.factor * exact_value(real.inner)
    if isinstance(real, Average):
        return (exact_value(real.left) + exact_value(real.right)) / 2
    if isinstance(real, Complement):
        return 1 - exact_value(real.inner)
    raise AssertionError(f"unhandled constructor {type(real)}")


def test_interval_validation():
    """An enclosure is integer endpoints over one denominator, lo <= hi, d > 0."""
    box = Interval(1, 2, 4)
    lo, hi = box_fractions(box)
    assert (box.hi - box.lo, box.d) == (1, 4) and hi - lo == Q(1, 4)
    assert lo <= Q(1, 3) <= hi
    assert not lo <= Q(3, 4) <= hi
    point = Interval(2, 2, 4)
    assert point.lo == point.hi
    assert box.lo != box.hi
    # Complement and Scale reorder and rescale the ends; the walk keeps them ordered
    for real in (Complement(THIRD_SERIES), Scale(Complement(THIRD_SERIES), Q(2, 3)),
                 Average(THIRD_SERIES, Complement(THIRD_SERIES))):
        for bits in range(12):
            box = enclose(real, bits)
            assert box.lo <= box.hi and box.d > 0, (real, bits)
    with pytest.raises(ValueError):
        enclose(THIRD_SERIES, -1)


def test_enclose_exact_rational_is_point():
    box = enclose(ExactRational(Q(1, 2)), 3)
    assert box_fractions(box) == (Q(1, 2), Q(1, 2))


def test_enclose_geometric_series_tail_bound():
    box = enclose(THIRD_SERIES, 6)
    assert box_fractions(box) == (Q(21, 64), Q(22, 64))
    assert box.lo * 3 <= box.d <= box.hi * 3  # contains 1/3


def test_enclose_complement_of_point():
    box = enclose(Complement(ExactRational(Q(1, 4))), 4)
    assert box_fractions(box) == (Q(3, 4), Q(3, 4))


def test_enclose_scale_and_average_are_exact():
    scale = Scale(ExactRational(Q(1, 3)), Q(1, 4))
    avg = Average(ExactRational(Q(1, 12)), ExactRational(Q(1, 4)))
    lo, hi = box_fractions(enclose(scale, 20))
    assert lo == hi == Q(1, 12)
    assert box_fractions(enclose(avg, 20))[0] == Q(1, 6)


def test_enclose_finite_exponent_list_becomes_exact():
    series = DyadicSeries(ListExponents((1, 3)))
    lo, hi = box_fractions(enclose(series, 10))
    assert lo == hi == Q(5, 8)


def test_series_partial_sums_strictly_increase():
    prev = Q(-1)
    for k in range(1, 12):
        partial = box_fractions(THIRD_SERIES.after_terms(k))[0]
        assert partial > prev
        prev = partial


def test_left_cut_member_rational_cases():
    third = ExactRational(Q(1, 3))
    assert left_cut_member(third, Q(1, 2), 10) is S2aVerdict.FAILS
    assert left_cut_member(third, Q(1, 3), 10) is S2aVerdict.FAILS
    assert left_cut_member(third, Q(1, 4), 10) is S2aVerdict.HOLDS


def test_left_cut_member_series_straddle_is_unknown():
    assert left_cut_member(THIRD_SERIES, Q(1, 3), 5) is S2aVerdict.UNKNOWN
    assert left_cut_member(THIRD_SERIES, Q(21, 64), 5) is S2aVerdict.HOLDS
    assert left_cut_member(THIRD_SERIES, Q(3, 8), 5) is S2aVerdict.FAILS


def test_left_cut_member_certainty_is_monotone_in_budget():
    for q in (Q(21, 64), Q(3, 8), Q(1, 3)):
        verdicts = [left_cut_member(THIRD_SERIES, q, b) for b in range(1, 40, 3)]
        settled = [v for v in verdicts if v is not S2aVerdict.UNKNOWN]
        assert len(set(settled)) <= 1
        for early, late in zip(verdicts, verdicts[1:]):
            if early is not S2aVerdict.UNKNOWN:
                assert late is early


def test_certify_in_open_unit_rejects_endpoints():
    assert not certify_in_open_unit(ExactRational(Q(0)))
    assert not certify_in_open_unit(ExactRational(Q(1)))
    assert certify_in_open_unit(ExactRational(Q(1, 2)))
    assert certify_in_open_unit(THIRD_SERIES)
    assert certify_in_open_unit(Complement(THIRD_SERIES))


def rationals_unit():
    return st.fractions(min_value=0, max_value=1, max_denominator=512)


@st.composite
def reference_reals(draw, depth=2):
    if depth == 0:
        choice = draw(st.integers(0, 1))
    else:
        choice = draw(st.integers(0, 4))
    if choice == 0:
        return ExactRational(draw(rationals_unit()))
    if choice == 1:
        if draw(st.booleans()):
            slope = draw(st.integers(1, 4))
            offset = draw(st.integers(1, 6))
            return DyadicSeries(AffineExponents(slope, offset))
        exps = draw(st.lists(st.integers(1, 12), min_size=0, max_size=4, unique=True))
        return DyadicSeries(ListExponents(tuple(sorted(exps))))
    if choice == 2:
        factor = draw(st.fractions(min_value=Q(1, 64), max_value=1, max_denominator=64))
        return Scale(draw(reference_reals(depth=depth - 1)), factor)
    if choice == 3:
        return Average(draw(reference_reals(depth=depth - 1)),
                       draw(reference_reals(depth=depth - 1)))
    return Complement(draw(reference_reals(depth=depth - 1)))


@settings(max_examples=150, deadline=None)
@given(real=reference_reals(), k=st.integers(1, 30))
def test_enclosures_contain_exact_value_and_nest(real, k):
    value = exact_value(real)
    coarse = box_fractions(enclose(real, k))
    fine = box_fractions(enclose(real, k + 7))
    for (lo, hi), precision in ((coarse, Q(1, 2 ** k)), (fine, Q(1, 2 ** (k + 7)))):
        assert lo <= value <= hi
        assert hi - lo <= precision
    assert coarse[0] <= fine[0] and fine[1] <= coarse[1]


@settings(max_examples=100, deadline=None)
@given(real=reference_reals(), q=rationals_unit(), budget=st.integers(1, 24))
def test_left_cut_member_never_contradicts_exact_value(real, q, budget):
    value = exact_value(real)
    verdict = left_cut_member(real, q, budget)
    if verdict is S2aVerdict.HOLDS:
        assert q < value
    elif verdict is S2aVerdict.FAILS:
        assert q >= value


@settings(max_examples=100, deadline=None)
@given(a=rationals_unit(), b=rationals_unit())
def test_rational_arithmetic_is_exact(a, b):
    assert (a + b) - b == a


# -- reference evaluators: the term-by-term Fraction sums that the integer
# partial sums replaced, kept to pin every endpoint exactly.  Each gives an
# enclosure as its two Fraction endpoints (lo, hi).

def reference_partial_state(series, k):
    total = Q(0)
    count = series.exponents.count()
    n = k if count is None else min(k, count)
    for j in range(n):
        total += Q(1, 2 ** series.exponents.exponent(j))
    if count is not None and n == count:
        return total, Q(0)
    if n == 0:
        return Q(0), Q(1)
    return total, Q(1, 2 ** series.exponents.exponent(n - 1))


def reference_enclose(real, precision):
    if isinstance(real, ExactRational):
        return real.value, real.value
    if isinstance(real, DyadicSeries):
        count = real.exponents.count()
        total = Q(0)
        k = 0
        while True:
            if count is not None and k == count:
                return total, total
            exp = real.exponents.exponent(k)
            total += Q(1, 2 ** exp)
            k += 1
            bound = Q(1, 2 ** exp)
            if bound <= precision:
                return total, total + bound
    if isinstance(real, Scale):
        lo, hi = reference_enclose(real.inner, precision / real.factor)
        return lo * real.factor, hi * real.factor
    if isinstance(real, Average):
        l_lo, l_hi = reference_enclose(real.left, precision)
        r_lo, r_hi = reference_enclose(real.right, precision)
        return (l_lo + r_lo) / 2, (l_hi + r_hi) / 2
    lo, hi = reference_enclose(real.inner, precision)
    return 1 - hi, 1 - lo


def reference_enclose_at_tick(real, tick):
    if isinstance(real, ExactRational):
        return real.value, real.value
    if isinstance(real, DyadicSeries):
        total, bound = reference_partial_state(real, tick)
        return total, total + bound
    if isinstance(real, Scale):
        lo, hi = reference_enclose_at_tick(real.inner, tick)
        return lo * real.factor, hi * real.factor
    if isinstance(real, Average):
        l_lo, l_hi = reference_enclose_at_tick(real.left, tick)
        r_lo, r_hi = reference_enclose_at_tick(real.right, tick)
        return (l_lo + r_lo) / 2, (l_hi + r_hi) / 2
    lo, hi = reference_enclose_at_tick(real.inner, tick)
    return 1 - hi, 1 - lo


def reference_left_cut_member(boxes, q, budget):
    """The left-cut loop over precomputed reference boxes for ticks 1, 2, ...

    It keeps the hand-written comparisons that left_cut_member made before
    it went through the verdict kernel reals.certify.
    """
    for lo, hi in boxes[:budget]:
        if q < lo:
            return S2aVerdict.HOLDS
        if q >= hi:
            return S2aVerdict.FAILS
    return S2aVerdict.UNKNOWN


def reference_certify_in_open_unit(boxes):
    """certify_in_open_unit's hand-written comparisons, before the verdict kernel."""
    for lo, hi in boxes:
        if lo > 0 and hi < 1:
            return True
        if hi <= 0 or lo >= 1:
            return False
    return False


def series_leaves(real):
    if isinstance(real, DyadicSeries):
        yield real
    for child in ("inner", "left", "right"):
        if hasattr(real, child):
            yield from series_leaves(getattr(real, child))


def precisions():
    dyadic = st.integers(0, 40).map(lambda k: Q(1, 2 ** k))
    return st.one_of(dyadic, st.fractions(min_value=Q(1, 2 ** 20), max_value=2,
                                          max_denominator=2 ** 20).filter(lambda p: p > 0))


@settings(max_examples=300, deadline=None)
@given(real=reference_reals(depth=3), bits=st.integers(0, 40), precision=precisions(),
       tick=st.integers(0, 40))
def test_enclosures_equal_the_fraction_reference(real, bits, precision, tick):
    """The integer boxes equal the Fraction reference in value: the walk at
    width 2**-bits, each series leaf at any rational precision."""
    assert box_fractions(enclose(real, bits)) == reference_enclose(real, Q(1, 2 ** bits))
    assert box_fractions(enclose_at_tick(real, tick)) == reference_enclose_at_tick(real, tick)
    for series in series_leaves(real):
        lo, hi = box_fractions(series.after_terms(tick))
        assert (lo, hi - lo) == reference_partial_state(series, tick)
        within = series.within(precision.numerator, precision.denominator)
        assert box_fractions(within) == reference_enclose(series, precision)


@pytest.mark.parametrize("exps, precision, expected", [
    ((), Q(1, 2), (Q(0), Q(0))),
    ((1, 3), Q(1, 8), (Q(5, 8), Q(6, 8))),    # met exactly at the last listed term
    ((1, 3), Q(1, 9), (Q(5, 8), Q(5, 8))),    # the list runs out: a point
    ((1, 3), Q(1, 7), (Q(5, 8), Q(6, 8))),
    ((2, 5, 6), Q(3), (Q(1, 4), Q(2, 4))),    # at least one term, even for a wide precision
])
def test_list_series_enclosure_edges(exps, precision, expected):
    series = DyadicSeries(ListExponents(exps))
    box = series.within(precision.numerator, precision.denominator)
    assert box_fractions(box) == expected
    assert box_fractions(box) == reference_enclose(series, precision)
    # the same leaf under a Scale that leaves it that precision,
    # 2**-bits / factor, with the least bits that keeps factor <= 1
    bits = 0
    while Q(1, 2 ** bits) > precision:
        bits += 1
    factor = Q(1, 2 ** bits) / precision
    assert box_fractions(enclose(Scale(series, factor), bits)) == (
        expected[0] * factor, expected[1] * factor)


@settings(max_examples=100, deadline=None)
@given(real=reference_reals(), data=st.data())
def test_cut_verdicts_equal_the_reference_at_every_budget(real, data):
    boxes = [reference_enclose_at_tick(real, tick) for tick in range(1, 65)]
    ends = [end for box in boxes[:12] for end in box]
    q = data.draw(st.one_of(rationals_unit(), st.sampled_from(ends)))
    for budget in range(65):
        assert left_cut_member(real, q, budget) is reference_left_cut_member(boxes, q, budget)
    assert certify_in_open_unit(real) is reference_certify_in_open_unit(boxes)


def test_enclose_work_does_not_grow_with_the_terms_summed(monkeypatch):
    """A width of 2**-10000 needs 5,000 terms of THIRD_SERIES; the parent read 5,000 exponents."""
    calls = 0
    real = AffineExponents.exponent

    def counting(self, k):
        nonlocal calls
        calls += 1
        return real(self, k)

    monkeypatch.setattr(AffineExponents, "exponent", counting)
    box = enclose(THIRD_SERIES, 10000)
    assert calls <= 2
    assert box_fractions(box) == ((1 - Q(1, 4 ** 5000)) / 3, (1 - Q(1, 4 ** 5000)) / 3 + Q(1, 4 ** 5000))
