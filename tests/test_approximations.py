from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solred.approximations import (
    AffineDyadic,
    AlternatingDyadic,
    Approximation,
    ComplementGen,
    Kind,
    PrefixMaxGen,
    PrependGen,
    Table,
    _fraction_keys,
    check_kind_prefix,
    over_one_denominator,
)
from solred.harness import verify_s2a_declared
from solred.scenario import load_scenario

from conftest import TwoTail, corpus_path

HALF_CLIMB = Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE)


def table(terms, tail, kind=Kind.GENERAL):
    return Approximation(Table(tuple(Q(t) for t in terms), Q(tail)), kind)


def running_max(a):
    return Approximation(PrefixMaxGen(a.gen), Kind.LEFT_CE)


def test_evaluate_basic_generators():
    constant = table([], "1/2")
    assert constant.term(7) == Q(1, 2)
    assert HALF_CLIMB.term(2) == Q(3, 8)
    assert Approximation(PrependGen(Q(0), HALF_CLIMB.gen)).term(0) == Q(0)
    assert Approximation(PrependGen(Q(0), HALF_CLIMB.gen)).term(3) == Q(3, 8)


def test_alternating_generator_terms():
    osc = Approximation(AlternatingDyadic(Q(1, 8), Q(1, 8), 1), Kind.GENERAL)
    assert [osc.term(n) for n in range(4)] == [Q(1, 4), Q(1, 16), Q(5, 32), Q(7, 64)]


def test_generators_reject_terms_outside_unit_interval():
    with pytest.raises(ValueError):
        Table((Q(2),), Q(1, 2))
    with pytest.raises(ValueError):
        AffineDyadic(Q(5, 4), Q(0), 1)
    with pytest.raises(ValueError):
        AlternatingDyadic(Q(1, 8), Q(1, 4), 1)


def test_prefix_max_running_maximum():
    a = table(["1/4", "1/8", "3/8"], "3/8")
    assert [running_max(a).term(n) for n in range(3)] == [Q(1, 4), Q(1, 4), Q(3, 8)]
    b = table(["0", "1/2", "1/4", "3/4"], "3/4")
    assert [running_max(b).term(n) for n in range(4)] == [Q(0), Q(1, 2), Q(1, 2), Q(3, 4)]


@settings(max_examples=120, deadline=None)
@given(terms=st.lists(st.fractions(min_value=0, max_value=1, max_denominator=64),
                      min_size=1, max_size=8),
       order=st.lists(st.integers(0, 12), max_size=12))
def test_prefix_max_terms_in_any_order_equal_the_running_maximum(terms, order):
    inner = Table(tuple(terms), terms[-1])
    gen = PrefixMaxGen(inner)
    for n in order:
        assert gen.term(n) == max(inner.term(m) for m in range(n + 1))


def test_prefix_max_cache_is_not_part_of_equality_or_hash():
    inner = Table((Q(1, 4), Q(1, 8), Q(3, 8)), Q(1, 2))
    fresh, used = PrefixMaxGen(inner), PrefixMaxGen(inner)
    assert used.term(5) == Q(1, 2)
    assert used.keys(5, 3) == (4, 4)
    assert fresh == used and hash(fresh) == hash(used)
    assert repr(fresh) == repr(used)


class RaisesFrom:
    """Inner generator whose term(n) raises for every n >= k."""

    def __init__(self, k):
        self.k = k

    def term(self, n):
        if n >= self.k:
            raise ValueError(f"no term {n}")
        return Q(n, 8)


def test_prefix_max_keeps_raising_past_a_failed_inner_term():
    gen = PrefixMaxGen(RaisesFrom(3))
    assert gen.term(2) == Q(2, 8)
    for n in (3, 4, 3, 9):
        with pytest.raises(ValueError, match="no term 3"):
            gen.term(n)
    assert gen.term(1) == Q(1, 8)


def test_s2a_check_evaluates_each_staircase_term_once(monkeypatch):
    """mirror_staircase's alpha_n is a running maximum over a table: 601 + 601
    Table.term calls at depth 600, where re-taking the maximum per term made 181,502."""
    sc = load_scenario(corpus_path("mirror_staircase"))
    calls = 0
    real = Table.term

    def counting(self, n):
        nonlocal calls
        calls += 1
        return real(self, n)

    monkeypatch.setattr(Table, "term", counting)
    report = verify_s2a_declared(sc.replace(depth=600))
    assert report.exit_code() == 0
    assert calls == 1202


def test_prefix_max_fixes_monotone_input_and_sets_kind():
    out = running_max(HALF_CLIMB)
    assert check_kind_prefix(out, 10) is None
    for n in range(10):
        assert out.term(n) == HALF_CLIMB.term(n)


def complemented(a, kind=Kind.GENERAL):
    return Approximation(ComplementGen(a.gen), kind)


def test_complement_terms_and_kind_flip():
    a = table(["0", "1/2", "1/4"], "1/4", kind=Kind.LEFT_CE)
    comp = complemented(a)
    assert [comp.term(n) for n in range(3)] == [Q(1), Q(1, 2), Q(3, 4)]
    assert complemented(table(["1/3"], "1/3")).term(5) == Q(2, 3)
    for n in range(6):
        assert complemented(comp).term(n) == a.term(n)
    stair = table(["0", "1/4", "1/4", "1/2"], "1/2", kind=Kind.LEFT_CE)
    assert check_kind_prefix(complemented(stair, Kind.RIGHT_CE), 5) is None


def test_prepend_shifts_indices():
    a = table(["1/2"], "1/2")
    assert Approximation(PrependGen(Q(1, 4), a.gen)).term(0) == Q(1, 4)
    assert Approximation(PrependGen(Q(1, 4), a.gen)).term(1) == Q(1, 2)


def test_check_kind_prefix_examples():
    good = table(["0", "1/4", "1/4", "1/2"], "1/2", kind=Kind.LEFT_CE)
    assert check_kind_prefix(good, 3) is None
    bad = table(["0", "1/2", "1/4"], "1/4", kind=Kind.LEFT_CE)
    assert check_kind_prefix(bad, 2) == 2
    assert check_kind_prefix(complemented(good, Kind.RIGHT_CE), 3) is None
    # the plateau at n = 2 is no violation; the rise at n = 3 is
    rising = table(["1", "3/4", "3/4", "7/8"], "7/8", kind=Kind.RIGHT_CE)
    assert check_kind_prefix(rising, 2) is None
    assert check_kind_prefix(rising, 3) == 3


def test_check_kind_prefix_ignores_general_claims():
    wobble = table(["1/2", "0", "3/4"], "0")
    assert check_kind_prefix(wobble, 2) is None


@st.composite
def finite_tables(draw):
    terms = draw(st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=64),
        min_size=1, max_size=8))
    return table(terms, terms[-1])


@settings(max_examples=120, deadline=None)
@given(a=finite_tables(), n=st.integers(0, 12))
def test_prefix_max_output_is_always_nondecreasing(a, n):
    assert check_kind_prefix(running_max(a), n) is None


@settings(max_examples=120, deadline=None)
@given(a=finite_tables(), n=st.integers(0, 12))
def test_complement_of_prefix_max_is_nonincreasing(a, n):
    assert check_kind_prefix(complemented(running_max(a), Kind.RIGHT_CE), n) is None


@settings(max_examples=120, deadline=None)
@given(a=finite_tables(),
       head=st.fractions(min_value=0, max_value=1, max_denominator=64),
       n=st.integers(1, 12))
def test_prepend_preserves_shifted_terms_exactly(a, head, n):
    assert Approximation(PrependGen(head, a.gen)).term(n) == a.term(n - 1)


@settings(max_examples=120, deadline=None)
@given(a=finite_tables(), n=st.integers(0, 12))
def test_complement_is_involutive(a, n):
    assert complemented(complemented(a)).term(n) == a.term(n)


units = st.fractions(min_value=0, max_value=1, max_denominator=1 << 20)
wide = st.fractions(min_value=-1, max_value=2, max_denominator=1 << 20)
rates = st.integers(1, 3)


def unchecked(cls, **fields):
    """A generator built past its constructor's range checks, so terms can leave [0, 1]."""
    gen = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(gen, name, value)
    return gen


@st.composite
def alternating(draw):
    u = draw(units)
    v = draw(st.fractions(min_value=0, max_value=min(u, 1 - u), max_denominator=1 << 20))
    return AlternatingDyadic(u, v, draw(rates))


leaf_generators = st.one_of(
    st.builds(lambda u, d, w: AffineDyadic(u, u - d, w), units, units, rates),
    alternating(),
    st.builds(lambda e, t: Table(tuple(e), t), st.lists(units, max_size=6), units),
    st.builds(lambda u, v, w: unchecked(AffineDyadic, u=u, v=v, w=w), wide, wide, rates),
    st.builds(lambda u, v, w: unchecked(AlternatingDyadic, u=u, v=v, w=w), wide, wide, rates),
    st.builds(lambda e, t: unchecked(Table, entries=tuple(e), tail=t),
              st.lists(wide, max_size=6), wide),
)


def wrapped(leaves):
    """The leaves, and the leaves under prepends, complements and running maxima."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(PrependGen, units, inner),
        st.builds(ComplementGen, inner),
        st.builds(PrefixMaxGen, inner),
    ), max_leaves=4)


generators = wrapped(leaf_generators)


def outcome(thunk):
    try:
        return thunk()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(gen=generators, n=st.one_of(st.integers(-2, 40), st.integers(0, 3000)),
       m=st.integers(0, 80))
def test_keys_agree_with_the_exact_term(gen, n, m):
    """keys are floor and ceil of term * 2**m.

    keys raises exactly when term does, with the same exception and message.
    """
    a = Approximation(gen)
    term = outcome(lambda: a.term(n))
    keys = outcome(lambda: a.keys(n, m))
    if isinstance(term, tuple):
        assert keys == term
        return
    assert keys == (math.floor(term * 2 ** m), math.ceil(term * 2 ** m))


@st.composite
def dyadic_alternating(draw):
    """u dyadic, so the closed form's remainder is 0 and the two tail keys differ."""
    u = Q(draw(st.integers(0, 64)), 64)
    v = draw(st.fractions(min_value=0, max_value=min(u, 1 - u), max_denominator=1 << 20))
    return AlternatingDyadic(u, v, draw(rates))


@settings(max_examples=300, deadline=None)
@given(gen=wrapped(st.one_of(leaf_generators, dyadic_alternating(),
                             st.builds(TwoTail, st.lists(units, max_size=3), units, units))),
       m=st.integers(0, 80), far=st.integers(1990, 2010))
def test_keys_repeat_by_parity_from_the_settle_index(gen, m, far):
    """keys(n, m) == keys(n0 + (n - n0) % 2, m) for every n >= n0 = settle(m),
    checked at n0..n0 + 8 and about 2,000 indices past n0.

    The library's dyadic generators reach their extreme terms before n0, so
    a running maximum over them is constant from n0 on; a running maximum
    over a TwoTail whose odd tail term is its greatest changes at n0 + 1.
    """
    n0 = gen.settle(m)
    assert Approximation(gen).settle(m) == n0 >= 0
    for n in (*range(n0, n0 + 9), n0 + far):
        assert gen.keys(n, m) == gen.keys(n0 + (n - n0) % 2, m), n


def test_the_oscillating_tail_keys_alternate():
    """u = 1/8 is dyadic: past n0 the keys at scale 2**14 alternate between
    just above 1/8 (even n, V' < 0) and just below it (odd n, V' > 0)."""
    gen = AlternatingDyadic(Q(1, 8), Q(1, 8), 1)
    n0 = gen.settle(14)
    assert n0 == 14 + 4  # V = 8 over D = 64 has 4 bits
    assert [gen.keys(n, 14) for n in range(n0, n0 + 4)] == [(2048, 2049), (2047, 2048)] * 2
    assert PrependGen(Q(0), gen).settle(14) == PrefixMaxGen(gen).settle(14) == n0 + 1
    assert ComplementGen(gen).settle(14) == n0
    assert Table((Q(1, 2),) * 3, Q(1, 4)).settle(14) == 3


@settings(max_examples=150, deadline=None)
@given(inner=leaf_generators, reads=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 24)),
                                             min_size=1, max_size=12))
def test_prefix_max_keys_are_the_keys_of_the_running_maximum(inner, reads):
    """Reads at interleaved scales and out of order on one instance."""
    gen = PrefixMaxGen(inner)
    for n, m in reads:
        assert gen.keys(n, m) == _fraction_keys(gen.term(n), m)


def test_late_prefix_max_keys_hold_no_exact_maxima():
    """keys(4000, 14) of the w = 256 running maximum stays within 1 MB, traced.

    Flooring exact maxima held all 4,001 terms, about 256 * 4000**2 / 2
    bits (256 MB), and took 8.7 s in a construction at stage budget 4,000.
    """
    gen = PrefixMaxGen(AffineDyadic(Q(1, 2), Q(1, 4), 256))
    tracemalloc.start()
    try:
        keys = gen.keys(4000, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert keys == (8191, 8192) and gen.maxima == []


def exact_keys(term, m):
    scaled = term * 2 ** m
    return math.floor(scaled), math.ceil(scaled)


# Dyadic u with U * 2**m divisible by D, so the closed form's remainder r can be 0.
dyadics = st.builds(lambda a, e: Q(a, 2 ** e), st.integers(-8, 16), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(u=st.one_of(dyadics, wide), v=st.one_of(dyadics, wide), sign=st.sampled_from((-1, 1)),
       w=st.integers(1, 256), m=st.integers(0, 40), head=units, data=st.data())
def test_dyadic_keys_match_exact_floor_and_ceil(u, v, sign, w, m, head, data):
    """The dyadic generators' terms and keys, bare and wrapped, against their
    closed forms u - v * 2**(-w*n) and u + (-1)**n * v * 2**(-w*n), each
    built as a plain Fraction, not from the sign table both methods read.

    n is drawn up to 10,000, or within a few indices of the closed form's
    threshold w*n - m >= bits(V), so both the exact division and the
    closed form with each sign of v are compared.
    """
    v = sign * abs(v)
    edge = (m + abs(over_one_denominator(u, v)[1]).bit_length()) // w
    n = data.draw(st.one_of(st.integers(0, 10_000), st.integers(max(0, edge - 2), edge + 2)))
    decay = v * Q(1, 2 ** (w * n))
    for cls, term in ((AffineDyadic, u - decay), (AlternatingDyadic, u + (-1) ** n * decay)):
        gen = unchecked(cls, u=u, v=v, w=w)
        assert gen.term(n) == term
        assert gen.keys(n, m) == exact_keys(term, m)
        assert ComplementGen(gen).keys(n, m) == exact_keys(1 - term, m)
        prepended = PrependGen(head, gen)
        assert prepended.keys(n + 1, m) == exact_keys(term, m)
        assert prepended.keys(0, m) == exact_keys(head, m)


@pytest.mark.parametrize("cls,expected", [(AffineDyadic, (8191, 8192)),  # just below 1/2
                                          (AlternatingDyadic, (8192, 8193))])  # just above
def test_a_late_dyadic_key_read_allocates_no_late_term(cls, expected):
    """keys(100000, 14) at w = 256 stays within 64 KB, traced.

    Dividing b_n = (U * 2**k - V) / (D * 2**k) back to scale 2**14 built a
    shift of k = 25,600,000 bits there, about 3.2 MB.
    """
    a = Approximation(cls(Q(1, 2), Q(1, 4), 256))
    tracemalloc.start()
    try:
        keys = a.keys(100_000, 14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert keys == expected


def test_dyadic_keys_split_u_and_v_once(monkeypatch):
    """keys(n, m) read u and v over the product of their denominators.  The
    integer split of u and v is cached per generator.  Over the six valid
    corpus builds, as_integer_ratio ran 102,181 times when every read split
    u and v again, 9,237 times with the split cached, and 22 times since
    Table and PrependGen keys read the Fraction's own numerator and
    denominator."""
    calls = 0
    real = Q.as_integer_ratio

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(Q, "as_integer_ratio", counting)
    affine = AffineDyadic(Q(3, 4), Q(1, 3), 2)  # 9/12 - 4/12 * 4**-n: 5/12, 2/3
    alternating = AlternatingDyadic(Q(1, 2), Q(1, 4), 1)  # 1/2 +- 1/4 * 2**-n: 3/4, 3/8, 15/32
    for _ in range(50):
        assert [affine.keys(n, 4) for n in (0, 1)] == [(6, 7), (10, 11)]
        assert [alternating.keys(n, 4) for n in (0, 1, 3)] == [(12, 12), (6, 6), (7, 8)]
    assert calls == 4
