from __future__ import annotations

import json
import operator
import re
from fractions import Fraction as Q

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from solred.approximations import Approximation, Kind, Table
from solred.harness import _prop1_rows, _step_check_row, verify_prop1
from solred.reals import (
    AffineExponents,
    DyadicSeries,
    ExactRational,
    Interval,
    ListExponents,
    certify,
    enclose,
)
from solred.scenario import parse_scenario
from solred.witnesses import (
    NEVER,
    DyadicEnumeration,
    S2aVerdict,
    S2aWitness,
    SolovayVerdict,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
    canonical_dyadic,
    canonical_index,
    canonical_point,
    check_s2a_prefix,
    check_solovay_at,
    check_strict_at,
    enumerate_domain,
    eval_staged,
    solovay_sides,
    solovay_verdict,
)

from conftest import LEFTCE_WITNESS_NAMES, box_fractions, corpus_path, point
from test_reals import reference_enclose, reference_reals


def staged(slope=0, offset=0, stage_overrides=(), u=Q(1, 2), v=Q(0), value_overrides=()):
    return StagedPartialFunction(
        DyadicEnumeration(),
        StageSchedule(slope, offset, tuple(stage_overrides)),
        ValueRule(u, v, tuple(value_overrides)))


HALVING = staged()  # g(q) = q/2, every point defined at stage 0


# The canonical order by its definition: 0, then level by level the odd
# multiples of 2**-level, ascending.  Every point of levels 0 to 10.
CANONICAL = [Q(0), *(Q(k, 1 << level) for level in range(1, 11) for k in range(1, 1 << level, 2))]


def fraction_dyadic(q):
    """q = numerator / 2**exponent as (numerator, exponent), from the reduced Fraction."""
    return q.numerator, q.denominator.bit_length() - 1


def test_canonical_enumeration_first_points():
    want = [Q(0), Q(1, 2), Q(1, 4), Q(3, 4), Q(1, 8), Q(3, 8), Q(5, 8), Q(7, 8), Q(1, 16)]
    assert CANONICAL[:9] == want and len(CANONICAL) == 1 << 10
    js = range(len(CANONICAL))
    assert list(map(canonical_point, js)) == CANONICAL
    assert list(map(canonical_dyadic, js)) == list(map(fraction_dyadic, CANONICAL))


@pytest.mark.parametrize("size", [0, 1, 2, 16], ids=["canonical", "zero", "two", "sixteen"])
def test_dyadic_is_the_prefix_then_the_canonical_order(size):
    """dyadic(j) against the Fraction definition at every point of levels 0
    to 10, with no prefix and with a prefix that reverses the first size - 1
    points after 0."""
    prefix = tuple(CANONICAL[:1] + CANONICAL[size - 1:0:-1]) if size else ()
    assert len(prefix) == size
    want = [*prefix, *CANONICAL[size:]]
    enum = DyadicEnumeration(prefix)
    assert [enum.dyadic(j) for j in range(len(CANONICAL))] == list(map(fraction_dyadic, want))


def test_canonical_index_off_enumeration():
    assert canonical_index(Q(1, 3)) is None
    assert canonical_index(Q(1)) is None
    assert canonical_index(Q(0)) == 0


@settings(max_examples=200, deadline=None)
@given(j=st.integers(0, 1 << 14))
def test_canonical_index_inverts_canonical_point(j):
    assert canonical_index(canonical_point(j)) == j


def fraction_canonical_index(q):
    """Reference: canonical_index as it was, in Fraction comparisons."""
    if q == Q(0):
        return 0
    if q < Q(0) or q >= Q(1):
        return None
    den = q.denominator
    if den & (den - 1) != 0:
        return None
    level = den.bit_length() - 1
    return (1 << (level - 1)) + (q.numerator - 1) // 2


@settings(max_examples=500, deadline=None)
@example(q=Q(0))
@example(q=Q(1))
@example(q=Q(-1, 2))
@example(q=Q(3, 2))
@example(q=Q(1, 3))
@example(q=Q(-5, 3))
@example(q=Q(1, 1 << 80))
@given(q=st.one_of(
    st.builds(Q, st.integers(-(1 << 12), 1 << 12), st.integers(1, 1 << 12)),
    st.builds(lambda n, e: Q(n, 1 << e), st.integers(-(1 << 70), 1 << 70), st.integers(0, 70)),
))
def test_canonical_index_on_integers_equals_the_fraction_reference(q):
    """Negative, zero, >= 1 and non-dyadic fractions, and dyadics of every level."""
    assert canonical_index(q) == fraction_canonical_index(q)


@st.composite
def permuted_enumerations(draw):
    size = draw(st.integers(0, 40))
    rest = draw(st.permutations(range(1, size))) if size > 1 else []
    return DyadicEnumeration(tuple(canonical_point(j) for j in [0, *rest][:size]))


@settings(max_examples=200, deadline=None)
@given(enum=permuted_enumerations(), past=st.integers(0, 1 << 12),
       odd=st.integers(0, 1 << 8), level=st.integers(0, 8))
def test_index_of_inverts_point_on_permuted_prefixes(enum, past, odd, level):
    for j in [*range(len(enum.prefix) + 2), len(enum.prefix) + past]:
        assert enum.index_of(point(enum, j)) == j
    assert enum.index_of(Q(3 * odd + 1, 3 << level)) is None   # not dyadic
    assert enum.index_of(Q(1)) is None
    assert enum.index_of(Q(1) + Q(odd, 1 << level)) is None


def test_enumeration_prefix_permutation():
    perm = DyadicEnumeration((Q(0), Q(1, 4), Q(1, 2)))
    assert perm.dyadic(1) == (1, 2)
    assert perm.index_of(Q(1, 2)) == 2
    assert perm.dyadic(3) == (3, 2)
    with pytest.raises(ValueError):
        DyadicEnumeration((Q(1, 2), Q(0)))
    with pytest.raises(ValueError):
        DyadicEnumeration((Q(0), Q(1, 8)))
    with pytest.raises(ValueError):
        DyadicEnumeration((Q(0), Q(1, 2), Q(1, 2)))


def test_eval_staged_immediate_and_delayed():
    assert eval_staged(HALVING, Q(1, 4), 0) == (0, Q(1, 8))
    delayed = staged(stage_overrides=[(5, 100)])
    q5 = canonical_point(5)
    assert eval_staged(delayed, q5, 50) is None
    assert eval_staged(delayed, q5, 100) == (100, q5 / 2)
    assert eval_staged(HALVING, Q(1, 3), 7) is None


def test_never_defined_point_stays_pending():
    g = staged(stage_overrides=[(2, None)])
    assert eval_staged(g, canonical_point(2), 10 ** 6) is None


def test_g_at_zero_must_become_defined():
    with pytest.raises(ValueError):
        staged(stage_overrides=[(0, None)])


@settings(max_examples=100, deadline=None)
@given(j=st.integers(0, 40), s1=st.integers(0, 200), s2=st.integers(0, 200))
def test_eval_staged_is_monotone_in_stage(j, s1, s2):
    g = staged(slope=3, offset=1)
    lo, hi = min(s1, s2), max(s1, s2)
    q = canonical_point(j)
    early = eval_staged(g, q, lo)
    late = eval_staged(g, q, hi)
    if early is not None:
        assert late == early


def test_enumerate_domain_examples():
    """g-values come as the value rule's unreduced integer pairs: g = q/2 puts
    q_j = num / 2**e at (num, 2 * 2**e)."""
    assert enumerate_domain(HALVING, 0, 0) == [(0, 0, (0, 2))]
    domain = enumerate_domain(HALVING, 3, 2)
    assert domain == [(0, 0, (0, 2)), (1, 2, (1, 4)), (2, 1, (1, 8)), (3, 3, (3, 8))]
    assert [Q(*pair) for _, _, pair in domain] == [HALVING.value_at(j) for j in range(4)]
    doubled = staged(slope=2)
    assert [(j, x) for j, x, _ in enumerate_domain(doubled, 4, 5)] == [(0, 0), (1, 16), (2, 8)]
    with pytest.raises(ValueError, match=r"^domain point 1/4 is not exact at scale 2\*\*1$"):
        enumerate_domain(HALVING, 3, 1)


twelfths = st.integers(0, 11).map(lambda k: Q(k, 12))


@settings(max_examples=300, deadline=None)
@given(enum=permuted_enumerations(), slope=st.integers(0, 3), offset=st.integers(0, 40),
       stages=st.dictionaries(st.integers(0, 80), st.one_of(st.just(NEVER), st.integers(0, 80)),
                              max_size=8),
       values=st.dictionaries(st.integers(0, 80), twelfths, max_size=6),
       v=twelfths, u_share=st.integers(0, 12), stage=st.integers(0, 300),
       extra=st.integers(-3, 3))
def test_enumerate_domain_is_the_staged_points_and_values(enum, slope, offset, stages, values,
                                                          v, u_share, stage, extra):
    """Prefix permutations, both schedule overrides (never among them) and value
    overrides (at j = 0 too), held to the witness's definitions in plain
    Fractions: the indices j <= stage whose stage (the override, else
    slope*j + offset) has come, ascending, each with q_j at scale 2**m and
    g(q_j) (the override, else u*q_j + v); or, at a scale too coarse for an
    in-domain point, the ValueError naming the first such point."""
    assume(stages.get(0, 0) is not NEVER)
    u = (1 - v) * Q(u_share, 12)
    g = StagedPartialFunction(enum, StageSchedule(slope, offset, tuple(sorted(stages.items()))),
                              ValueRule(u, v, tuple(sorted(values.items()))))
    m = max(0, max(stage.bit_length(), len(enum.prefix).bit_length()) + extra)

    def q(j):  # the prefix point, else 0 or the odd multiple of 2**-L at level L
        if j < len(enum.prefix):
            return enum.prefix[j]
        if j == 0:
            return Q(0)
        level = j.bit_length()
        return Q(2 * (j - 2 ** (level - 1)) + 1, 2 ** level)

    indices = [j for j in range(stage + 1)
               if (s := stages.get(j, slope * j + offset)) is not NEVER and s <= stage]
    coarse = [q(j) for j in indices if (q(j) * 2 ** m).denominator != 1]
    if coarse:
        with pytest.raises(ValueError, match=f"^domain point {re.escape(str(coarse[0]))} "
                                             rf"is not exact at scale 2\*\*{m}$"):
            enumerate_domain(g, stage, m)
        return
    domain = enumerate_domain(g, stage, m)
    assert [j for j, _, _ in domain] == indices
    for j, x, (p, d) in domain:
        assert type(x) is int and Q(x, 2 ** m) == q(j)
        assert d > 0 and Q(p, d) == values.get(j, u * q(j) + v)


@settings(max_examples=200, deadline=None)
@given(enum=st.one_of(st.just(DyadicEnumeration()), permuted_enumerations()),
       far=st.integers(0, 1 << 40), extra=st.integers(1, 70))
def test_dyadic_pairs_are_the_points_in_integers(enum, far, extra):
    for j in [*range(len(enum.prefix) + 2), far]:
        num, e = enum.dyadic(j)
        assert (num, e) == (0, 0) or num % 2 == 1
        q = Q(num, 2 ** e)
        assert q == (enum.prefix[j] if j < len(enum.prefix) else canonical_point(j))
        if j >= len(enum.prefix):
            assert (num, e) == canonical_dyadic(j)
        for m in (e, e + 1, e + extra):
            assert enum.scaled(j, m) == q * 2 ** m
        if e > 0:
            message = f"domain point {q} is not exact at scale 2**{e - 1}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                enum.scaled(j, e - 1)


@pytest.mark.parametrize("enum", [DyadicEnumeration(), DyadicEnumeration((Q(0), Q(1, 4), Q(1, 2)))],
                         ids=["canonical", "prefix"])
@pytest.mark.parametrize("j", [-1, -2, -(1 << 40)])
def test_a_negative_index_has_no_point(enum, j):
    """Without a prefix, dyadic(-1) raised IndexError; with one, it gave the
    prefix's last point."""
    for read in (enum.dyadic, lambda j: enum.scaled(j, 8)):
        with pytest.raises(ValueError, match=r"^enumeration index must be >= 0$"):
            read(j)


def test_scaled_rejects_a_point_finer_than_the_scale():
    assert DyadicEnumeration().scaled(5, 3) == 3
    with pytest.raises(ValueError, match=r"^domain point 3/8 is not exact at scale 2\*\*2$"):
        DyadicEnumeration().scaled(5, 2)
    perm = DyadicEnumeration((Q(0), Q(1, 4), Q(1, 2), Q(3, 4)))
    assert perm.dyadic(1) == (1, 2) and perm.scaled(1, 2) == 1
    with pytest.raises(ValueError, match=r"^domain point 1/4 is not exact at scale 2\*\*1$"):
        perm.scaled(1, 1)


unit_rationals = st.fractions(min_value=0, max_value=1, max_denominator=1 << 20)


@st.composite
def value_rules(draw):
    v = draw(unit_rationals.filter(lambda x: x < 1))
    u = draw(st.fractions(min_value=-v, max_value=1 - v, max_denominator=1 << 20))
    table = draw(st.dictionaries(st.integers(0, 60), unit_rationals.filter(lambda x: x < 1),
                                 max_size=6))
    return ValueRule(u, v, tuple(sorted(table.items())))


@settings(max_examples=200, deadline=None)
@given(enum=st.one_of(st.just(DyadicEnumeration()), permuted_enumerations()),
       rule=value_rules(), far=st.integers(0, 1 << 30))
def test_value_at_is_the_affine_rule_or_its_override(enum, rule, far):
    g = StagedPartialFunction(enum, StageSchedule(), rule)
    table = dict(rule.overrides)
    for j in {*range(len(enum.prefix) + 2), *table, far}:
        p, q = rule.ratio(j, *enum.dyadic(j))
        assert q > 0
        want = table[j] if j in table else rule.u * point(enum, j) + rule.v
        assert type(g.value_at(j)) is Q
        assert g.value_at(j) == Q(p, q) == want


def test_value_rule_range_validation():
    with pytest.raises(ValueError):
        ValueRule(Q(1, 2), Q(1))
    with pytest.raises(ValueError):
        ValueRule(Q(3, 4), Q(1, 2))
    with pytest.raises(ValueError):
        SolovayWitness(HALVING, Q(0))


def alpha_beta(a="1/4", b="1/2"):
    return ExactRational(Q(a)), ExactRational(Q(b))


def test_check_solovay_at_verdicts():
    alpha, beta = alpha_beta()
    w = SolovayWitness(HALVING, Q(1))
    assert check_solovay_at(w, alpha, beta, Q(1, 4), 0, 10) is SolovayVerdict.HOLDS
    ident = SolovayWitness(staged(u=Q(1)), Q(1))
    assert check_solovay_at(ident, alpha, beta, Q(3, 8), 0, 10) is SolovayVerdict.FAILS_LOWER
    small_c = SolovayWitness(HALVING, Q(1, 4))
    assert check_solovay_at(small_c, alpha, beta, Q(0), 0, 10) is SolovayVerdict.FAILS_UPPER


def test_check_solovay_at_pending_and_precondition():
    alpha, beta = alpha_beta()
    lazy = SolovayWitness(staged(stage_overrides=[(2, 99)]), Q(1))
    assert check_solovay_at(lazy, alpha, beta, Q(1, 4), 0, 10) is SolovayVerdict.G_UNDEFINED
    w = SolovayWitness(HALVING, Q(1))
    assert check_solovay_at(w, alpha, beta, Q(3, 4), 0, 10) is None
    assert check_solovay_at(w, alpha, beta, Q(1, 2), 0, 10) is None  # q == beta


def const_approx(value):
    return Approximation(Table((), Q(value)), Kind.GENERAL)


def test_check_s2a_prefix_holds_and_fails():
    alpha, _ = alpha_beta()
    exact = S2aWitness(const_approx("1/4"), const_approx("1/8"), Q(1, 100))
    checks = check_s2a_prefix(exact, alpha, ExactRational(Q(1, 8)), 10, 8)
    assert all(c.verdict is S2aVerdict.HOLDS for c in checks)

    half = ExactRational(Q(1, 2))
    bad = S2aWitness(const_approx("0"), const_approx("1/2"), Q(1))
    checks = check_s2a_prefix(bad, half, half, 4, 8)
    assert checks[2].verdict is S2aVerdict.FAILS
    assert checks[0].verdict is S2aVerdict.HOLDS


@settings(max_examples=150, deadline=None)
@given(
    alpha=st.fractions(min_value=Q(1, 64), max_value=Q(63, 64), max_denominator=256),
    beta=st.fractions(min_value=Q(1, 64), max_value=Q(63, 64), max_denominator=256),
    a_term=st.fractions(min_value=0, max_value=1, max_denominator=256),
    b_term=st.fractions(min_value=0, max_value=1, max_denominator=256),
    c=st.fractions(min_value=Q(1, 8), max_value=8, max_denominator=16),
    n=st.integers(0, 12),
)
def test_strict_certificate_implies_nonstrict_check(alpha, beta, a_term, b_term, c, n):
    strict = check_strict_at(ExactRational(alpha), ExactRational(beta),
                             a_term, b_term, c, n, guard=8)
    if strict.verdict is S2aVerdict.HOLDS:
        w = S2aWitness(const_approx(a_term), const_approx(b_term), c)
        soft = check_s2a_prefix(w, ExactRational(alpha), ExactRational(beta), n, 8)
        assert soft[n].verdict is S2aVerdict.HOLDS


# -- the one verdict kernel, and the five hand-written comparisons it
# replaced, kept as references: each site must decide exactly as before.

def old_solovay_at(a_lo, a_hi, b_lo, b_hi, value, q, c):
    """check_solovay_at's comparisons on the enclosures [a_lo, a_hi] of alpha
    and [b_lo, b_hi] of beta."""
    if a_hi - value <= 0:
        return SolovayVerdict.FAILS_LOWER
    if a_lo - value >= c * (b_hi - q):
        return SolovayVerdict.FAILS_UPPER
    if a_lo - value > 0 and a_hi - value < c * (b_lo - q):
        return SolovayVerdict.HOLDS
    return SolovayVerdict.UNKNOWN


def old_s2a_prefix(a_lo, a_hi, b_lo, b_hi, c, slack):
    """check_s2a_prefix's comparison on the certified error bounds."""
    if a_hi <= c * (b_lo + slack):
        return S2aVerdict.HOLDS
    if a_lo > c * (b_hi + slack):
        return S2aVerdict.FAILS
    return S2aVerdict.UNKNOWN


def old_strict_at(a_lo, a_hi, b_lo, b_hi, c, slack):
    """check_strict_at's comparison on the certified error bounds."""
    if a_hi < c * (b_lo + slack):
        return S2aVerdict.HOLDS
    if a_lo >= c * (b_hi + slack):
        return S2aVerdict.FAILS
    return S2aVerdict.UNKNOWN


def old_below_alpha(a_n, a_lo, a_hi):
    """verify_prop1's below_alpha row: a_n < alpha."""
    if a_lo > a_n:
        return "holds"
    if a_n >= a_hi:
        return "fails"
    return "unknown"


def old_gap_bound(diff_lo, diff_hi, bound_lo, bound_hi):
    """verify_prop1's gap_bound row: 0 < alpha - g(b_n) < c*(beta - b_n),
    with alpha - g(b_n) in [diff_lo, diff_hi] and the bound in [bound_lo, bound_hi]."""
    lower_ok = diff_lo > 0
    upper_ok = diff_hi < bound_lo
    lower_broken = diff_hi <= 0
    upper_broken = diff_lo >= bound_hi
    if lower_ok and upper_ok:
        return "holds"
    if lower_broken or upper_broken:
        return "fails"
    return "unknown"


GRID = st.builds(Q, st.integers(-6, 6), st.sampled_from([1, 2, 4]))
POSITIVE = st.sampled_from([Q(1, 4), Q(1, 2), Q(1), Q(2)])
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def boxes(draw):
    """An integer interval over denominator 4 on a coarse grid, so shared
    endpoints are common."""
    lo = draw(GRID)
    hi = lo if draw(st.booleans()) else max(lo, draw(GRID))
    return Interval(int(lo * 4), int(hi * 4), 4)


@settings(max_examples=500, deadline=None)
@given(lhs=boxes(), rhs=boxes(), strict=st.booleans(),
       inner=st.lists(st.tuples(UNIT, UNIT), max_size=4))
@example(lhs=Interval(4, 8, 4), rhs=Interval(0, 4, 4), strict=False, inner=[])
@example(lhs=Interval(4, 4, 4), rhs=Interval(4, 4, 4), strict=True, inner=[])
@example(lhs=Interval(4, 4, 4), rhs=Interval(4, 4, 4), strict=False, inner=[])
def test_certify_decides_every_point_of_the_boxes(lhs, rhs, strict, inner):
    holds = operator.lt if strict else operator.le
    pairs = [(x, y) for x in (lhs.lo, lhs.hi) for y in (rhs.lo, rhs.hi)]
    pairs += [(lhs.lo + s * (lhs.hi - lhs.lo), rhs.lo + t * (rhs.hi - rhs.lo))
              for s, t in inner]
    outcomes = {holds(x, y) for x, y in pairs}
    verdict = certify(lhs.lo, lhs.hi, rhs.lo, rhs.hi, strict)
    expected = {S2aVerdict.HOLDS: {True}, S2aVerdict.FAILS: {False},
                S2aVerdict.UNKNOWN: {True, False}}[verdict]
    assert outcomes == expected


@settings(max_examples=500, deadline=None)
@given(a=boxes(), b=boxes(), value=GRID, q=GRID, c=POSITIVE)
@example(a=Interval(0, 0, 4), b=Interval(0, 0, 4), value=Q(0), q=Q(1), c=Q(1))
@example(a=Interval(4, 4, 4), b=Interval(4, 4, 4), value=Q(0), q=Q(0), c=Q(1))
def test_solovay_and_prop1_routes_equal_the_old_comparisons(a, b, value, q, c):
    (a_lo, a_hi), (b_lo, b_hi) = box_fractions(a), box_fractions(b)
    diff, gap = solovay_sides(a, b, value, q, c)
    assert box_fractions(diff) == (a_lo - value, a_hi - value)
    assert box_fractions(gap) == (c * (b_lo - q), c * (b_hi - q))
    verdict = solovay_verdict(diff, gap)
    assert verdict is old_solovay_at(a_lo, a_hi, b_lo, b_hi, value, q, c)
    below, gap_row = _prop1_rows(0, a, b, value, q, value, c)
    assert gap_row["verdict"] == old_gap_bound(a_lo - value, a_hi - value,
                                               c * (b_lo - q), c * (b_hi - q))
    assert below["verdict"] == old_below_alpha(value, a_lo, a_hi)


def grid_reals():
    exact = st.builds(ExactRational, st.builds(Q, st.integers(0, 8), st.just(8)))
    series = st.builds(lambda slope, offset: DyadicSeries(AffineExponents(slope, offset)),
                       st.integers(1, 3), st.integers(1, 4))
    return st.one_of(exact, series)


@settings(max_examples=300, deadline=None)
@given(alpha=grid_reals(), beta=grid_reals(),
       a=st.builds(Q, st.integers(0, 8), st.just(8)),
       b=st.builds(Q, st.integers(0, 8), st.just(8)),
       c=POSITIVE, n=st.integers(0, 4), guard=st.integers(0, 3))
@example(alpha=ExactRational(Q(1, 2)), beta=ExactRational(Q(1, 4)), a=Q(0), b=Q(1, 4),
         c=Q(1), n=1, guard=0)
def test_step_checks_equal_the_old_comparisons(alpha, beta, a, b, c, n, guard):
    w = S2aWitness(const_approx(a), const_approx(b), c)
    soft = check_s2a_prefix(w, alpha, beta, n, guard)[n]
    strict = check_strict_at(alpha, beta, a, b, c, n, guard)
    for chk, old in ((soft, old_s2a_prefix), (strict, old_strict_at)):
        assert chk.verdict is old(*box_fractions(chk.alpha_err), *box_fractions(chk.beta_err),
                                  c, Q(1, 2 ** n))


# -- the Fraction row formulas that the integer rows replaced, kept as the
# reference: every row the checkers write must equal them string for string.

def reference_abs_err_bounds(lo, hi, t):
    """|x - t| over x in [lo, hi]: (lower, upper), lower 0 when t lies inside."""
    lo_d, hi_d = abs(lo - t), abs(hi - t)
    return (Q(0) if lo <= t <= hi else min(lo_d, hi_d)), max(lo_d, hi_d)


def reference_step_row(alpha, beta, a, b, c, n, guard, strict):
    """A step check's row as the Fraction checker and _step_check_row wrote it."""
    precision = Q(1, 2 ** (n + guard))
    alpha_box, beta_box = reference_enclose(alpha, precision), reference_enclose(beta, precision)
    a_lo, a_hi = reference_abs_err_bounds(*alpha_box, a)
    b_lo, b_hi = reference_abs_err_bounds(*beta_box, b)
    slack = Q(1, 2 ** n)
    verdict = (old_strict_at if strict else old_s2a_prefix)(a_lo, a_hi, b_lo, b_hi, c, slack)
    return {
        "n": n,
        "verdict": verdict.value,
        "alpha_err": [str(a_lo), str(a_hi)],
        "beta_err": [str(b_lo), str(b_hi)],
        "bound_if_beta_err_lo": str(c * (b_lo + slack)),
        "enclosure_widths": [str(alpha_box[1] - alpha_box[0]), str(beta_box[1] - beta_box[0])],
    }


def reference_prop1_rows(alpha, beta, a_n, b_n, g_n, c, n, guard):
    """prop1's below_alpha and gap_bound rows as the Fraction harness wrote them."""
    precision = Q(1, 2 ** (n + guard))
    (a_lo, a_hi), (b_lo, b_hi) = reference_enclose(alpha, precision), reference_enclose(beta, precision)
    diff = [a_lo - g_n, a_hi - g_n]
    gap = [c * (b_lo - b_n), c * (b_hi - b_n)]
    below = {"n": n, "verdict": old_below_alpha(a_n, a_lo, a_hi), "a_n": str(a_n),
             "alpha_enclosure": [str(a_lo), str(a_hi)]}
    return below, {"n": n, "verdict": old_gap_bound(*diff, *gap),
                   "alpha_minus_g": [str(x) for x in diff],
                   "c_times_beta_gap": [str(x) for x in gap]}


TERMS = st.fractions(min_value=0, max_value=1, max_denominator=2 ** 12)
THIRD = DyadicSeries(AffineExponents(2, 2))  # 1/3, whose enclosures straddle it


@settings(max_examples=300, deadline=None)
@given(alpha=reference_reals(), beta=reference_reals(), a=TERMS, b=TERMS, g=TERMS,
       c=st.fractions(min_value=Q(1, 16), max_value=8, max_denominator=16),
       n=st.integers(0, 12), guard=st.integers(0, 10), strict=st.booleans())
# a term inside its box: alpha's lower error is 0
@example(alpha=THIRD, beta=THIRD, a=Q(1, 3), b=Q(0), g=Q(0), c=Q(1), n=2, guard=3, strict=True)
# a point enclosure: the listed series runs out
@example(alpha=DyadicSeries(ListExponents((1, 3))), beta=DyadicSeries(ListExponents(())),
         a=Q(1, 2), b=Q(0), g=Q(5, 8), c=Q(1), n=4, guard=8, strict=False)
# alpha - g < 0 at both ends
@example(alpha=ExactRational(Q(1, 16)), beta=ExactRational(Q(1, 8)), a=Q(1, 4), b=Q(1, 8),
         g=Q(1, 2), c=Q(1), n=3, guard=8, strict=True)
# the bound met exactly: |alpha - a| = c*(|beta - b| + 2**-n) and alpha - g = c*(beta - b)
@example(alpha=ExactRational(Q(1, 2)), beta=ExactRational(Q(1, 4)), a=Q(0), b=Q(1, 4),
         g=Q(1, 4), c=Q(1), n=1, guard=0, strict=False)
@example(alpha=ExactRational(Q(1, 2)), beta=ExactRational(Q(1, 4)), a=Q(0), b=Q(0),
         g=Q(1, 4), c=Q(1), n=2, guard=0, strict=True)
def test_rows_equal_the_fraction_reference(alpha, beta, a, b, g, c, n, guard, strict):
    """The integer rows equal the Fraction formulas they replaced, string
    for string and in key order."""
    if strict:
        chk = check_strict_at(alpha, beta, a, b, c, n, guard)
    else:
        chk = check_s2a_prefix(S2aWitness(const_approx(a), const_approx(b), c),
                               alpha, beta, n, guard)[n]
    want = reference_step_row(alpha, beta, a, b, c, n, guard, strict)
    assert list(_step_check_row(chk).items()) == list(want.items())
    rows = _prop1_rows(n, enclose(alpha, n + guard), enclose(beta, n + guard), a, b, g, c)
    for row, want in zip(rows, reference_prop1_rows(alpha, beta, a, b, g, c, n, guard)):
        assert list(row.items()) == list(want.items())


def prop1_scenario(name, u, v, c):
    """linear_basic (alpha = 1/16, beta = 1/8) with the value rule g(q) = u*q + v."""
    raw = json.loads(corpus_path("linear_basic").read_text(encoding="utf-8"))
    raw["name"] = name
    raw["solovay_witness"].update(constant=c, value_rule={"u": u, "v": v})
    return parse_scenario(raw, name)


@pytest.mark.parametrize("scenario", [
    *[parse_scenario(json.loads(corpus_path(name).read_text(encoding="utf-8")), name)
      for name in [*LEFTCE_WITNESS_NAMES, "invalid_g_above"]],
    prop1_scenario("g_equals_alpha", "0", "1/16", "1"),      # alpha - g(b_n) = 0
    prop1_scenario("gap_at_bound", "1/2", "0", "1/2"),       # alpha - g(b_n) = c*(beta - b_n)
    prop1_scenario("g_overshoots", "1", "0", "1"),
], ids=lambda sc: sc.name)
def test_prop1_rows_equal_the_old_comparisons(scenario):
    sections = verify_prop1(scenario.replace(depth=8)).sections
    for row in sections["below_alpha"]["steps"]:
        lo, hi = map(Q, row["alpha_enclosure"])
        assert row["verdict"] == old_below_alpha(Q(row["a_n"]), lo, hi)
    for row in sections["gap_bound"]["steps"]:
        bounds = map(Q, row["alpha_minus_g"] + row["c_times_beta_gap"])
        assert row["verdict"] == old_gap_bound(*bounds)
