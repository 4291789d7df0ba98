from __future__ import annotations

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solred.approximations import Approximation, Kind, Table
from solred.errors import InvalidScenario
from solred.reals import ExactRational
from solred.witnesses import (
    DyadicEnumeration,
    S2aVerdict,
    S2aWitness,
    SolovayVerdict,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
    canonical_index,
    canonical_point,
    check_s2a_prefix,
    check_solovay_at,
    check_strict_at,
    enumerate_domain,
    eval_staged,
)


def staged(slope=0, offset=0, stage_overrides=(), u=Q(1, 2), v=Q(0), value_overrides=()):
    return StagedPartialFunction(
        DyadicEnumeration(),
        StageSchedule(slope, offset, tuple(stage_overrides)),
        ValueRule(u, v, tuple(value_overrides)))


HALVING = staged()  # g(q) = q/2, every point defined at stage 0


def test_canonical_enumeration_first_points():
    want = [Q(0), Q(1, 2), Q(1, 4), Q(3, 4), Q(1, 8), Q(3, 8), Q(5, 8), Q(7, 8), Q(1, 16)]
    assert [canonical_point(j) for j in range(9)] == want


def test_canonical_index_off_enumeration():
    assert canonical_index(Q(1, 3)) is None
    assert canonical_index(Q(1)) is None
    assert canonical_index(Q(0)) == 0


@settings(max_examples=200, deadline=None)
@given(j=st.integers(0, 1 << 14))
def test_canonical_index_inverts_canonical_point(j):
    assert canonical_index(canonical_point(j)) == j


def test_enumeration_prefix_permutation():
    perm = DyadicEnumeration((Q(0), Q(1, 4), Q(1, 2)))
    assert perm.point(1) == Q(1, 4)
    assert perm.index_of(Q(1, 2)) == 2
    assert perm.point(3) == Q(3, 4)
    with pytest.raises(ValueError):
        DyadicEnumeration((Q(1, 2), Q(0)))
    with pytest.raises(ValueError):
        DyadicEnumeration((Q(0), Q(1, 8)))


def test_eval_staged_immediate_and_delayed():
    assert eval_staged(HALVING, Q(1, 4), 0) == Q(1, 8)
    delayed = staged(stage_overrides=[(5, 100)])
    q5 = canonical_point(5)
    assert eval_staged(delayed, q5, 50) is None
    assert eval_staged(delayed, q5, 100) == q5 / 2
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
    assert enumerate_domain(HALVING, 0) == [(0, Q(0), Q(0))]
    assert [j for j, _, _ in enumerate_domain(HALVING, 3)] == [0, 1, 2, 3]
    doubled = staged(slope=2)
    assert [j for j, _, _ in enumerate_domain(doubled, 4)] == [0, 1, 2]


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
    with pytest.raises(InvalidScenario):
        check_solovay_at(w, alpha, beta, Q(3, 4), 0, 10)


def const_approx(value):
    return Approximation(Table((), Q(value)), Kind.GENERAL, None)


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
