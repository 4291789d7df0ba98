"""End-to-end acceptance checks for the witness construction toolkit.

Each test pins one shipped guarantee: full-depth construction with the
constant carried through unchanged, exact agreement between the
incremental search and the oracle, decidable requirement checks,
left-c.e. closure with certified gaps, mirror pairs at constant one,
honest failure reporting, byte-identical reruns, and sound enclosures.
"""
from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from fractions import Fraction as Q

from solred import cli, harness
from solred.approximations import Kind, check_kind_prefix
from solred.construction import check_requirement
from solred.harness import trace_payload, verify_mirror, verify_prop1
from solred.oracle import oracle_min_hit
from solred.reals import (
    AffineExponents,
    Average,
    Complement,
    DyadicSeries,
    ExactRational,
    ListExponents,
    Scale,
    enclose,
)
from solred.witnesses import S2aVerdict, check_strict_at

from conftest import (
    ALL_NAMES,
    INVALID_WITNESS_NAMES,
    LEFTCE_WITNESS_NAMES,
    MIRROR_NAMES,
    VALID_WITNESS_NAMES,
    box_fractions,
    corpus_path,
    integer_ladder,
)


def test_same_constant_full_depth_holds_within_budget(built, scenarios):
    assert len(VALID_WITNESS_NAMES) >= 6
    for name in VALID_WITNESS_NAMES:
        trace, sc = built[name], scenarios[name]
        c = sc.solovay_witness.c
        assert sc.depth == 12 and sc.stage_budget == 10000
        assert trace.exhausted is None
        assert len(trace.steps) == 13
        assert all(s.stage_found <= sc.stage_budget for s in trace.steps)
        for rec in trace.steps[1:]:
            cert = check_strict_at(sc.alpha, sc.beta, rec.value, rec.b_value,
                                   c, rec.n, guard=8)
            assert cert.verdict is S2aVerdict.HOLDS, (name, rec.n)
        assert trace_payload(sc, trace)["witness"]["constant"] == str(c), name


def test_search_and_oracle_agree_exactly_through_step_six(built, scenarios):
    for name in VALID_WITNESS_NAMES:
        trace = built[name]
        sc = scenarios[name]
        for n in range(1, 7):
            hit = oracle_min_hit(n, trace.steps[n - 1].index,
                                 sc.solovay_witness, trace.target, sc.stage_budget)
            assert hit == trace.steps[n], (name, n)


def _independent_requirement_verdict(n, b, c, points, values):
    """Plain clause-by-clause restatement on Fraction points and g-values,
    kept free of search machinery."""
    ell = len(points) - 1
    if ell < 2:
        return 1
    window = Q(1, 2 ** (n + 1))
    last = points[-1]
    if not (b - window < last < b):
        return 2
    if points[0] != 0 or any(x >= y for x, y in zip(points, points[1:])):
        return 3
    if any(y - x >= window for x, y in zip(points, points[1:])):
        return 4
    slack = Q(1, 2 ** (n + 2))
    g_last = values[-1]
    for k in range(ell):
        gap = g_last - values[k]
        if not (0 < gap < c * (last - points[k] + slack)):
            return 5
    return None


def _seed_cases():
    """(n, b, c, points, values) cases, each ladder in Fractions."""
    satisfied = (Q(0), Q(3, 16), Q(3, 8)), (Q(0), Q(3, 32), Q(3, 16))
    short = (Q(0), Q(3, 8)), (Q(0), Q(3, 16))
    shifted = (Q(1, 16), Q(3, 16), Q(3, 8)), (Q(1, 32), Q(3, 32), Q(3, 16))
    gapped = (Q(0), Q(1, 4), Q(3, 8)), (Q(0), Q(1, 8), Q(3, 16))
    flat = (Q(0), Q(3, 16), Q(3, 8)), (Q(0), Q(3, 16), Q(3, 16))
    return [
        (1, Q(1, 2), Q(1), *satisfied),
        (1, Q(3, 8), Q(1), *satisfied),
        (1, Q(1, 2), Q(1), *short),
        (1, Q(1, 2), Q(1), *shifted),
        (1, Q(1, 2), Q(1), *gapped),
        (1, Q(1, 2), Q(1), *flat),
    ]


def test_requirement_verdicts_match_independent_reevaluation():
    rng = random.Random(20260816)
    cases = _seed_cases()
    constants = (Q(1, 4), Q(1), Q(2))
    random_cases = 1200
    for _ in range(random_cases):
        length = rng.randint(1, 6)
        if rng.random() < 0.7:
            raw = sorted(rng.sample(range(64), length))
            if rng.random() < 0.8:
                raw[0] = 0
        else:
            raw = [rng.randrange(64) for _ in range(length)]
        points = tuple(Q(p, 64) for p in raw)
        if rng.random() < 0.6:
            values = tuple(p / 2 for p in points)
        else:
            values = tuple(Q(rng.randrange(128), 128) for _ in range(length))
        cases.append((rng.randint(1, 4), Q(rng.randrange(1, 128), 128),
                      rng.choice(constants), points, values))

    assert random_cases >= 1000
    seen = set()
    for n, b, c, points, values in cases:
        got = check_requirement(n, b, c, integer_ladder(range(len(points)), points, values))
        assert got is None or got in (1, 2, 3, 4, 5)
        assert got == _independent_requirement_verdict(n, b, c, points, values), (
            n, b, c, points, values)
        seen.add(got)
    assert seen == {None, 1, 2, 3, 4, 5}


def test_leftce_closure_stays_below_alpha_with_certified_gap(scenarios):
    depth = 20
    for name in LEFTCE_WITNESS_NAMES:
        sc = scenarios[name]
        w = sc.solovay_witness
        image = verify_prop1(sc.replace(depth=depth)).sections["image"]
        closure = [Q(row["a_n"]) for row in image["terms"]]
        assert len(closure) == depth + 1, name
        assert closure == sorted(closure), name
        for n in range(depth + 1):
            a_n = closure[n]
            b_n = sc.beta_approx.term(n)
            alpha_lo, alpha_hi = box_fractions(enclose(sc.alpha, n + sc.guard))
            beta_lo, _ = box_fractions(enclose(sc.beta, n + sc.guard))
            assert a_n < alpha_lo, (name, n)
            assert alpha_hi - a_n < w.c * (beta_lo - b_n), (name, n)


def _leftce_pool(scenarios):
    pool = []
    for name in ALL_NAMES:
        sc = scenarios[name]
        candidates = [("beta_approx", sc.beta_approx, sc.beta),
                      ("alpha_leftce_approx", sc.alpha_leftce_approx, sc.alpha)]
        if sc.s2a_witness is not None:
            candidates.append(("s2a.alpha_approx", sc.s2a_witness.alpha_approx, sc.alpha))
            candidates.append(("s2a.beta_approx", sc.s2a_witness.beta_approx, sc.beta))
        for label, approx, limit in candidates:
            if approx is not None and approx.kind is Kind.LEFT_CE:
                pool.append((f"{name}:{label}", approx, limit))
    return pool


def test_mirror_pairs_hold_with_constant_one(scenarios, monkeypatch):
    """Mirror mode pairs each left-c.e. approximation with its right-c.e.
    complement 1 - a_n at constant 1, and every pair row Holds at depth 30."""
    pool = _leftce_pool(scenarios)
    assert len(pool) == 12
    pairs = []
    real = harness.check_s2a_prefix

    def recording(m, *args):
        pairs.append(m)
        return real(m, *args)

    monkeypatch.setattr(harness, "check_s2a_prefix", recording)
    for label, approx, limit in pool:
        sc = scenarios[label.split(":")[0]].replace(
            alpha=limit, alpha_leftce_approx=approx, depth=30, guard=8)
        report = verify_mirror(sc)
        (m,) = pairs
        pairs.clear()
        assert m.c == Q(1), label
        assert m.beta_approx is approx and m.alpha_approx.kind is Kind.RIGHT_CE, label
        assert [m.alpha_approx.term(n) for n in range(31)] == \
            [1 - approx.term(n) for n in range(31)], label
        assert check_kind_prefix(m.alpha_approx, 30) is None, label
        assert check_kind_prefix(m.beta_approx, 30) is None, label
        assert report.sections["leftce_prefix"] == {"n_max": 30, "violation_at": None}, label
        section = report.sections["mirror"]
        assert section["constant"] == "1", label
        assert len(section["steps"]) == 31
        assert all(row["verdict"] == "holds" for row in section["steps"]), label


def test_mirror_reports_carry_labeled_citation(scenarios):
    for name in MIRROR_NAMES:
        report = verify_mirror(scenarios[name])
        assert report.exit_code() == 0, name
        assert report.citations, name
        assert {c["status"] for c in report.citations} == {"not machine-checkable"}


def test_invalid_witnesses_fail_and_zero_budget_exhausts(tmp_path, capsys):
    small_c_report = tmp_path / "small_c.json"
    code = cli.main(["verify", str(corpus_path("invalid_small_c")),
                     "--mode", "solovay-check", "--out", str(small_c_report)])
    capsys.readouterr()
    assert code == 1
    payload = json.loads(small_c_report.read_bytes())
    grid = payload["sections"]["witness_grid"]
    assert grid["inequality"] == "0 < alpha - g(q) < c*(beta - q)"
    assert any(p["verdict"] == "fails_upper" for p in grid["points"])
    assert payload["summary"]["overall"] == "fail"

    g_above_report = tmp_path / "g_above.json"
    code = cli.main(["verify", str(corpus_path("invalid_g_above")),
                     "--mode", "construction", "--out", str(g_above_report)])
    capsys.readouterr()
    assert code == 1
    payload = json.loads(g_above_report.read_bytes())
    grid_verdicts = {p["verdict"]
                     for p in payload["sections"]["witness_grid"]["points"]}
    assert "fails_lower" in grid_verdicts
    cert_rows = payload["sections"]["step_certificates"]["steps"]
    assert any(row["verdict"] == "fails" for row in cert_rows)
    assert payload["summary"]["overall"] == "fail"

    partial = tmp_path / "partial.json"
    code = cli.main(["construct", str(corpus_path("invalid_small_c")),
                     "--stage-budget", "0", "--out", str(partial)])
    capsys.readouterr()
    assert code == 2
    payload = json.loads(partial.read_bytes())
    assert payload["exhausted"] == {"step": 1, "stage_budget": 0}
    assert len(payload["steps"]) == 1


NATURAL_VERIFY_MODE = dict(
    [(name, "solovay-check")
     for name in VALID_WITNESS_NAMES + INVALID_WITNESS_NAMES]
    + [(name, "mirror") for name in MIRROR_NAMES])


def test_construct_and_verify_reruns_are_byte_identical(tmp_path, capsys):
    for name in ALL_NAMES:
        path = str(corpus_path(name))
        outs = [tmp_path / f"{name}.construct.{i}.json" for i in (1, 2)]
        codes = []
        for out in outs:
            codes.append(cli.main(["construct", path, "--out", str(out)]))
            capsys.readouterr()
        assert codes[0] == codes[1], name
        if name in MIRROR_NAMES:
            assert codes[0] == 3
            assert not outs[0].exists() and not outs[1].exists()
        else:
            assert codes[0] == (2 if name == "invalid_small_c" else 0), name
            assert outs[0].read_bytes() == outs[1].read_bytes(), name

        vouts = [tmp_path / f"{name}.verify.{i}.json" for i in (1, 2)]
        vcodes = []
        for out in vouts:
            vcodes.append(cli.main(["verify", path, "--mode",
                                    NATURAL_VERIFY_MODE[name],
                                    "--out", str(out)]))
            capsys.readouterr()
        assert vcodes[0] == vcodes[1], name
        assert vouts[0].read_bytes() == vouts[1].read_bytes(), name


def _random_real(rng, depth):
    choices = ("rational", "affine", "list") if depth == 0 else (
        "rational", "affine", "list", "scale", "average", "complement")
    kind = rng.choice(choices)
    if kind == "rational":
        den = rng.randint(2, 512)
        return ExactRational(Q(rng.randint(1, den - 1), den))
    if kind == "affine":
        return DyadicSeries(AffineExponents(rng.randint(1, 5), rng.randint(2, 8)))
    if kind == "list":
        exps = sorted(rng.sample(range(1, 40), rng.randint(1, 6)))
        return DyadicSeries(ListExponents(tuple(exps)))
    if kind == "scale":
        return Scale(_random_real(rng, depth - 1), Q(rng.randint(1, 64), 64))
    if kind == "average":
        return Average(_random_real(rng, depth - 1), _random_real(rng, depth - 1))
    return Complement(_random_real(rng, depth - 1))


def _closed_form(real):
    if isinstance(real, ExactRational):
        return real.value
    if isinstance(real, DyadicSeries):
        exps = real.exponents
        if isinstance(exps, ListExponents):
            return sum((Q(1, 2 ** e) for e in exps.values), Q(0))
        return Q(1, 2 ** exps.t) / (1 - Q(1, 2 ** exps.s))
    if isinstance(real, Scale):
        return real.factor * _closed_form(real.inner)
    if isinstance(real, Average):
        return (_closed_form(real.left) + _closed_form(real.right)) / 2
    return 1 - _closed_form(real.inner)


def test_enclosures_contain_value_and_nest_across_precisions():
    rng = random.Random(8161991)
    ladder = (3, 8, 14, 23, 40)
    calls = 0
    top_level = Counter()
    for _ in range(2000):
        real = _random_real(rng, rng.choice((0, 1, 2)))
        top_level[type(real).__name__] += 1
        value = _closed_form(real)
        boxes = []
        for bits in ladder:
            lo, hi = box_fractions(enclose(real, bits))
            calls += 1
            assert lo <= value <= hi, real
            assert hi - lo <= Q(1, 2 ** bits), real
            boxes.append((lo, hi))
        for coarse, fine in itertools.combinations(boxes, 2):
            assert coarse[0] <= fine[0] and fine[1] <= coarse[1], real
    assert calls == 10000
    assert set(top_level) >= {"ExactRational", "DyadicSeries", "Scale",
                              "Average", "Complement"}
