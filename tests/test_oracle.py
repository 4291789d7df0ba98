from __future__ import annotations

import hashlib
from fractions import Fraction as Q

import pytest

from solred import cli, harness, oracle
from solred.approximations import AffineDyadic, Approximation, Kind
from solred.construction import (
    ConstructionTrace,
    StepRecord,
    build_s2a_from_solovay,
    check_requirement,
)
from solred.oracle import oracle_min_hit
from solred.scenario import load_scenario
from solred.witnesses import (
    NEVER,
    DyadicEnumeration,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
)

from conftest import (
    INVALID_WITNESS_NAMES,
    corpus_path,
    count_fraction_points,
    prepended,
    probe_bound,
)


def witness(u="1/2", c="1", slope=0, offset=0, overrides=()):
    g = StagedPartialFunction(
        DyadicEnumeration(),
        StageSchedule(slope, offset, tuple(overrides)),
        ValueRule(Q(u), Q(0)))
    return SolovayWitness(g, Q(c))


def half_approx():
    return prepended(Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE))


def test_zero_cap_finds_nothing():
    assert oracle_min_hit(1, 0, witness(), half_approx(), stage_cap=0) is None


def test_step_zero_is_not_searchable():
    with pytest.raises(ValueError):
        oracle_min_hit(0, 0, witness(), half_approx(), stage_cap=10)
    with pytest.raises(ValueError):
        oracle_min_hit(1, 0, witness(), half_approx(), stage_cap=-1)


def test_single_point_domain_yields_nothing():
    w = witness(overrides=[(j, NEVER) for j in range(1, 51)])
    assert oracle_min_hit(1, 0, w, half_approx(), stage_cap=20) is None


def test_cap_boundary_is_inclusive():
    w = witness()
    b = half_approx()
    hit = oracle_min_hit(1, 0, w, b, stage_cap=4)
    assert hit is not None
    assert (hit.stage_found, hit.index) == (4, 3)
    assert (hit.tup.points, hit.tup.scale) == ((0, 1, 2), 8)  # 0, 1/8, 1/4
    assert oracle_min_hit(1, 0, w, b, stage_cap=3) is None


def test_prev_index_pushes_candidates_forward():
    w = witness()
    b = half_approx()
    hit = oracle_min_hit(1, 5, w, b, stage_cap=50)
    assert hit is not None
    assert hit.index == 6
    assert check_requirement(1, b.term(hit.index), w.c, hit.tup) is None


def test_oracle_matches_search_chain_on_identity_witness():
    w = witness(u="1", c="2")
    raw = Approximation(AffineDyadic(Q(1, 2), Q(1, 2), 1), Kind.LEFT_CE)
    trace = build_s2a_from_solovay(w, raw, depth=4, stage_budget=1000)
    for rec in trace.steps[1:]:
        hit = oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, trace.target,
                             stage_cap=1000)
        assert hit == rec


def test_oracle_requirement_checks_are_pinned(monkeypatch):
    """The oracle builds one canonical ladder per hit and checks only that.

    Checking every ladder the backtracking enumerator reached cost 1,274
    check_requirement calls for this one oracle call.
    """
    sc = load_scenario(corpus_path("invalid_small_c"))
    w = sc.solovay_witness
    trace = build_s2a_from_solovay(w, sc.beta_approx, 1, sc.stage_budget)
    calls = 0
    real = oracle.check_requirement

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(oracle, "check_requirement", counting)
    hit = oracle_min_hit(2, trace.steps[1].index, w, trace.target, sc.stage_budget)
    assert hit is not None
    assert calls == 1


def count_calls(monkeypatch, owner, names):
    """Calls of each named attribute of owner, counted as they are made."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(owner, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in names:
        monkeypatch.setattr(owner, name, counting(name))
    return calls


def replay_invalid_files(monkeypatch, calls, seeded):
    """Construction mode on the two invalid files, whose 8 oracle replays
    each start at the search's stage when seeded and at stage 1 when not.

    Returns each replay's stage cap and the calls counted in calls while
    it ran.
    """
    real = oracle_min_hit
    replays = []

    def min_hit(n, prev_index, w, b, stage_cap, start):
        before = dict(calls)
        hit = real(n, prev_index, w, b, stage_cap, start if seeded else 1)
        replays.append((stage_cap, {k: v - before[k] for k, v in calls.items()}))
        return hit

    monkeypatch.setattr(harness, "oracle_min_hit", min_hit)
    for name in INVALID_WITNESS_NAMES:
        assert harness.verify_construction(load_scenario(corpus_path(name))).exit_code() == 1
    return replays


def total(replays):
    return {k: sum(counts[k] for _, counts in replays) for k in replays[0][1]}


def test_oracle_probe_count_is_pinned(monkeypatch):
    """Construction mode's 8 oracle replays on the two invalid files rebuild
    16 stages: each replay's search stage and the one below it.

    Started at stage 1, they rebuild 84, each replay at most
    2 * ceil(log2(stage budget)) + 2 stages, one domain rebuild per probe.
    Scanning every stage from 1 rebuilt 342.
    """
    calls = count_calls(monkeypatch, oracle, ["enumerate_domain"])
    replays = replay_invalid_files(monkeypatch, calls, seeded=True)
    assert all(counts["enumerate_domain"] <= 2 for _, counts in replays)
    assert (len(replays), total(replays)["enumerate_domain"]) == (8, 16)
    replays = replay_invalid_files(monkeypatch, calls, seeded=False)
    assert all(counts["enumerate_domain"] <= probe_bound(cap) for cap, counts in replays)
    assert (len(replays), total(replays)["enumerate_domain"]) == (8, 84)


def test_oracle_ladder_work_is_pinned(monkeypatch):
    """The same 8 replays build one ladder per (cut, lo) position in each stage.

    Over their 16 rebuilt stages they make 24 _first_ladder and 25
    _members calls; started at stage 1, over 84 stages, 92 and 70.  A
    ladder search per candidate made 1,226 and 1,240 from stage 1.
    """
    calls = count_calls(monkeypatch, oracle, ["enumerate_domain", "_first_ladder", "_members"])
    replays = replay_invalid_files(monkeypatch, calls, seeded=True)
    assert total(replays) == {"enumerate_domain": 16, "_first_ladder": 24, "_members": 25}
    replays = replay_invalid_files(monkeypatch, calls, seeded=False)
    assert total(replays) == {"enumerate_domain": 84, "_first_ladder": 92, "_members": 70}


def test_oracle_exact_term_reads_are_pinned(monkeypatch):
    """The same 8 replays locate each candidate by its keys and read b_i exactly
    only for a ladder check_requirement tests: 318 key reads and 8 term
    reads, one per replay; started at stage 1, 1,226 and 20.

    Reading every candidate's exact term made 1,226 term reads from stage 1.
    """
    calls = count_calls(monkeypatch, Approximation, ["term", "keys"])
    replays = replay_invalid_files(monkeypatch, calls, seeded=True)
    assert total(replays) == {"term": 8, "keys": 318}
    replays = replay_invalid_files(monkeypatch, calls, seeded=False)
    assert total(replays) == {"term": 20, "keys": 1226}


# Wrong step records handed to construction mode as the search's: each keeps
# the other fields of linear_basic's step 6, the last step it compares.
WRONG_RECORDS = {
    "another index": lambda r, prev: StepRecord(r.n, r.index + 1, r.value, r.b_value, r.tup,
                                                r.stage_found),
    "another ladder": lambda r, prev: StepRecord(r.n, r.index, r.value, r.b_value, prev.tup,
                                                 r.stage_found),
    "one stage late": lambda r, prev: StepRecord(r.n, r.index, r.value, r.b_value, r.tup,
                                                 r.stage_found + 1),
    "one stage early": lambda r, prev: StepRecord(r.n, r.index, r.value, r.b_value, r.tup,
                                                  r.stage_found - 1),
}


@pytest.mark.parametrize("wrong", WRONG_RECORDS)
def test_construction_mode_reports_a_wrong_record_with_the_oracles_hit(monkeypatch, wrong):
    """The oracle starts at the stage of the record it checks, yet answers
    with its own record: the wrong one disagrees, and the row gives the
    oracle's stage and index."""
    n, real_build = 6, harness.build_s2a_from_solovay
    seen = {}

    def build(*args):
        trace = real_build(*args)
        steps = list(trace.steps)
        seen["real"] = steps[n]
        steps[n] = seen["given"] = WRONG_RECORDS[wrong](steps[n], steps[n - 1])
        return ConstructionTrace(tuple(steps), trace.target, trace.exhausted)

    monkeypatch.setattr(harness, "build_s2a_from_solovay", build)
    report = harness.verify_construction(load_scenario(corpus_path("linear_basic")))
    rows = report.sections["oracle"]["comparisons"]
    real, given = seen["real"], seen["given"]
    assert given != real
    assert len(rows) == n and all(row["agrees"] for row in rows[:n - 1])
    assert rows[n - 1] == {"n": n, "agrees": False,
                           "search": {"stage": given.stage_found, "i": given.index},
                           "oracle": {"stage": real.stage_found, "i": real.index}}
    assert report.exit_code() == 1


def test_oracle_inner_loop_runs_on_integers(monkeypatch):
    """Every point, g-value part, constant part and scale _members reads is an int.

    Replays the first six steps of invalid_g_above, as construction mode does.
    enumerate_domain returns every point and both parts of every g-value as
    ints, and neither the build nor the replay builds a Fraction point.
    """
    points = count_fraction_points(monkeypatch)
    real_domain = oracle.enumerate_domain

    def domain_checking(g, stage, m):
        domain = real_domain(g, stage, m)
        assert all(type(v) is int for _, x, (p, q) in domain for v in (x, p, q))
        return domain

    monkeypatch.setattr(oracle, "enumerate_domain", domain_checking)
    sc = load_scenario(corpus_path("invalid_g_above"))
    w = sc.solovay_witness
    trace = build_s2a_from_solovay(w, sc.beta_approx, 6, sc.stage_budget)
    real = oracle._members
    calls = 0

    def checking(f, points, nums, dens, cn, cd, d, slack):
        nonlocal calls
        calls += 1
        assert all(type(x) is int for x in (*points, *nums, *dens, cn, cd, d, slack))
        return real(f, points, nums, dens, cn, cd, d, slack)

    monkeypatch.setattr(oracle, "_members", checking)
    for rec in trace.steps[1:]:
        assert oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, trace.target,
                              sc.stage_budget) == rec
    assert len(trace.steps) == 7 and calls > 0
    assert points == {"canonical_point": 0}


def test_oracle_reads_every_domain_value_through_the_value_rule(monkeypatch):
    """Each probe rebuilds its stage one index at a time through the
    witness's own value rule: replaying the first six steps of
    invalid_g_above, as construction mode does, calls ValueRule.ratio once
    per entry that enumerate_domain returns, with no second formula for
    the affine values."""
    sc = load_scenario(corpus_path("invalid_g_above"))
    w = sc.solovay_witness
    trace = build_s2a_from_solovay(w, sc.beta_approx, 6, sc.stage_budget)
    calls = count_calls(monkeypatch, ValueRule, ["ratio"])
    real_domain = oracle.enumerate_domain
    entries = 0

    def domain_counting(g, stage, m):
        nonlocal entries
        domain = real_domain(g, stage, m)
        entries += len(domain)
        return domain

    monkeypatch.setattr(oracle, "enumerate_domain", domain_counting)
    for rec in trace.steps[1:]:
        assert oracle_min_hit(rec.n, trace.steps[rec.n - 1].index, w, trace.target,
                              sc.stage_budget) == rec
    assert len(trace.steps) == 7 and entries > 0
    assert calls == {"ratio": entries}


EMPTY = hashlib.sha256(b"").hexdigest()

# (scenario, step, exit code, SHA-256 of stdout, SHA-256 of the payload or None)
ORACLE_OUTPUTS = [
    ("linear_basic", 3, 0, "49427a0885286a8f2a592189d4e8a0451cf51fd868ed874480ee8976d200c7bd",
     "15af3d6745f080320c42b6a239059717369da67edfb960dd716507dc933f0667"),
    ("identity_c2", 3, 0, "18ff4e9af0aa6e75f8802f1dd953f58c2efa99d46f87ec6c7406e3b0feb4b8c1",
     "74a4308b4febf5e72a349af9f47e6b846182b49c36fdde62707e0b2f50675218"),
    ("staged_delay", 3, 0, "fd6b5d4e0453a91125beb9e6feee0927cdca1ec58988e9a1ef2b98e905d5c60a",
     "f3a4e2c675c07acd2085a6ec31dccf839319b94fa8de50642b87419ce4b15b0f"),
    ("oscillating", 3, 0, "9bccf886808b357e5bd2e5ef85d3b3c8334ad40a4084b3c0824127551f5f8c22",
     "0c8899b9291f0eaec55c212fa29bf54c25d539429c11d3b3fd32f5fc76e2b7e9"),
    ("table_tail", 3, 0, "4701ed92b106efcc7847deafce350cd9ad33c2e6b7650250cc3513e2ed13e5ba",
     "503dc8efc25329476de2973e10fcb2aeafd228628702c6659841d0c6df96c0ce"),
    ("scaled_alpha", 3, 0, "47c311b0242840ea786b3846a16681a28e68d24667060e57aeaaec115c2f31a6",
     "bcd4a1817eaf519f35b9e0f226e91d65332898a2441a8cdc55eab70f0fe79176"),
    ("invalid_small_c", 3, 2, "3d97c20d5fcc722951d207768ef65f80363e2f620e3321c1dc2bc58d14b72b37",
     "7873d85bc49badac0c56a35bf9a92e6d3b8b129c57ba0cbcec1d5d9ae0ccb27f"),
    ("invalid_g_above", 3, 0, "f921378fc11f4cea01b120f0bfaeda399679f0440b30ed12a445c01621ca9d08",
     "9c7996be0c77eff7908c45c823d9b698771a29c05f2da6f2613ee8b34496be71"),
    ("mirror_geometric", 3, 3, EMPTY, None),
    ("mirror_staircase", 3, 3, EMPTY, None),
    ("linear_basic", 5, 0, "2837d50665d96781e5733a0a1d4f511a28435fb01ffb7c783b893c175ac24030",
     "96b9c660fc95d44e9ed246faf73b7e1cb9ae79df096366f09ba5b90525fbd70c"),
    ("identity_c2", 5, 0, "532add27ad70e4bfe6388a9fd626707f8e7c87ee012a086bed09fde3dc5791f6",
     "da4733715029d7ef33ac116fa774fce1da9fc9b2af14ee661dd70a2c15aaabed"),
    ("staged_delay", 5, 0, "fb5c81667d50d2c82508c232d1370a33d99ea72da1b6e8fbff2860f6a0ab7e69",
     "f2f45613c8670e0fdded0ffd8b90c3aa7b1674faf1b17a56ba1e934b0f05dc5d"),
    ("oscillating", 5, 0, "85da839a38515981bdce41236fa6899972a02bb2fa1de342e7c8b7fd762a2d1c",
     "7521f2f8d08426307e95adc12d053e9d1a073cf8a4039561062e369d331ec731"),
    ("table_tail", 5, 0, "f3b49c6aede8d2135f2a3265bee89c39a056943865a0ac946e0708b5a8e2c97c",
     "51e422c82b7007b6737f37a32f90accb1332e832618a4488c8fb34d322b997da"),
    ("scaled_alpha", 5, 0, "ef41f1f4022a51417417d89302d0ad5b7ecb4dc0dc7960ef236ece69448e17ba",
     "e8274e2074daf2bf67864e2a9dda18b8c2437414ea9eed52c3f7740d8e6d5552"),
    ("invalid_small_c", 5, 2, EMPTY, None),  # exhausted before step 5: no payload
    ("invalid_g_above", 5, 0, "de0143cff8754e6df10aed135dd6196e79955e1585f4c3c41fa88c9ad24c8ec7",
     "89861b3d2562f0fd2bd09b7023175d83a89cf2c5c7ce8b1ca1afa79536839b25"),
    ("mirror_geometric", 5, 3, EMPTY, None),
    ("mirror_staircase", 5, 3, EMPTY, None),
    ("scaled_alpha", 6, 0, "3ad2bde1e4d84314da013b2a89e9bd06d5cc29f7738e3e35dab1081e653f2b59",
     "044c7d0e1d98de7713d7bc8f6b92ba8d19ff73f3e681b1cb145969da7b223dce"),
]


@pytest.mark.parametrize("name, step, code, stdout_sha, payload_sha", ORACLE_OUTPUTS)
def test_oracle_outputs_are_byte_stable(tmp_path, capsys, name, step, code, stdout_sha,
                                        payload_sha):
    """`solred oracle` keeps its exit code, stdout and payload bytes on the corpus."""
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle", str(corpus_path(name)), "--step", str(step),
                     "--out", str(out)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    payload = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    assert payload == payload_sha
