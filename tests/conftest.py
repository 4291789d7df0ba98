from __future__ import annotations

import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from solred import witnesses
from solred.approximations import Approximation, PrependGen, _fraction_keys
from solred.construction import RequirementTuple, _Domain, build_s2a_from_solovay, search_step
from solred.reals import ZERO
from solred.scenario import load_scenario
from solred.witnesses import DyadicEnumeration

CORPUS = Path(__file__).resolve().parent.parent / "src" / "solred" / "corpus"

VALID_WITNESS_NAMES = [
    "linear_basic",
    "identity_c2",
    "staged_delay",
    "oscillating",
    "table_tail",
    "scaled_alpha",
]
INVALID_WITNESS_NAMES = ["invalid_small_c", "invalid_g_above"]
MIRROR_NAMES = ["mirror_geometric", "mirror_staircase"]
LEFTCE_WITNESS_NAMES = ["linear_basic", "identity_c2", "staged_delay"]
ALL_NAMES = VALID_WITNESS_NAMES + INVALID_WITNESS_NAMES + MIRROR_NAMES


def corpus_path(name: str) -> Path:
    return CORPUS / f"{name}.json"


def point(enumeration: DyadicEnumeration, j: int) -> Fraction:
    """q_j as a Fraction, from its integer pair."""
    numerator, exponent = enumeration.dyadic(j)
    return Fraction(numerator, 1 << exponent)


def box_fractions(box) -> tuple[Fraction, Fraction]:
    """An integer enclosure (lo, hi, d) as its two Fraction endpoints."""
    return Fraction(box.lo, box.d), Fraction(box.hi, box.d)


def prepended(raw: Approximation) -> Approximation:
    """0, then raw: the target a construction on raw builds, which i_n indexes."""
    return Approximation(PrependGen(ZERO, raw.gen))


def fresh_search(n, prev_index, w, b, stage_budget):
    """The step-n search after prev_index on a fresh domain at stage 0."""
    return search_step(n, prev_index, _Domain(w, b, stage_budget))


class TwoTail:
    """A generator with terms head[0], head[1], ..., then even, odd, even,
    odd, ... from index n0 = len(head): its two tail keys first appear at
    n0 and n0 + 1, where no library generator's settle index is exact."""

    def __init__(self, head, even, odd):
        self.head, self.even, self.odd = tuple(head), even, odd

    def __repr__(self):
        return f"TwoTail({self.head!r}, {self.even!r}, {self.odd!r})"

    def term(self, n):
        if n < len(self.head):
            return self.head[n]
        return self.even if (n - len(self.head)) % 2 == 0 else self.odd

    def keys(self, n, m):
        return _fraction_keys(self.term(n), m)

    def settle(self, m):
        return len(self.head)


def integer_ladder(indices, points, values) -> RequirementTuple:
    """The RequirementTuple of a ladder given in Fractions.

    The points go over their least common denominator, and each g-value
    becomes its (numerator, denominator) pair; a g-value already given as
    an integer pair, such as the value rule's unreduced one, is kept.
    """
    points = [Fraction(p) for p in points]
    scale = lcm(*(p.denominator for p in points))
    return RequirementTuple(tuple(indices),
                            tuple(p.numerator * (scale // p.denominator) for p in points),
                            scale, tuple(map(_value_pair, values)))


def _value_pair(v) -> tuple[int, int]:
    if type(v) is tuple:
        return v
    v = Fraction(v)
    return v.numerator, v.denominator


def nested_alpha_text(levels: int) -> str:
    """linear_basic with alpha wrapped in complements to `levels` JSON levels.

    Built as a string: the JSON encoder itself recurses once per level.
    """
    complements = levels - 2  # the root object and the innermost rational
    leaf = '{"kind": "rational", "value": "1/16"}'
    alpha = '{"kind": "complement", "inner": ' * complements + leaf + "}" * complements
    return corpus_path("linear_basic").read_text(encoding="utf-8").replace(leaf, alpha, 1)


def nested_generator_text(levels: int, kind: str) -> str:
    """linear_basic with its beta generator wrapped in `kind` generators to `levels` JSON levels."""
    wrappers = levels - 3  # the root object, beta_approx and the innermost generator
    leaf = '{"kind": "affine_dyadic", "u": "1/8", "v": "1/8", "w": 1}'
    head = '"head": "0", ' if kind == "prepend" else ""
    chain = f'{{"kind": "{kind}", {head}"inner": ' * wrappers + leaf + "}" * wrappers
    return corpus_path("linear_basic").read_text(encoding="utf-8").replace(leaf, chain, 1)


def count_fraction_points(monkeypatch) -> dict[str, int]:
    """Count calls of canonical_point, the library's Fraction view of a domain
    point, from now on."""
    calls = {"canonical_point": 0}
    real = witnesses.canonical_point

    def counting(j):
        calls["canonical_point"] += 1
        return real(j)
    monkeypatch.setattr(witnesses, "canonical_point", counting)
    return calls


def probe_bound(stage_cap: int) -> int:
    """Most one-stage probes oracle_min_hit may make below a stage cap:
    2 * ceil(log2(cap)) + 2, the gallop's and the bisection's."""
    return 2 * (stage_cap - 1).bit_length() + 2 if stage_cap else 0


@pytest.fixture(scope="session")
def scenarios():
    return {name: load_scenario(corpus_path(name)) for name in ALL_NAMES}


@pytest.fixture(scope="session")
def built(scenarios):
    """Full-depth construction for every valid witness scenario, built once.

    Maps name -> trace; each build must finish within 60 s of wall time.
    """
    out = {}
    for name in VALID_WITNESS_NAMES:
        sc = scenarios[name]
        t0 = time.monotonic()
        out[name] = build_s2a_from_solovay(
            sc.solovay_witness, sc.beta_approx, depth=sc.depth, stage_budget=sc.stage_budget)
        wall = time.monotonic() - t0
        assert wall < 60.0, (name, wall)
    return out
