"""The immutable records: value equality, immutability and a validating replace,
all from one base that generates no code."""
from __future__ import annotations

import copy
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from solred.approximations import (
    AffineDyadic,
    AlternatingDyadic,
    Approximation,
    ComplementGen,
    Kind,
    PrefixMaxGen,
    PrependGen,
    Table,
)
from solred.construction import ConstructionTrace, RequirementTuple, StepRecord, WitnessImage
from solred.reals import (
    AffineExponents,
    Average,
    Complement,
    DyadicSeries,
    ExactRational,
    ListExponents,
    Scale,
)
from solred.records import Record
from solred.scenario import Scenario, load_scenario
from solred.witnesses import (
    DyadicEnumeration,
    S2aWitness,
    SolovayWitness,
    StagedPartialFunction,
    StageSchedule,
    ValueRule,
)

from conftest import corpus_path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_the_cli_imports_and_loads_a_scenario_without_code_generation_modules():
    """dataclasses (with inspect, which it imports) and traceback cost every
    run several milliseconds of start-up; none may be imported to load a
    scenario.  -S keeps site-packages .pth hooks out of the answer."""
    code = ("import sys, solred.cli\n"
            "from solred.scenario import load_scenario\n"
            f"load_scenario({str(corpus_path('linear_basic'))!r})\n"
            "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert proc.stdout == "[]\n"


def _dyadic() -> AffineDyadic:
    return AffineDyadic(Q(1, 2), Q(1, 4), 1)


def _g() -> StagedPartialFunction:
    return StagedPartialFunction(DyadicEnumeration(), StageSchedule(1, 0), ValueRule())


def _ladder() -> RequirementTuple:
    return RequirementTuple((0, 1, 3), (0, 2, 6), 8, ((1, 2), (3, 4), (7, 8)))


_SC = load_scenario(corpus_path("linear_basic"))

# (class, its constructor's positional arguments, changes for replace, and the
# ValueError text those changes raise, or None for a class with no checks)
FROZEN = [
    (AffineDyadic, (Q(1, 2), Q(1, 4), 1), {"w": 0}, "decay rate w must be >= 1"),
    (AlternatingDyadic, (Q(1, 2), Q(1, 4), 1), {"v": Q(-1, 8)},
     "oscillation amplitude must be >= 0"),
    (Table, ((Q(1, 4), Q(1, 2)), Q(1, 2)), {"tail": Q(2)}, "table tail out of [0,1]: 2"),
    (PrependGen, (Q(0), _dyadic()), {"head": Q(-1)}, "prepended head out of [0,1]: -1"),
    (PrefixMaxGen, (_dyadic(),), {"inner": Table((), Q(1, 3))}, None),
    (ComplementGen, (_dyadic(),), {"inner": Table((), Q(1, 3))}, None),
    (Approximation, (_dyadic(), Kind.LEFT_CE), {"kind": Kind.GENERAL}, None),
    (ExactRational, (Q(1, 3),), {"value": Q(3, 2)}, "exact rational out of [0,1]: 3/2"),
    (AffineExponents, (1, 2), {"s": 0}, "affine exponent family needs s >= 1 and t >= 1"),
    (ListExponents, ((1, 3),), {"values": (3, 1)},
     "exponent list must be strictly increasing and positive"),
    (DyadicSeries, (AffineExponents(1, 2),), {"exponents": ListExponents((2,))}, None),
    (Scale, (ExactRational(Q(1, 2)), Q(1, 2)), {"factor": Q(0)},
     "scale factor must be in (0,1]: 0"),
    (Average, (ExactRational(Q(1, 2)), ExactRational(Q(1, 4))),
     {"right": ExactRational(Q(0))}, None),
    (Complement, (ExactRational(Q(1, 2)),), {"inner": ExactRational(Q(0))}, None),
    (DyadicEnumeration, ((Q(0), Q(1, 2)),), {"prefix": (Q(1, 2), Q(0))},
     "enumeration prefix must keep 0 at index 0"),
    (StageSchedule, (1, 2, ((3, None),)), {"slope": -1},
     "stage schedule parameters must be >= 0"),
    (ValueRule, (Q(1, 2), Q(1, 4), ((2, Q(1, 8)),)), {"v": Q(1)},
     "affine value rule escapes [0,1) at 0: v=1"),
    (StagedPartialFunction, (DyadicEnumeration(), StageSchedule(1, 0), ValueRule()),
     {"schedule": StageSchedule(1, 0, ((0, None),))},
     "q_0 = 0 must become defined at some finite stage"),
    (SolovayWitness, (_g(), Q(2)), {"c": Q(0)}, "witness constant must be positive: 0"),
    (S2aWitness, (Approximation(_dyadic()), Approximation(_dyadic()), Q(1)), {"c": Q(-1)},
     "witness constant must be positive: -1"),
    (RequirementTuple, ((0, 1, 3), (0, 2, 6), 8, ((1, 2), (3, 4), (7, 8))), {"scale": 0},
     "the scale and every g-value denominator must be positive"),
    (StepRecord, (1, 3, Q(7, 8), Q(7, 8), _ladder(), 5), {"stage_found": 6}, None),
    (ConstructionTrace, ((), Approximation(_dyadic()), (1, 5)), {"exhausted": None}, None),
    (WitnessImage, (_g(), Approximation(_dyadic()), 10), {"stage_budget": 11}, None),
    (Scenario, tuple(getattr(_SC, name) for name in Scenario._fields), {"depth": 3}, None),
]


@pytest.mark.parametrize("cls, args, changes, error", FROZEN, ids=[c[0].__name__ for c in FROZEN])
def test_frozen_records_are_values_that_replace_validates(cls, args, changes, error):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and hash(a) == hash(b)
    assert copy.copy(a) == a and copy.deepcopy(a) == a
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b  # nothing above changed a field
    assert a.replace() == a
    kwargs = {**dict(zip(cls._fields, args)), **changes}
    if error is None:
        new = a.replace(**changes)
        assert type(new) is cls and new == cls(**kwargs) and new != a
        return
    with pytest.raises(ValueError) as direct:
        cls(**kwargs)
    assert str(direct.value) == error
    with pytest.raises(ValueError) as replaced:
        a.replace(**changes)
    assert str(replaced.value) == error


def test_every_record_class_is_covered():
    """Each record class of solred with fields, bar the _Dyadic base of two covered ones."""
    found, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls._fields and cls.__module__.startswith("solred.") and cls.__name__ != "_Dyadic":
            found.add(cls)
    assert found == {case[0] for case in FROZEN}


def test_records_equal_only_records_of_the_same_type():
    affine, alternating = AffineDyadic(Q(1, 2), Q(1, 4), 1), AlternatingDyadic(Q(1, 2), Q(1, 4), 1)
    assert affine != alternating and alternating != affine
    assert ComplementGen(affine) != Complement(affine)
    assert affine != (Q(1, 2), Q(1, 4), 1)


def test_requirement_tuple_normalizes_through_init_and_replace():
    tup = _ladder()
    assert (tup.points, tup.scale) == ((0, 1, 3), 4)
    assert tup.replace(scale=16) == RequirementTuple((0, 1, 3), (0, 1, 3), 16, tup.values)
    assert tup.replace(points=(0, 4, 12), scale=16) == tup
