"""perfbench's tracer finds every boundary that its goldens expect.

The tracer wraps each (module, attribute path) of its SPANS and LEAVES in
place, and leaves a boundary that it cannot find unwrapped, so that only
a traced benchmark run would report it missing.  These checks read both
lists and the goldens' boundaries, run nothing of the benchmark, and
resolve each boundary as Tracer._patch does: getattr along the path, then
vars(owner).get(name), so a class attribute counts only when it is in the
class's own __dict__.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

# Each boundary's module, by its attribute path, which is also its name in the goldens.
BOUNDARIES = {attr: module for module, attr in tracer.SPANS + tracer.LEAVES}
GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text(encoding="ascii"))
EXPECTED = sorted({name for workload in GOLDENS["workloads"].values()
                   for name in workload["boundaries"]})


def resolve(module: str, attr: str):
    """What Tracer._patch would wrap for (module, attr), or None."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return vars(owner).get(name) if owner is not None else None


def test_the_goldens_expect_only_boundaries_that_the_tracer_lists():
    assert EXPECTED
    assert sorted(set(EXPECTED) - set(BOUNDARIES)) == []


def test_each_expected_boundary_resolves_as_the_tracer_resolves_it():
    assert [attr for attr in EXPECTED if not callable(resolve(BOUNDARIES[attr], attr))] == []
