"""tools/ci_checks.py: every deep check of CI says why it is there."""
from __future__ import annotations

import importlib.util
import inspect
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_checks.py"
_spec = importlib.util.spec_from_file_location("ci_checks", TOOL)
ci_checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_checks)


def test_every_check_has_a_docstring():
    checks = {name: f for name, f in vars(ci_checks).items()
              if name.startswith("test_") and inspect.isfunction(f)}
    assert checks
    assert [name for name, f in checks.items() if not (f.__doc__ or "").strip()] == []
