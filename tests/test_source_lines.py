"""tools/source_lines.py: each line of a module counted as code, docstring, comment or blank."""
from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "source_lines.py"
_spec = importlib.util.spec_from_file_location("source_lines", TOOL)
source_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_lines)

SAMPLE = '''"""Module docstring,

over three lines."""
import os  # a trailing comment leaves a line code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
# that is not a docstring"""
        "a later string statement"
        return text
'''


def test_lines_split_into_code_docstring_comment_and_blank():
    assert source_lines.count(SAMPLE) == {"code": 7, "docstring": 5, "comment": 1, "blank": 4}


def test_the_table_ends_with_the_total_of_every_module(capsys):
    assert source_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "code", "docstring", "comment", "blank", "lines"]
    modules, total = [list(map(int, row[1:])) for row in rows[1:-1]], rows[-1]
    assert total[0] == "total" and [int(x) for x in total[1:]] == [sum(c) for c in zip(*modules)]
    assert all(sum(row[:4]) == row[4] for row in modules)
