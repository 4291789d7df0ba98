"""Count the lines of solred's source, per module and in total.

Each line is one of:

* docstring: within the first string statement of the module, a class or a
  function, blank lines inside it included;
* code: any other line that holds a token of the program, a continued
  string or expression included;
* comment: a line whose only token is a comment;
* blank: a line with no token.

Usage: python3 tools/source_lines.py [FILE ...]   (default: src/solred/*.py)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in source."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in NON_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    totals = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        totals[kind] += 1
    return totals


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "solred").glob("*.py"))
    rows = [(path.name, count(path.read_text(encoding="utf-8"))) for path in paths]
    rows.append(("total", {k: sum(row[k] for _, row in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in KINDS) + f"{'lines':>11}")
    for name, row in rows:
        print(f"{name:<{width}}" + "".join(f"{row[k]:>11}" for k in KINDS)
              + f"{sum(row.values()):>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
