"""Count each module's total lines and code lines.

Usage: python tests/line_count.py [SRC_DIR]   (default: src/casim)

A code line is a line that is not blank, not a comment alone and not part
of a docstring (the first statement of a module, class or function, when it
is a string, as ``ast`` finds it).  Prints one row per module, then the
totals; ``total`` counts lines as ``wc -l`` does.  pytest does not collect
this script: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """``source``'s total lines (newlines, as ``wc -l``) and its code lines."""
    lines = source.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, start=1)
               if number not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))
    return source.count("\n"), code


def main(argv: list[str]) -> int:
    src = Path(argv[1] if len(argv) > 1 else "src/casim")
    rows = [(path.name, *count(path.read_text(encoding="utf-8")))
            for path in sorted(src.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<14} {'lines':>6} {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<14} {total:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
