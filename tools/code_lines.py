"""Count the code lines of each module of a package (default src/viscowave).

A code line carries at least one token that is not a comment and does not
belong to a docstring (the string statement that opens a module, class or
function); blank lines never count.  Standard library only:

    python tools/code_lines.py [PACKAGE_DIR]

prints one row per module (all lines, code lines) and the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that make no line a code line on their own
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parents[1] / "src" / "viscowave"
    root = Path(argv[0]) if argv else default
    rows = []
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), code_lines(source)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
