"""Report the package lines inside functions that the Tier-1 suite never runs.

Runs the tests under the standard library's ``trace`` line counter and
prints, per module of src/viscowave, how many statements inside function
bodies there are and which of them never ran, then each never-run line
with its source.  Standard library only (plus pytest, which runs the
suite):

    python tools/line_coverage.py [PYTEST_ARGS...]

A statement counts as run when any of its lines ran: a simple statement
spans all its lines, a compound one (``if``, ``for``, ``with``, ...) only
its header, up to its first block; ``try`` headers, ``global`` and
``nonlocal`` compile to no traced line and are left out, as are
docstrings.  Module and class bodies, which run on import, are not
reported.  Tracing slows the suite down by about 2.5x.  The exit code is
0 whatever the tests do: this is a report, and the plain test run is the
gate.
"""

from __future__ import annotations

import ast
import sys
import sysconfig
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "viscowave"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
BLOCKS = ("body", "orelse", "handlers", "finalbody", "cases")
UNTRACED = (ast.Try, ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statement_spans(tree: ast.AST) -> dict[int, range]:
    """The lines of every statement inside a function body, by first line."""
    spans = {}
    for func in ast.walk(tree):
        if not isinstance(func, FUNCTIONS):
            continue
        body = func.body[1:] if _is_docstring(func.body[0]) else func.body
        for top in body:
            for node in ast.walk(top):
                if not isinstance(node, ast.stmt) or isinstance(node, UNTRACED):
                    continue
                inner = [child.lineno for name in BLOCKS
                         for child in getattr(node, name, ())]
                end = min(inner) - 1 if inner else node.end_lineno
                spans[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
    return spans


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    paths = sysconfig.get_paths()
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[
        paths["stdlib"], paths["platstdlib"], paths["purelib"], paths["platlib"],
        str(ROOT / "tests")])
    status = tracer.runfunc(pytest.main, ["-q", "--continue-on-collection-errors",
                                          "-p", "no:cacheprovider",
                                          *(argv or [str(ROOT / "tests")])])
    ran = {}
    for filename, line in tracer.results().counts:
        ran.setdefault(Path(filename).resolve(), set()).add(line)
    width = max(len(p.name) for p in PACKAGE.glob("*.py"))
    print(f"\npytest exit status {int(status)}; lines inside functions never run:")
    print(f"{'module':<{width}}  {'stmts':>6}  {'never':>6}")
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        spans = statement_spans(ast.parse(source))
        hit = ran.get(path.resolve(), set())
        never = sorted(first for first, span in spans.items() if hit.isdisjoint(span))
        print(f"{path.name:<{width}}  {len(spans):>6}  {len(never):>6}")
        lines = source.splitlines()
        missed += [f"{path.relative_to(ROOT)}:{k}: {lines[k - 1].strip()}" for k in never]
    print("\n".join(missed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
