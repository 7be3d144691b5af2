"""The statements inside src/kwl's functions that the tier-1 suite never runs.

A stand-in for a coverage tool, with the standard library and pytest only.
It arms a sys.settrace line tracer before pytest imports kwl, and re-arms it
at each test's setup and call, because pytest and hypothesis replace it.
Then it runs the suite in this process and lists, per module, each statement
of a function body whose first line raised no line event.  Statements that
compile to no code (docstrings, `global`) are not listed.  Run from the
repository root; further arguments go to pytest:

    python3 scripts/uncovered.py [PYTEST_ARGS ...]

Limitations:
- A path that ends in RecursionError switches tracing off for the rest of
  its test: the interpreter drops a trace function that raises, and the
  tracer is the call that finds the stack full.  So cli.main's "input too
  deeply nested" lines show as unexecuted, though test_deep_nesting reaches
  them.
- Code that a test runs in a subprocess is not traced.
- A module whose file is edited while the suite runs cannot be mapped: the
  script names it and exits 2.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kwl"

hits: dict[str, set[int]] = {}  # file name -> the lines that raised a line event


def _trace(frame, event, arg):
    """The global trace function: trace the lines of kwl's frames only."""
    lines = hits.get(frame.f_code.co_filename)
    if lines is None:
        return None

    def local(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return local

    return local


class _Rearm:
    """Set the tracer again before each test's setup and call."""

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_setup(self, item):
        sys.settrace(_trace)

    @pytest.hookimpl(tryfirst=True)
    def pytest_runtest_call(self, item):
        sys.settrace(_trace)


def compiled_lines(code: types.CodeType) -> set[int]:
    """The lines that hold some bytecode of code or of the code nested in it."""
    lines, stack = set(), [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, _, line in c.co_lines() if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    return lines


def function_statements(tree: ast.Module) -> dict[int, str]:
    """The first line of each statement in a function body -> the qualified
    name of the innermost function or class around it."""
    found = {}
    stack = [(tree, "", False)]  # a node, its qualified name, whether a function holds it
    while stack:
        node, name, in_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt):
                found.setdefault(child.lineno, name)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{name}.{child.name}" if name else child.name
                stack.append((child, qual, in_function or not isinstance(child, ast.ClassDef)))
            else:
                stack.append((child, name, in_function))
    return found


def main(argv=None) -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    # read before the suite imports kwl: the recorded line numbers refer to this text
    sources = {path: path.read_text(encoding="utf-8") for path in paths}
    for path in paths:
        hits[str(path)] = set()
    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(_trace)
    status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"),
                          *(sys.argv[1:] if argv is None else argv)], plugins=[_Rearm()])
    sys.settrace(None)
    changed = [path.relative_to(ROOT) for path in paths
               if path.read_text(encoding="utf-8") != sources[path]]
    if changed:
        for path in changed:
            print(f"{path} changed while the suite ran: its recorded lines do not fit its text",
                  file=sys.stderr)
        return 2
    total = missed = 0
    for path in paths:
        source = sources[path]
        runnable = compiled_lines(compile(source, str(path), "exec"))
        statements = {line: fn for line, fn in function_statements(ast.parse(source)).items()
                      if line in runnable}
        unrun = sorted(set(statements) - hits[str(path)])
        total += len(statements)
        missed += len(unrun)
        text = source.splitlines()
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line}  {statements[line]}: {text[line - 1].strip()}")
    print(f"{missed} of {total} statements in src/kwl functions never ran (pytest exit {status})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
