"""List the function-body statements of src/adtxn that a test run never ran.

Usage: python scripts/unreached.py [PYTEST_ARGS...]
       (default: the tier-1 suite, the `testpaths` of pyproject.toml)

Runs pytest in this process under a `sys.settrace` hook that records each
line of src/adtxn that runs, then prints each statement inside a function
body (a method or a nested function too) none of whose lines ran, as
`path:line` in path and line order, and last the total. Run it from the
root of the repo, where pytest finds `testpaths`. A statement counts
only if the compiler gave it code: `try:`, `else:` and docstrings have
none. Code run in a subprocess, such as a test's `python -O` child, is not
seen. pytest's own report goes to stderr.

The hook slows the suite several-fold and keeps frames alive, so a test of
timing or of garbage can fail under it; the list is printed all the same.
Exits 0 when the tests ran, whatever they found, and pytest's status when
they could not run.
"""

import ast
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "adtxn"
sys.path[:0] = [str(ROOT / "src")]

import pytest  # noqa: E402

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(source: str, filename: str) -> dict[int, int]:
    """{line: first line of the function-body statement that owns it}, for
    every line of `source` that holds code of such a statement. A line
    belongs to the innermost statement that spans it."""
    owner = {}

    def own(node, in_function):
        if in_function and isinstance(node, ast.stmt) and not _is_docstring(node):
            for line in range(node.lineno, node.end_lineno + 1):
                owner[line] = node.lineno
        in_function = in_function or isinstance(node, FUNCTIONS)
        for child in ast.iter_child_nodes(node):
            own(child, in_function)

    own(ast.parse(source, filename=filename), False)
    # keep the lines the compiler gave code to, so every statement listed
    # can run
    code_lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        code_lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return {line: first for line, first in owner.items() if line in code_lines}


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit status, {filename: the lines of src/adtxn that ran})."""
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line

    sys.settrace(on_call)
    try:
        with redirect_stdout(sys.stderr):
            status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, ran = run_traced(args)
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return status
    unreached, total = [], 0
    for path in sorted(PACKAGE.rglob("*.py")):
        owner = statements(path.read_text(encoding="utf-8"), str(path))
        seen = {owner[line] for line in ran.get(str(path), ()) if line in owner}
        firsts = sorted(set(owner.values()))
        total += len(firsts)
        name = path.relative_to(ROOT)
        unreached += [f"{name}:{first}" for first in firsts if first not in seen]
    print(*unreached, sep="\n")
    print(f"{len(unreached)} of {total} function-body statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
