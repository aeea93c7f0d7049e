"""Source-level rules that no behavioural test would notice breaking."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "adtxn"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a check written as one would vanish there;
    # the package raises its own AssertionError subclasses instead
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10      # the walk found the package
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
