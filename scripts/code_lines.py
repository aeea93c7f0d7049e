"""Count the code lines of a Python package: every line that holds a token
other than a comment or a docstring, so blank lines, comment lines and
docstrings do not count. A token that spans lines, such as a triple-quoted
string that is not a docstring, counts each line it spans.

Usage: python scripts/code_lines.py [DIR]    (default: src/adtxn)

Prints one line per module, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set[int]:
    """The line numbers the docstrings of `tree` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source, filename=str(path)))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/adtxn")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
