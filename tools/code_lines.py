"""Print the code lines of each module under src/ and their total.

A code line is a source line that holds a token of a statement other than
a docstring (the string that opens a module, class or function body):
lines holding only a comment, blank space or part of a docstring are not
counted.  The tokenizer gives each token's lines and the AST gives the
docstrings' spans, so the count does not move with comments or prose.

    python3 tools/code_lines.py [ROOT]

ROOT defaults to the repository's src/ directory.  The report never fails.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry a token of a statement other than a docstring."""
    skip = _docstring_lines(ast.parse(source))
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in ignored:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
