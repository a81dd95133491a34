"""Print the code lines of each module under src/ and their total.

A code line is a source line that holds a token of a statement other than
a docstring (the string that opens a module, class or function body):
lines holding only a comment, blank space or part of a docstring are not
counted.  The tokenizer gives each token's lines and the AST gives the
docstrings' spans, so the count does not move with comments or prose.

    python3 tools/code_lines.py [--rev REV] [ROOT]

ROOT defaults to the repository's src/ directory.  With ``--rev`` the files
under ROOT are also counted as they are at the git revision REV, and each
line shows REV's count, the working tree's and the difference; a module
missing on one side counts 0 there.  The report never fails: a revision
that cannot be read is named, and the working tree's counts follow alone.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def revision_counts(root: Path, rev: str) -> dict:
    """Code lines of each .py file under ``root`` at git revision ``rev``, by relative path."""
    top = Path(_git(root, "rev-parse", "--show-toplevel").strip())
    prefix = root.resolve().relative_to(top.resolve()).as_posix()
    names = _git(top, "ls-tree", "-r", "--name-only", rev, "--", prefix).split()
    return {Path(name).relative_to(prefix).as_posix(): code_lines(_git(top, "show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="Code lines per module under src/.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--rev", help="git revision to count beside the working tree")
    args = parser.parse_args(argv[1:])
    tree = {path.relative_to(args.root).as_posix(): code_lines(path.read_text())
            for path in sorted(args.root.rglob("*.py"))}
    base = None
    if args.rev is not None:
        try:
            base = revision_counts(args.root, args.rev)
        except (OSError, ValueError, subprocess.CalledProcessError) as err:
            detail = getattr(err, "stderr", None) or err
            print(f"revision {args.rev!r} not read ({str(detail).strip()}); working tree only")
    if base is None:
        for name, count in tree.items():
            print(f"{count:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    print(f"{args.rev[:12]:>12}  {'tree':>6}  {'delta':>6}")
    for name in sorted(set(base) | set(tree)):
        old, new = base.get(name, 0), tree.get(name, 0)
        print(f"{old:12d}  {new:6d}  {new - old:+6d}  {name}")
    old, new = sum(base.values()), sum(tree.values())
    print(f"{old:12d}  {new:6d}  {new - old:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
