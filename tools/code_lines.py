"""Print the code lines and public options of each module under src/, and their totals.

A code line is a source line that holds a token of a statement other than
a docstring (the string that opens a module, class or function body):
lines holding only a comment, blank space or part of a docstring are not
counted.  The tokenizer gives each token's lines and the AST gives the
docstrings' spans, so the count does not move with comments or prose.

A public option is a setting a caller may leave out: a parameter with a
default of a public module-level function, or of a public method or the
``__init__`` of a public class, and an annotated field with a value in a
public ``@dataclass``.  Public means a name without a leading underscore.

    python3 tools/code_lines.py [--rev REV] [ROOT]

ROOT defaults to the repository's src/ directory.  With ``--rev`` the files
under ROOT are also counted as they are at the git revision REV, and each
line shows REV's counts, the working tree's and the differences; a module
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


def _defaults(node) -> int:
    """Parameters of a function definition that have a default."""
    return len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def public_options(source: str) -> int:
    """Public options of ``source``: defaults a caller may leave out (module docstring)."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, functions) and not node.name.startswith("_"):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            fields = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, functions) and (not item.name.startswith("_")
                                                     or item.name == "__init__"):
                    count += _defaults(item)
                elif fields and isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def counts(source: str) -> tuple:
    """(code lines, public options) of ``source``."""
    return code_lines(source), public_options(source)


def _git(cwd: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout


def revision_counts(root: Path, rev: str) -> dict:
    """``counts`` of each .py file under ``root`` at git revision ``rev``, by relative path."""
    top = Path(_git(root, "rev-parse", "--show-toplevel").strip())
    prefix = root.resolve().relative_to(top.resolve()).as_posix()
    names = _git(top, "ls-tree", "-r", "--name-only", rev, "--", prefix).split()
    return {Path(name).relative_to(prefix).as_posix(): counts(_git(top, "show", f"{rev}:{name}"))
            for name in names if name.endswith(".py")}


def _total(table: dict) -> tuple:
    return tuple(sum(column) for column in zip((0, 0), *table.values()))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="Code lines and public options per module "
                                                 "under src/.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--rev", help="git revision to count beside the working tree")
    args = parser.parse_args(argv[1:])
    tree = {path.relative_to(args.root).as_posix(): counts(path.read_text())
            for path in sorted(args.root.rglob("*.py"))}
    base = None
    if args.rev is not None:
        try:
            base = revision_counts(args.root, args.rev)
        except (OSError, ValueError, subprocess.CalledProcessError) as err:
            detail = getattr(err, "stderr", None) or err
            print(f"revision {args.rev!r} not read ({str(detail).strip()}); working tree only")
    if base is None:
        print(f"{'lines':>6}  {'options':>7}")
        for name, (lines, options) in [*tree.items(), ("total", _total(tree))]:
            print(f"{lines:6d}  {options:7d}  {name}")
        return 0
    print(f"{'lines at ' + args.rev[:12]:>21}  {'tree':>6}  {'delta':>6}  "
          f"{'options at ' + args.rev[:12]:>23}  {'tree':>6}  {'delta':>6}")
    rows = [(name, base.get(name, (0, 0)), tree.get(name, (0, 0)))
            for name in sorted(set(base) | set(tree))]
    for name, old, new in [*rows, ("total", _total(base), _total(tree))]:
        print(f"{old[0]:21d}  {new[0]:6d}  {new[0] - old[0]:+6d}  "
              f"{old[1]:23d}  {new[1]:6d}  {new[1] - old[1]:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
