"""tools/code_lines.py: code lines and public options of a literal source."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring: not code."""

from dataclasses import dataclass, field

# a comment: not code


def public(a, b=1, *, c=2, d):
    """Two options: b and c."""
    return a + b + c + d


def _private(a=1):
    return a


@dataclass(frozen=True)
class Params:
    n: int = 3
    rows: list = field(default_factory=list)
    name: str
    _hidden: int = 0
    LIMIT = 5

    def scaled(self, factor=2.0):
        return self.n * factor

    def _helper(self, x=1):
        return x


class Plain:
    size: int = 4

    def __init__(self, terms=None):
        self.terms = terms

    def __repr__(self, extra=0):
        return "Plain"


class _Hidden:
    def method(self, x=1):
        return x
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # the import; public and _private, 2 lines each; Params' decorator and
    # class line, 5 field lines and 2 methods of 2 lines; Plain's 6 lines;
    # _Hidden's 3
    assert code_lines.code_lines(SOURCE) == 1 + 2 + 2 + 2 + 5 + 4 + 6 + 3


def test_public_options_by_the_rule():
    # public: b, c; Params: n, rows, _hidden (a field with a value, whatever
    # its name) and scaled's factor; Plain: __init__'s terms only (not a
    # dataclass, so size is no field; __repr__ is not public); none from
    # _private, _helper or _Hidden
    assert code_lines.public_options(SOURCE) == 2 + 4 + 1
    assert code_lines.counts(SOURCE) == (25, 7)
