"""`tools/code_lines.py` counts the lines that hold code."""
from pathlib import Path

from corpus import load_module

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines(source: str) -> int:
    return load_module("code_lines", CODE_LINES).code_lines(source)


def test_code_lines_skip_comments_docstrings_and_blank_lines():
    """Six lines hold code: the import, the def, both lines of the call
    and both lines of the assigned string. The docstrings, the comment
    line and the blank lines do not count."""
    source = '''"""A module docstring
over two lines."""
import math  # a trailing comment

# a comment line
def f(x):
    """A function docstring."""
    return math.hypot(
        x, 1)


s = """an assigned string
is code"""
'''
    assert _code_lines(source) == 6
