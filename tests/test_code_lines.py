"""`tools/code_lines.py` counts the lines that hold code."""
import importlib.util
from pathlib import Path

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def _code_lines(source: str) -> int:
    spec = importlib.util.spec_from_file_location("code_lines", CODE_LINES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines(source)


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
