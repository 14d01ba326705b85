"""Count the code lines of a Python package: the lines that hold a token,
without comments, docstrings or blank lines, per module and in total.

A docstring is a string that stands alone as a statement; a line that
only continues a bracketed expression still counts, since it holds
tokens. Usage:

    python3 tools/code_lines.py [DIR]   # DIR defaults to src/pachinqo
"""
from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            # A statement that is one string alone is a docstring.
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path("src/pachinqo")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
