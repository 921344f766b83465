"""Count the code lines of Python sources.

A code line holds at least one token other than a comment, a line break,
an indent or dedent, or a docstring: a string (or run of adjacent
strings) that is a whole statement.  A token that spans lines, such as a
triple-quoted string in an expression, counts on every line it spans.

Usage: python tools/code_lines.py PATH...

Each PATH is a ``.py`` file or a directory, read recursively.  Prints
the count of each file and then the total.  Standard library only.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line so far
    readline = iter(source.splitlines(keepends=True)).__next__
    for tok in tokenize.generate_tokens(readline):
        if tok.type not in _LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def _files(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in _files(paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
