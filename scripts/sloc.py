"""Source lines of code of the ``hyperindep`` package, per module and in total.

    python3 scripts/sloc.py

A line counts when it holds a token other than a comment: code, and every
line of a string token, docstrings included. Blank lines, comment-only lines
and the line breaks and indentation tokens Python adds count for nothing.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def sloc(path: Path) -> int:
    """Number of lines of ``path`` that hold a non-comment token."""
    lines: set[int] = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    top = ROOT / "src" / "hyperindep"
    total = 0
    for path in sorted(top.rglob("*.py")):
        count = sloc(path)
        total += count
        sys.stdout.write(f"{count:6d}  {path.relative_to(top)}\n")
    sys.stdout.write(f"{total:6d}  total\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
