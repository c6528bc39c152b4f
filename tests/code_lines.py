"""Code-line counter: the lines of Python source that hold code.

A line counts when it holds a token that is neither a comment nor part of
a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines do not count; a line that
continues a statement, inside brackets or after a backslash, counts, and a
string that spans lines counts on each line it spans.

    python3 tests/code_lines.py [PATH ...]

prints one line per module, then the total, for each file or directory
given (default: src/ladderdet).
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code of their own.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree) -> set:
    """(line, column) of each docstring's first token."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of lines of `source` that hold code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    for root in argv or ["src/ladderdet"]:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        total = 0
        for path in files:
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path}")
        print(f"{total:6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
