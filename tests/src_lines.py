"""The line count of ``src/squaregeo/*.py``: all lines, as ``wc -l``
counts them, and code lines, the non-blank lines outside docstrings and
comments.

    python tests/src_lines.py

prints ``src/squaregeo/*.py: <lines> lines, <code> code lines``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "squaregeo"
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    doc = {
        i
        for d in ast.walk(ast.parse(text))
        if isinstance(d, SCOPES) and ast.get_docstring(d, clean=False) is not None
        for i in range(d.body[0].lineno, d.body[0].end_lineno + 1)
    }
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in doc)


if __name__ == "__main__":
    texts = [p.read_text() for p in SRC.glob("*.py")]
    print(f"src/squaregeo/*.py: {sum(t.count(chr(10)) for t in texts)} lines, "
          f"{sum(map(code_lines, texts))} code lines")
