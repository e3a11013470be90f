#!/usr/bin/env python3
"""Code lines of each module of src/ttstar_toda and their total.

A code line is a physical line that holds part of a token other than a
comment, a line break or an indentation change, outside the docstrings
(the string statement that opens a module, class or function body).  A
string that spans several lines counts on each of them.  So blank lines,
comment lines and docstrings are not counted.

Prints one JSON line: {"modules": {<file name>: <lines>, ...}, "total": <lines>}.

Usage:
    python scripts/code_lines.py
"""

import ast
import json
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ttstar_toda"


def main() -> None:
    modules = {p.name: code_lines(p) for p in sorted(_PACKAGE.glob("*.py"))}
    print(json.dumps({"modules": modules, "total": sum(modules.values())}))


if __name__ == "__main__":
    main()
