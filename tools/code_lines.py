"""Count code lines per module of a Python package.

A code line holds a Python token other than a comment, NL, NEWLINE,
INDENT, DEDENT or ENDMARKER, and is not part of a docstring (the leading
string statement of a module, class or function).

    python tools/code_lines.py [DIR]

prints one "lines  path" row per module under DIR (default src/approxcat)
and the total.
"""

import ast
import io
import pathlib
import sys
import tokenize

SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
        tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers covered by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path) -> int:
    source = pathlib.Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv) -> int:
    root = pathlib.Path(argv[1] if len(argv) > 1 else "src/approxcat")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
