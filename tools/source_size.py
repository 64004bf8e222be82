"""Print the size of each src/stalesim module as line counts by kind.

Usage: python tools/source_size.py [DIR]   (DIR defaults to src/stalesim)

Every line of a module is counted once, as the first of these that holds:

* docstring: a line of a module, class or function docstring
* statement: a line that holds a code token (a trailing comment's line is
  a statement line)
* comment: a line that holds only a comment
* blank: the rest

So the four counts sum to the module's lines, and a deleted docstring is
not read as less code. Only the standard library is used (ast, tokenize).
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

KINDS = ("statement", "docstring", "comment", "blank")
# tokens that mark no line as code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The line count of each of KINDS in one module's source."""
    docstring = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    sizes = dict.fromkeys(KINDS, 0)
    for line in range(1, len(source.splitlines()) + 1):
        kind = ("docstring" if line in docstring else "statement" if line in code
                else "comment" if line in comment else "blank")
        sizes[kind] += 1
    return sizes


def main(argv: list[str]) -> int:
    root = argv[0] if argv else os.path.join("src", "stalesim")
    rows = []
    for name in sorted(f for f in os.listdir(root) if f.endswith(".py")):
        with open(os.path.join(root, name), encoding="utf-8") as f:
            rows.append((name, count(f.read())))
    rows.append(("total", {k: sum(sizes[k] for _, sizes in rows) for k in KINDS}))
    print(f"{'module':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for name, sizes in rows:
        print(f"{name:<16}{sum(sizes.values()):>7}" + "".join(f"{sizes[k]:>11}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
