"""Count the lines of every module under src/.

For each module it prints the physical lines and the code lines: the lines
that hold a token outside docstrings and comments.  Blank lines, comment
lines and docstring lines are not code; a line with code and a trailing
comment is.  Docstrings are found with ast (the first statement of a
module, class or function when it is a string), tokens with tokenize.

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the src/ directory beside this script's parent.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that carry no code of their own
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    total_phys = total_code = 0
    print(f"{'module':<32} {'lines':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        phys, code = count(path.read_text(encoding="utf-8"))
        total_phys += phys
        total_code += code
        print(f"{path.relative_to(root).as_posix():<32} {phys:>6} {code:>6}")
    print(f"{'total':<32} {total_phys:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
