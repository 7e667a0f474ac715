"""Count the lines and the options of every module under src/.

For each module it prints the physical lines and the code lines: the lines
that hold a token outside docstrings and comments.  Blank lines, comment
lines and docstring lines are not code; a line with code and a trailing
comment is.  Docstrings are found with ast (the first statement of a
module, class or function when it is a string), tokens with tokenize.

The options column counts what a caller may leave out: the parameters
with a default of the public functions and methods (names without a
leading underscore, at module level or in a public class), plus the
fields with a default of the public dataclasses, leaving out the fields
declared with ``field(init=False)``.

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _is_init_false(value: ast.expr) -> bool:
    """True for ``field(..., init=False, ...)``."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def options(tree: ast.Module) -> int:
    """Defaulted parameters of the public functions and methods, plus the
    defaulted fields of the public dataclasses (``init=False`` left out)."""
    total = 0
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            total += _defaults(node)
        elif isinstance(node, ast.ClassDef):
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        total += _defaults(item)
                elif (dataclass and isinstance(item, ast.AnnAssign)
                      and item.value is not None and not _is_init_false(item.value)):
                    total += 1
    return total


def count(source: str) -> tuple[int, int, int]:
    """(physical lines, code lines, options) of one module's source."""
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start[0] in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code), options(tree)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src"
    totals = [0, 0, 0]
    print(f"{'module':<32} {'lines':>6} {'code':>6} {'options':>7}")
    for path in sorted(root.rglob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.relative_to(root).as_posix():<32} {counts[0]:>6} {counts[1]:>6} "
              f"{counts[2]:>7}")
    print(f"{'total':<32} {totals[0]:>6} {totals[1]:>6} {totals[2]:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
