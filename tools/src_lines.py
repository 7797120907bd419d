"""Count the lines and the code lines of each module of ``src/freewalk``.

    python tools/src_lines.py [SRC_DIR]

SRC_DIR defaults to the ``src/freewalk`` next to this script.  A code line
is a line that holds a token other than a comment, once the docstrings are
removed: the module, class and function docstrings that ``ast`` finds are
cut out first, then ``tokenize`` reads what is left, and blank lines,
comment-only lines and the lines inside a multi-line token other than its
first do not count.  The script prints one row per module, the totals, and
the package's ``__all__``, read from ``__init__.py`` without importing it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that start a token other than layout, docstrings cut."""
    lines = source.splitlines(keepends=True)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            for i in range(doc.lineno - 1, doc.end_lineno):
                lines[i] = "\n"
    tokens = tokenize.generate_tokens(io.StringIO("".join(lines)).readline)
    return len({tok.start[0] for tok in tokens if tok.type not in _LAYOUT})


def exported(init: Path) -> list[str]:
    """The names listed in the module's ``__all__`` assignment."""
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "freewalk"
    total_lines = total_code = 0
    print(f"{'module':<16}{'lines':>8}{'code':>8}")
    for path in sorted(src.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, code = len(source.splitlines()), code_lines(source)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16}{lines:>8}{code:>8}")
    print(f"{'total':<16}{total_lines:>8,}{total_code:>8,}")
    names = exported(src / "__init__.py")
    print(f"__all__ ({len(names)}): {', '.join(names)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
