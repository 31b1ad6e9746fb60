"""The library's size in code lines, held to a budget.

A code line is a line of ``src/bbmlab`` that is not blank, not a comment
and not part of a docstring (of a module, class or function).  The
budget is the count the library last ended with: a change that adds code
deletes elsewhere first, and a change that deletes code lowers it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bbmlab"
CODE_LINE_BUDGET = 2755


def code_lines(path: Path) -> int:
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in docstrings and line.strip()
               and not line.lstrip().startswith("#"))


def test_code_lines_count_only_code(tmp_path):
    sample = ('"""doc\n\nmore"""\n\nimport math  # a comment\n# alone\n\n'
              'def f(x):\n    """doc"""\n    return x\n')
    path = tmp_path / "sample.py"
    path.write_text(sample, encoding="utf-8")
    assert code_lines(path) == 3


def test_library_stays_within_its_code_line_budget():
    # on failure the message names each module's count, to show where to cut
    counts = {p.name: code_lines(p) for p in sorted(SRC.glob("*.py"))}
    total = sum(counts.values())
    assert total <= CODE_LINE_BUDGET, (
        f"src/bbmlab has {total} code lines, over the budget of {CODE_LINE_BUDGET}: "
        + ", ".join(f"{name} {n}" for name, n in counts.items()))
