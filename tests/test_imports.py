"""No module in the package, the tests or the scripts imports a name it never
reads.  The check runs on the syntax tree, so it needs no linter installed."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/zipcalc", "tests", "scripts")
# The acceptance suite changes only with its criteria (ROADMAP), so its one
# unused import waits for such a change; the test fails once it is gone.
KEPT = {"tests/test_acceptance.py: pytest"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _imports(scope):
    """The import statements of a scope, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that its scope, nested functions
    included, never reads."""
    unused = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for node in _imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append((node.lineno, name))
    return sorted(unused)


def test_unused_imports_finds_module_and_function_imports():
    tree = ast.parse(
        "import os\nimport json.decoder\nfrom a import b, c as d\n"
        "def f():\n    from e import g\n    return b + json\n"
        "def h():\n    import os as o\n    return d\n"
    )
    assert unused_imports(tree) == [(1, "os"), (5, "g"), (8, "o")]


def test_no_unused_imports():
    found = set()
    for folder in CHECKED:
        for path in sorted((ROOT / folder).glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            found |= {f"{path.relative_to(ROOT)}: {name}" for _, name in unused_imports(tree)}
    assert found == KEPT
