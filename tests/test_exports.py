"""Every name the package exports is read by the library, the acceptance
suite or the scripts, or is listed in KEPT with the statement it serves.
The check runs on the syntax tree, as test_imports does."""

from __future__ import annotations

import ast
from pathlib import Path

import zipcalc

ROOT = Path(__file__).resolve().parent.parent
USERS = (
    *(p for p in sorted((ROOT / "src/zipcalc").glob("*.py")) if p.name != "__init__.py"),
    ROOT / "tests/test_acceptance.py",
    *sorted((ROOT / "scripts").glob("*.py")),
)
MODULES = {"zipcalc", "cli", "equivalence", "forest", "groups", "reports", "verify", "zipdata", "zoo"}
# Exports only the unit tests call, each with the statement it serves; the
# test fails once an entry is read elsewhere, so none can go stale.
KEPT = {
    "member_stationary_subgroups": "the conjugation identity E_inf^y = e * E_inf^x * e^-1 along a class",
    "reconstruct": "stable forest paths classify: a path's product lies in the class it names",
}


def references(tree: ast.Module) -> set:
    """The names a module reads, bare or as an attribute of a zipcalc module.
    A definition is not a reference, and neither is an unread import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in MODULES:
            names.add(node.attr)
    return names


def test_references_skip_definitions_imports_and_foreign_attributes():
    tree = ast.parse(
        "from .groups import a, b\ndef c():\n    return b + groups.d + group.e\n"
        "class F:\n    pass\n"
    )
    assert references(tree) == {"b", "groups", "d", "group"}


def test_every_export_has_a_reader():
    read = set()
    for path in USERS:
        read |= references(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert set(zipcalc.__all__) - read == set(KEPT)
