"""Every name the package exports is read by the library, the acceptance
suite or the scripts, and every name the benchmark's tracer wraps exists.
The export check runs on the syntax tree, as test_imports does."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import zipcalc

ROOT = Path(__file__).resolve().parent.parent
USERS = (
    *(p for p in sorted((ROOT / "src/zipcalc").glob("*.py")) if p.name != "__init__.py"),
    ROOT / "tests/test_acceptance.py",
    *sorted((ROOT / "scripts").glob("*.py")),
)
MODULES = {"zipcalc", "cli", "equivalence", "forest", "groups", "reports", "verify", "zipdata", "zoo"}
# Tracer targets the program no longer has, each with the reason its metric
# survives; the test fails once an entry resolves or leaves the tracer.
GONE_TARGETS = {
    "zipcalc.groups:preimage": "the module function was deleted; groups.preimage is measured "
    "through Homomorphism.preimage",
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
    assert set(zipcalc.__all__) - read == set()


def test_every_tracer_target_resolves():
    # perfbench/tracer.py reports a metric absent only when all its targets
    # are gone, so a single lost target would go unreported.  The lookup is
    # the tracer's own _resolve; install would rewrap the library for the
    # rest of the session.
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench/tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    importlib.import_module("zipcalc.cli")  # registers every module a target names
    unresolved = {
        f"{module}:{path}"
        for targets in [*tracer.SPANS.values(), *tracer.COUNTERS.values()]
        for module, path in targets
        if tracer._resolve(module, path) is None
    }
    assert unresolved == set(GONE_TARGETS)
