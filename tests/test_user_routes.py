"""Every ``src/repro`` module sits on a user route.

A module that only tests import belongs under ``tests/``.  This walks
the static imports — function-level ones included — from the entry
points a user runs (``import repro``, ``python -m repro``, the
``repro`` console script and the serving tier) and fails on any
module of the package that none of them reaches.  The same walk
checks the layering: only ``repro.__main__`` imports ``repro.cli``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent

ENTRY_POINTS = ("repro", "repro.__main__", "repro.cli", "repro.serve")

#: Reached by tests alone, on purpose: Proposition 3's Monte Carlo
#: verifier, until the calibration audit makes it its design column
#: (ROADMAP item 18).
TEST_ONLY = {"repro.core.soa"}


def _modules() -> dict[str, Path]:
    """Every module of the package by dotted name (a package by its
    ``__init__``)."""
    modules = {}
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported(name: str, path: Path, modules: dict[str, Path]) -> set[str]:
    """The package modules ``name``'s source imports anywhere in it."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package
                for _ in range(node.level - 1):
                    anchor = anchor.rpartition(".")[0]
                base = f"{anchor}.{base}" if base else anchor
            # ``from a import b`` imports the module ``a.b`` if there is one.
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            # Importing ``a.b.c`` runs ``a`` and ``a.b`` first.
            parts = target.split(".")
            found.update(
                prefix
                for prefix in (
                    ".".join(parts[:i]) for i in range(1, len(parts) + 1)
                )
                if prefix in modules
            )
    return found


def _reached(modules: dict[str, Path]) -> set[str]:
    reached: set[str] = set()
    todo = list(ENTRY_POINTS)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_imported(name, modules[name], modules) - reached)
    return reached


def test_every_module_sits_on_a_user_route():
    modules = _modules()
    reached = _reached(modules)
    # The walk follows imports inside functions: the pipeline is only
    # imported there.
    assert "repro.relational.pipeline" in reached
    assert set(modules) - reached == TEST_ONLY


def test_only_the_entry_point_imports_the_cli():
    """The CLI sits on top: the answer's text format and the serving
    tier live below it, so no module but ``repro.__main__`` imports
    ``repro.cli``."""
    modules = _modules()
    importers = {
        name
        for name, path in modules.items()
        if "repro.cli" in _imported(name, path, modules)
    }
    assert importers == {"repro.__main__"}
