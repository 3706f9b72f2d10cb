"""Every ``src/repro`` module and top-level name sits on a user route.

A module, function, class or constant that only tests use belongs under
``tests/``.  The module walk follows the static imports — function-level
ones included — from the entry points a user runs (``import repro``,
``python -m repro``, the ``repro`` console script and the serving tier)
and fails on any module of the package that none of them reaches.  The
same walk checks the layering: only ``repro.__main__`` imports
``repro.cli``.

The name walk does the same for every top-level ``def``, ``class`` and
assignment (a constant or an alias).  A name is reached when
``repro.__all__``, the module-level code of any package module, a
script under ``examples/`` or ``benchmarks/`` (CI runs the figure
scripts, and the frozen end-to-end harness calls into the package), or
the body, decorators, bases or annotations of a reached name refer to
it — by bare name or as an attribute — until nothing new is reached.
An assignment's right-hand side counts only once its name is reached,
as a function's body does.  Import lines, ``__all__`` lists and
docstrings name nothing there, and dunders are skipped.  Names match by
spelling alone, so the walk can only over-reach, never report a name
something does call.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
REPO = ROOT.parent.parent
SCRIPTS = (REPO / "examples", REPO / "benchmarks")

ENTRY_POINTS = ("repro", "repro.__main__", "repro.cli", "repro.serve")

#: Reached by tests alone, on purpose: Proposition 3's Monte Carlo
#: verifier, until the calibration audit makes it its design column
#: (ROADMAP item 18).  Its code counts as a route for the name walk.
TEST_ONLY = {"repro.core.soa"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _modules(root: Path = ROOT) -> dict[str, Path]:
    """Every module of the package by dotted name (a package by its
    ``__init__``)."""
    modules = {}
    for path in root.rglob("*.py"):
        parts = path.relative_to(root.parent).with_suffix("").parts
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


def _check_modules(root: Path = ROOT) -> None:
    modules = _modules(root)
    unreached = set(modules) - _reached(modules)
    assert not unreached - TEST_ONLY, (
        f"modules no user route imports: {sorted(unreached - TEST_ONLY)}"
    )
    assert not TEST_ONLY - unreached, (
        f"exempt modules a user route now imports: "
        f"{sorted(TEST_ONLY - unreached)}"
    )


def _names_in(node: ast.AST) -> set[str]:
    """Every name ``node`` refers to, bare or as an attribute."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
    return found


def _all_entries(stmt: ast.stmt) -> list[str]:
    """The names an ``__all__ = [...]`` statement lists (none for any
    other statement)."""
    if any(
        isinstance(t, ast.Name) and t.id == "__all__"
        for t in getattr(stmt, "targets", ())
    ):
        return ast.literal_eval(stmt.value)
    return []


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level ``def``, ``class`` or assignment binds,
    dunders left out (none for any other statement)."""
    if isinstance(stmt, _DEFS):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = getattr(stmt, "targets", None) or [stmt.target]
        names = [
            node.id
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Name)
        ]
    else:
        return []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def _unreached_names(root: Path = ROOT, scripts=SCRIPTS) -> set[str]:
    """Dotted names of the top-level defs, classes and assignments no
    route reaches."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    named: set[str] = set()
    for module, path in _modules(root).items():
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if module == root.name:
                named.update(_all_entries(stmt))
            defined = _defined(stmt) if module not in TEST_ONLY else []
            for name in defined:
                defs.setdefault(name, []).append((f"{module}.{name}", stmt))
            if not defined:
                named |= _names_in(stmt)
    for directory in scripts:
        for path in directory.rglob("*.py"):
            named |= _names_in(ast.parse(path.read_text(), str(path)))
    todo = list(named)
    while todo:
        for _, node in defs.pop(todo.pop(), ()):
            todo.extend(_names_in(node))
    return {dotted for found in defs.values() for dotted, _ in found}


def test_every_module_sits_on_a_user_route():
    modules = _modules()
    # The walk follows imports inside functions: the pipeline is only
    # imported there.
    assert "repro.relational.pipeline" in _reached(modules)
    _check_modules()


def test_every_top_level_name_sits_on_a_user_route():
    assert _unreached_names() == set()


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


# -- the walks catch what they should ---------------------------------------


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """A package ``repro`` with the four entry points and ``files``."""
    sources = {
        "__init__.py": "from repro import core\n",
        "__main__.py": "",
        "cli.py": "",
        "serve/__init__.py": "",
        "core/__init__.py": "",
        "core/soa.py": "",
        **files,
    }
    root = tmp_path / "src" / "repro"
    for name, text in sources.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def test_a_planted_unreached_def_is_reported(tmp_path):
    root = _tree(
        tmp_path,
        {
            "__init__.py": (
                '"""planted() is named only here."""\n'
                "from repro.lib import used\n"
                '__all__ = ["used"]\n'
            ),
            "lib.py": (
                "def used():\n    return _helper()\n\n"
                "def _helper():\n    return 1\n\n"
                "def called_by_the_oracle():\n    return 2\n\n"
                "def called_by_a_script():\n    return 3\n\n"
                "def planted():\n    return _behind_planted()\n\n"
                "def _behind_planted():\n    return 4\n"
            ),
            "core/soa.py": (
                "from repro.lib import called_by_the_oracle\n"
                "def oracle():\n    return called_by_the_oracle()\n"
            ),
        },
    )
    script = tmp_path / "examples"
    script.mkdir()
    (script / "demo.py").write_text(
        "from repro import lib\nlib.called_by_a_script()\n"
    )
    assert _unreached_names(root, (script,)) == {
        "repro.lib.planted",
        "repro.lib._behind_planted",
    }


def test_a_planted_unread_constant_is_reported(tmp_path):
    root = _tree(
        tmp_path,
        {
            "__init__.py": (
                "from repro.lib import used\n"
                '__all__ = ["used"]\n'
            ),
            "lib.py": (
                '__version__ = "1"\n'
                "LIMIT: int = 4\n"
                "_SEEN = []\n"
                "_SEEN.append(1)\n"
                "_BEHIND_PLANTED = 2\n"
                "PLANTED = _BEHIND_PLANTED * 2\n"
                "def used():\n    return LIMIT\n\n"
                "ALIAS = used\n"
            ),
        },
    )
    assert _unreached_names(root, ()) == {
        "repro.lib.PLANTED",
        "repro.lib._BEHIND_PLANTED",
        "repro.lib.ALIAS",
    }


def test_an_exemption_a_route_reaches_fails(tmp_path):
    _check_modules(_tree(tmp_path, {}))
    root = _tree(tmp_path, {"cli.py": "from repro.core import soa\n"})
    with pytest.raises(AssertionError, match="repro.core.soa"):
        _check_modules(root)


# -- no stale names ---------------------------------------------------------


def test_every_all_entry_resolves():
    missing = []
    for module, path in _modules().items():
        if module == "repro.__main__":  # running it starts the shell
            continue
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            for entry in _all_entries(stmt):
                if not hasattr(importlib.import_module(module), entry):
                    missing.append(f"{module}.{entry}")
    assert missing == []


#: A Sphinx cross-reference, ``~`` and a trailing ``()`` dropped.
_REFERENCE = re.compile(
    r":(?:func|class|meth|data|mod|attr|exc):`~?([\w.]+?)(?:\(\))?`"
)


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for part in parts[i:]:
                target = getattr(target, part)
        except AttributeError:
            return False
        return True
    return False


def _class_member(module, name: str) -> bool:
    """``name`` is a member or a field of a class in ``module``'s
    namespace (a bare ``:meth:`merge``` in that class's docstring)."""
    return any(
        inspect.isclass(value)
        and (
            hasattr(value, name)
            or name in getattr(value, "__dataclass_fields__", {})
        )
        for value in vars(module).values()
    )


def test_every_docstring_reference_resolves():
    """A reference to ``repro.*`` resolves from the package; a bare one
    resolves in the module it sits in, or names a member of a class
    there."""
    unresolved = []
    for module, path in _modules().items():
        if module == "repro.__main__":
            continue
        for target in _REFERENCE.findall(path.read_text()):
            if target.startswith("repro."):
                ok = _resolves(target)
            else:
                ok = _resolves(f"{module}.{target}") or _class_member(
                    importlib.import_module(module), target.split(".")[0]
                )
            if not ok:
                unresolved.append(f"{module}: {target}")
    assert unresolved == []
