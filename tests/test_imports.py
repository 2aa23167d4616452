"""Source hygiene under src/: every imported name is used in its module, and
every top-level function, class and constant is referenced somewhere."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source):
    """Names bound by an import and never read, nor listed in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


def test_scan_flags_only_unused_names():
    source = (
        "import io\n"
        "import os.path\n"
        "from json import dumps as to_text, loads\n"
        "from .layers import Conv\n"
        "__all__ = ['Conv']\n"
        "def f():\n"
        "    return os.path.join(to_text(1))\n"
    )
    assert unused_imports(source) == ["io", "loads"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _references(node):
    """Names read, attributes taken and names imported anywhere in ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _definitions(statement):
    """Top-level names that one module statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_definitions(sources):
    """``(module, name)`` of top-level definitions that no other statement of
    any of ``sources`` (a mapping of module name to source) refers to."""
    statements = [
        (module, statement)
        for module, source in sources.items()
        for statement in ast.parse(source).body
    ]
    references = [_references(statement) for _, statement in statements]
    exempt = set()
    for _, statement in statements:
        if "__all__" in _definitions(statement):
            exempt.update(ast.literal_eval(statement.value))
    unused = []
    for index, (module, statement) in enumerate(statements):
        for name in _definitions(statement):
            if name.startswith("__") and name.endswith("__") or name in exempt:
                continue
            if not any(
                name in names
                for other, names in enumerate(references)
                if other != index
            ):
                unused.append((module, name))
    return unused


def test_scan_flags_only_unreferenced_definitions():
    sources = {
        "a": (
            "__all__ = ['exported']\n"
            "__version__ = '1'\n"
            "LIMIT = 3\n"
            "UNUSED = 4\n"
            "def exported(): pass\n"
            "def helper(): return LIMIT\n"
            "def recursive(n): return recursive(n - 1)\n"
            "class Orphan: pass\n"
        ),
        "b": "from a import helper\nimport a\nvalue = a.exported()\n",
    }
    assert sorted(unreferenced_definitions(sources)) == [
        ("a", "Orphan"),
        ("a", "UNUSED"),
        ("a", "recursive"),
        ("b", "value"),
    ]


def test_no_unreferenced_definitions():
    sources = {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in MODULES
    }
    assert unreferenced_definitions(sources) == []
