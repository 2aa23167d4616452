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


# (module, function, parameter) kept although no src/ call sets it: the
# console script calls ``main()`` and tests pass ``argv``
UNSET_DEFAULT_EXEMPT = {("poroscale/cli.py", "main", "argv")}


def _defaulted_parameters(function, method):
    """``(name, position)`` of each defaulted parameter of ``function``;
    the position counts positional slots after ``self``, None for
    keyword-only parameters."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    skip = int(method and not static)
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
    found += [
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _calls(tree):
    """``(name, positional count, keywords, starred)`` of every call."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        keywords = {k.arg for k in node.keywords}
        starred = None in keywords or any(
            isinstance(a, ast.Starred) for a in node.args
        )
        yield name, len(node.args), keywords, starred


def unset_defaults(sources):
    """``(module, function, parameter)`` of defaulted parameters of functions
    and methods that no call in ``sources`` sets, matching calls by name; a
    class name stands for its ``__init__``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    calls = {}
    for tree in trees.values():
        for name, n_args, keywords, starred in _calls(tree):
            calls.setdefault(name, []).append((n_args, keywords, starred))
    unset = []
    for module, tree in trees.items():
        for owner in ast.walk(tree):
            body = getattr(owner, "body", None)
            if not isinstance(body, list):
                continue  # a lambda's body is one expression
            method = isinstance(owner, ast.ClassDef)
            for function in body:
                if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                names = [function.name]
                if method and function.name == "__init__":
                    names.append(owner.name)
                sites = [c for name in names for c in calls.get(name, [])]
                for param, position in _defaulted_parameters(function, method):
                    key = (module, function.name, param)
                    if key not in UNSET_DEFAULT_EXEMPT and not any(
                        starred
                        or param in keywords
                        or position is not None and n_args > position
                        for n_args, keywords, starred in sites
                    ):
                        unset.append(key)
    return unset


def test_scan_flags_only_unset_defaults():
    sources = {
        "a": (
            "def by_keyword(x, y=1): pass\n"
            "def by_position(x, y=1, z=2): pass\n"
            "def by_star(x, y=1): pass\n"
            "def by_double_star(x, *, y=1): pass\n"
            "def never(x, y=1, *, z=2): pass\n"
            "class Box:\n"
            "    def __init__(self, size=1, fill=0): pass\n"
            "    def grow(self, by=1): pass\n"
            "    @staticmethod\n"
            "    def make(size=1): pass\n"
        ),
        "b": (
            "import a\n"
            "a.by_keyword(0, y=2)\n"
            "a.by_position(0, 1)\n"
            "a.by_star(*args)\n"
            "a.by_double_star(0, **options)\n"
            "a.never(0)\n"
            "box = a.Box(3)\n"
            "box.grow()\n"
            "a.Box.make(2)\n"
        ),
    }
    assert sorted(unset_defaults(sources)) == [
        ("a", "__init__", "fill"),
        ("a", "by_position", "z"),
        ("a", "grow", "by"),
        ("a", "never", "y"),
        ("a", "never", "z"),
    ]


def test_no_unset_defaults():
    sources = {
        str(path.relative_to(SRC)): path.read_text(encoding="utf-8")
        for path in MODULES
    }
    assert unset_defaults(sources) == []
