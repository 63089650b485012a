"""Every name a flowconformal module imports is used there or re-exported
through its ``__all__``, and every module-level ``_private`` name is read
somewhere in the package, so an import or helper that outlives the code it
served fails here. Standard library only: the repo installs no lint tool."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "flowconformal"


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name that the module neither reads
    nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_used_or_exported(path):
    assert unused_imports(path.read_text()) == []


def _defined_names(stmt) -> list[str]:
    """Names a module-level statement binds: a function, a class, or the
    plain targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _read_names(node) -> set[str]:
    """Names read under ``node``: loaded names, attributes and names imported
    from another module."""
    read = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            read.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            read.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            read.update(alias.name for alias in sub.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """'module.name' for each module-level ``_private`` function, class or
    constant (dunders aside) that no statement of any module but its own
    definition reads."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    unread = []
    for module, stmt in statements:
        for name in _defined_names(stmt):
            if name.startswith("_") and not name.startswith("__") and not any(
                    other is not stmt and name in _read_names(other)
                    for _, other in statements):
                unread.append(f"{module}.{name}")
    return sorted(unread)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SEEN = 1\n__all__ = []\n"
             "def _used():\n    return _LIMIT\n"
             "def _recursive(n):\n    return _recursive(n - 1)\n"
             "class _Left:\n    pass\n",
        "b": "from .a import _used\nimport a\nx = a._SEEN\n",
    }
    assert unread_private_names(sources) == ["a._Left", "a._recursive"]


def test_every_private_name_is_read_in_src():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []
