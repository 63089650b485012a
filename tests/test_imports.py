"""Every name a flowconformal module imports is used there or re-exported
through its ``__all__``, and every module-level ``_private`` name is read
somewhere in the package, so an import or helper that outlives the code it
served fails here. Each CLI stage loads only the package modules it calls.
Standard library only: the repo installs no lint tool."""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


# what cli.py may import from the package before any stage runs
CLI_IMPORTS = {"config", "datasets", "errors", "_table", "__version__"}


def package_imports(source: str) -> set[str]:
    """The package modules (or, for ``from . import x``, the names) that the
    module-level relative imports of ``source`` read from."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else
                         [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names
                         if alias.name.startswith("flowconformal"))
    return names


def test_the_check_finds_a_package_import():
    source = ("import os\nimport flowconformal.nn\nfrom . import __version__, roundtrip\n"
              "from .config import A\n\ndef f():\n    from .baselines import B\n")
    assert package_imports(source) == {"flowconformal.nn", "__version__", "roundtrip", "config"}


def test_cli_imports_only_the_config_and_data_modules_up_front():
    assert package_imports((SRC / "cli.py").read_text()) <= CLI_IMPORTS


# each stage's run must leave these modules unexecuted
NOT_LOADED = {
    "train": {"baselines", "conformal", "evaluation", "special"},
    "calibrate": {"baselines", "evaluation", "special"},
    "predict": {"baselines", "evaluation", "special"},
    "evaluate": set(),
}


def test_each_stage_loads_only_the_modules_it_calls(tmp_path):
    # a module put in sys.modules unexecuted is a LazyLoader stub until its
    # first use, so "loaded" means a plain module object
    probe = ("import sys, types\n"
             "from flowconformal.cli import main\n"
             "code = main(sys.argv[1:])\n"
             "names = sorted(n for n in sys.modules if n.split('.')[0] == 'flowconformal')\n"
             "run = [n for n in names if type(sys.modules[n]) is types.ModuleType]\n"
             "print(code, ' '.join(names), ' '.join(run), sep='|')\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 1, "out_dir": str(tmp_path / "out"),
        "dataset": {"synthetic": {"means": [[0.0], [6.0]], "train_per_class": 32,
                                  "test_per_class": 8, "outlier": {"mean": [12.0], "n": 20}}},
        "model": {"latent_dim": 1, "gen_hidden": [4], "inv_hidden": [4], "disc_hidden": [4],
                  "train": {"epochs": 1, "batch_size": 16}},
        "baselines": {"epochs": 1},
    }))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    package = {f"flowconformal.{path.stem}" for path in SRC.glob("*.py")
               if path.stem != "__init__"} | {"flowconformal"}
    for stage in ("gen-data", "train", "calibrate", "predict", "evaluate"):
        done = subprocess.run([sys.executable, "-c", probe, stage, "--config", str(config)],
                              capture_output=True, text=True, env=env, timeout=300)
        code, names, run = done.stdout.strip().split("|")
        assert code == "0", (stage, done.stderr)
        # every module is in sys.modules, run or not, so a tool that wraps the
        # package's functions after importing cli finds each of them
        assert set(names.split()) == package, stage
        loaded = {name.removeprefix("flowconformal.") for name in run.split()}
        if stage == "gen-data":
            assert loaded == {"flowconformal", *CLI_IMPORTS - {"__version__"}, "cli"}
        else:
            assert not loaded & NOT_LOADED[stage], (stage, sorted(loaded))
