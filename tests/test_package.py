"""The package's export list and its modules' imports."""
import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import trigonal

PACKAGE = Path(trigonal.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the scripts and tests too; perfbench/ is left out
MODULES += sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))


def test_every_exported_name_resolves_once():
    assert len(trigonal.__all__) == len(set(trigonal.__all__))
    missing = [name for name in trigonal.__all__ if not hasattr(trigonal, name)]
    assert missing == []


def test_every_public_name_bound_in_the_package_is_exported():
    bound = [
        name
        for name, value in vars(trigonal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(set(bound) - set(trigonal.__all__)) == []


def _dead_names(sources: dict[str, str], kept: set[str], readme: str) -> list[str]:
    """Module-level functions and classes in ``sources`` (module name ->
    source) that no top-level statement other than their own definition
    loads, as a name or an attribute, that ``kept`` does not hold and
    ``readme`` does not name.  Matched by name, across all modules."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    loads = {}  # top-level statement -> the names it loads
    for tree in trees.values():
        for statement in tree.body:
            loads[statement] = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(statement)
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
            }
    dead = []
    for module, tree in trees.items():
        for definition in tree.body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = definition.name
            if name in kept or re.search(rf"\b{re.escape(name)}\b", readme):
                continue
            if not any(name in names for statement, names in loads.items() if statement is not definition):
                dead.append(f"{module}.{name}")
    return dead


def test_every_function_and_class_has_a_caller_an_export_or_a_readme_mention():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readme = (ROOT / "README.md").read_text()
    assert _dead_names(sources, set(trigonal.__all__), readme) == []


def test_the_dead_name_check_counts_loads_exports_and_readme_mentions():
    sources = {
        "a": "def used(): pass\ndef alone(): return alone()\nclass Kept: pass\ndef named(): pass\n",
        "b": "import a\nx = a.used\n",
    }
    assert _dead_names(sources, {"Kept"}, "see `named`") == ["a.alone"]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never loads; ``__future__`` imports
    bind nothing."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.stem if p.parent == PACKAGE else f"{p.parent.name}/{p.stem}"
)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_unused_import_check_sees_plain_from_and_aliased_imports():
    source = "import os\nimport a.b\nfrom x import y, z as w\nfrom __future__ import annotations\nw()\n"
    assert _unused_imports(source) == ["os (line 1)", "a (line 2)", "y (line 3)"]


def test_a_fresh_import_builds_no_group_table_and_no_row():
    # tables with their columns, the samplers' index pools and the
    # kernel memos are all lru_cache builders filled on first use, so
    # importing the package and its CLI leaves every cache empty
    code = (
        "import functools, importlib, pkgutil\n"
        "import trigonal, trigonal.cli\n"
        "for info in pkgutil.iter_modules(trigonal.__path__):\n"
        "    module = importlib.import_module(f'trigonal.{info.name}')\n"
        "    for name, value in vars(module).items():\n"
        "        if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:\n"
        "            print(f'{module.__name__}.{name}', value.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    sizes = dict(line.split() for line in out.stdout.splitlines())
    assert "trigonal.groups.block_table" in sizes and "trigonal.sampling._lift_pools" in sizes
    assert {name: size for name, size in sizes.items() if size != "0"} == {}
