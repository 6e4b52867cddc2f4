"""Every name a `boolinv` module imports is used in that module or listed in
its `__all__`, so an import left behind when its last use goes fails here.
`from __future__` imports are exempt."""
import ast
import pathlib

import pytest

import boolinv

MODULES = sorted(pathlib.Path(boolinv.__file__).parent.glob("*.py"))


def unused_imports(source):
    """The names `source` imports but neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_finds_only_the_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path, json as js\n"
        "from itertools import chain, compress\n"
        "from .a import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: chain) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["compress", "js"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_module_imports_only_what_it_uses(path):
    assert unused_imports(path.read_text()) == []
