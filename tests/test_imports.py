"""Every name that a module of the package imports is read in that module."""

import ast
from pathlib import Path

import pytest

import m3sim

MODULES = sorted(p for p in Path(m3sim.__file__).resolve().parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that the imports of ``source`` bind and that it never reads, in import order.

    ``from __future__`` imports and imports on a line marked ``# noqa: F401``
    are skipped.  ``import a.b`` binds ``a``.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(name)
    return unused


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport os.path\nimport sys as system\n"
        "from json import dumps, loads\nfrom re import match  # noqa: F401\n"
        "print(system.argv, loads)\n"
    )
    assert unused_imports(source) == ["os", "os", "dumps"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []
