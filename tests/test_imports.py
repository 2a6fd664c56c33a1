"""Every import in the package is used, and every public name exists.

A stdlib stand-in for pyflakes' F401: an imported name must be read
somewhere in its module, be listed in `__all__`, or sit on a line
marked `# noqa: F401`.  Since `__all__` counts as a use, each of its
names must also be an attribute of the package.
"""

import ast
from pathlib import Path

import pytest

import espunct

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "espunct"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "print(osp)\n"
    )
    assert _unused_imports(source) == ["line 2: os"]


def test_every_public_name_exists():
    assert [name for name in espunct.__all__ if not hasattr(espunct, name)] == []
