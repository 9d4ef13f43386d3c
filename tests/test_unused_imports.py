"""Every module of the package reads each name it imports.

``import a.b`` binds ``a`` but is read only through the chain ``a.b``, so
``urllib.request.urlopen`` does not count as a use of ``import urllib.error``.
``__init__.py`` re-exports what it imports, and a line marked
``# noqa: F401`` imports a name for others to reach on the module.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "migrec"


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (base := dotted(node.value)) is not None:
        return f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import in ``source`` that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and (chain := dotted(node)):
            parts = chain.split(".")
            read.update(".".join(parts[: i + 1]) for i in range(len(parts)))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name  # `import a.b` must read the chain a.b
            if name not in read:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize(
    "path", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "__init__.py")
)
def test_a_module_reads_every_name_it_imports(path):
    assert unused_imports((SOURCE / path).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", [(1, "os")]),
        ("import os\nos.getcwd()\n", []),
        ("import urllib.error\nimport urllib.request\nurllib.request.urlopen\n",
         [(1, "urllib.error")]),
        ("import urllib.error\nurllib.error.URLError\n", []),
        ("from x import a, b as c\nc\n", [(1, "a")]),
        ("from x import (\n    a,\n)\n", [(1, "a")]),
        ("from x import (  # noqa: F401\n    a,\n)\n", []),
        ("from x import (\n    a,\n)  # noqa: F401\n", []),
        ("from x import a  # noqa: F401\n", []),
        ("from __future__ import annotations\n", []),
        ("from x import T\ndef f(v: T) -> None: ...\n", []),
    ],
)
def test_the_check_finds_exactly_the_unread_names(source, unused):
    assert unused_imports(source) == unused
