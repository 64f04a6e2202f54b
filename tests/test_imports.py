"""Every name that a source file imports is used in that file.

A stdlib ``ast`` stand-in for a linter's unused-import rule (F401), checked
per file, not per scope: a name counts as used when the file loads it
anywhere, as a name or as the root of an attribute chain, or lists it in
``__all__``.  An import statement with ``# noqa: F401`` on one of its lines
is a deliberate re-export and is not checked.  ``from __future__`` imports
are not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import xml.sax\n"
        "from dataclasses import dataclass\n"
        "from typing import Mapping  # noqa: F401\n"
        "def f() -> int:\n"
        "    from math import pi as tau\n"
        "    return sys.maxsize\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: xml", "line 4: dataclass",
                                      "line 7: tau"]
