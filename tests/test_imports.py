"""Every name a module of the package or its tests imports is read
somewhere in that module, and no line of either is longer than 100
characters.

No linter ships with the package, so these are the unused-import and
line-length checks.  ``__init__.py`` is exempt from the first: it imports
names to re-export them.
"""

import ast
from pathlib import Path

import pytest

import toricreg

PACKAGE = Path(toricreg.__file__).parent
TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py") + TESTS
SOURCES = sorted([*PACKAGE.glob("*.py"), *TESTS])
MAX_LINE = 100


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_sees_reads_and_misses():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "import numpy as np\n"
        "from .x import a, b as c, d\n"
        "def f(d) -> a:\n"
        "    return np.zeros(1), os.sep\n"
    )
    assert _unused_imports(source) == [(2, "osp"), (4, "c"), (4, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []
