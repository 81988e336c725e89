"""Every name a module of the package or its tests imports is read
somewhere in that module, no line of either is longer than 100
characters, and the routes stay apart.

No linter ships with the package, so these are the unused-import and
line-length checks.  ``__init__.py`` is exempt from the first: it imports
names to re-export them.

The routes check each other only while none reaches into another, so the
package's relative imports, at module level or inside a function, are closed
transitively and held to one table, ``MAY_REACH``.  Below the line sit
``errors``, ``caps`` and ``graph`` (which holds the degree formula and
``HilbertProfile``): the count and sieve module ``ideal`` reaches exactly
these, and so never rank or GF(q) arithmetic; rank (``hilbert``,
``points``, ``field``) never reaches the residue table, the closed forms
or the harness; ``formulas`` reaches no rank module, and takes only
``regularity_count`` from ``ideal``, for its bound rows.
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


def _package_imports(source: str):
    """{module: names taken from it} for every relative import anywhere in
    the source; ``from . import m`` takes no names from m."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
            else:
                found.update((a.name, set()) for a in node.names)
    return found


def _closure(imports):
    """{module: every module it reaches through one or more imports}."""
    reach = {}
    for start in imports:
        seen, todo = set(), [start]
        while todo:
            fresh = set(imports.get(todo.pop(), ())) - seen
            seen |= fresh
            todo.extend(fresh)
        reach[start] = seen
    return reach


IMPORTS = {path.stem: _package_imports(path.read_text()) for path in PACKAGE.glob("*.py")}
REACH = _closure(IMPORTS)
BASE = {"errors", "caps", "graph"}
ALL = set(IMPORTS)
RANK = {"hilbert", "points", "field"}
# module -> the package modules it may reach, transitively
MAY_REACH = {
    **dict.fromkeys(BASE, BASE),
    "ideal": BASE,
    **dict.fromkeys(RANK, ALL - {"ideal", "formulas", "harness", "cli"}),
    "formulas": ALL - RANK - {"harness", "cli"},
}


def test_the_walker_sees_nested_and_transitive_imports():
    imports = {
        name: _package_imports(source)
        for name, source in {
            "a": "from .b import f\n",
            "b": "def f():\n    from .c import g\n    return g()\n",
            "c": "import numpy\nfrom numpy import zeros\n",
            "e": "from . import c\n",
        }.items()
    }
    assert imports == {"a": {"b": {"f"}}, "b": {"c": {"g"}}, "c": {}, "e": {"c": set()}}
    assert _closure(imports) == {"a": {"b", "c"}, "b": {"c"}, "c": set(), "e": {"c"}}


@pytest.mark.parametrize("module", sorted(MAY_REACH))
def test_the_routes_stay_apart(module):
    assert REACH[module] - MAY_REACH[module] == set()


def test_count_reaches_the_shared_base_and_formulas_only_count():
    assert REACH["ideal"] == BASE
    assert IMPORTS["formulas"]["ideal"] == {"regularity_count"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_line_is_longer_than_the_limit(path):
    lines = path.read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []
