"""No module imports a name it never uses.

Each Python file under ``src/``, ``tests/``, ``tools/`` and ``demos/`` is
parsed with ``ast``; every name an import binds must be read somewhere in
the file, or be listed in the module's ``__all__``.  ``from __future__``
imports are compiler directives and are skipped.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED_DIRS = ("src", "tests", "tools", "demos")


def unused_imports(source: str):
    """(line, name) of each imported name that ``source`` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def python_files():
    return sorted(path for d in CHECKED_DIRS
                  for path in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", python_files(),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


class TestChecker:
    def test_names_an_unused_import_and_its_line(self):
        source = "import os\nfrom typing import List, Optional\nx: List\n"
        assert unused_imports(source) == [(1, "os"), (2, "Optional")]

    def test_all_future_and_dotted_imports(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\n"
                  "from .geometry import Pose\n"
                  "__all__ = ['Pose']\n"
                  "os.path.join('a', 'b')\n")
        assert unused_imports(source) == []

    def test_attribute_base_and_alias_count_as_used(self):
        source = "import numpy as np\nfrom a import b as c\nnp.zeros(c)\n"
        assert unused_imports(source) == []
