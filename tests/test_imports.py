"""No module of the package imports a name it never uses, and no private
module-level name outlives its last caller.

Stand-ins for a linter's unused-import and dead-code rules, on the stdlib
``ast`` only. ``__init__.py`` is exempt from the import rule: its imports are
the package's public surface.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "featmod"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions, classes and constants that no module
    reads, by name, attribute or import. Dunder names are exempt."""
    defined = {}
    used = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom .model import round_half_up\nprint(sep)\n"
    assert unused_imports(source) == ["math (line 1)", "path (line 2)", "round_half_up (line 3)"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def test_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_SEEN: int = 0\n__all__ = []\ndef _dead():\n    pass\nclass _Box:\n    pass\n"
                "def _kept():\n    return _LIMIT\n",
        "b.py": "from .a import _kept\nimport a\n_kept()\na._Box()\n",
    }
    assert unreferenced_private_names(sources) == ["_SEEN (a.py:2)", "_dead (a.py:4)"]


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []
