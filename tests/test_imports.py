"""No module of the package imports a name it never uses, no private
module-level name outlives its last caller, no public function or class
outlives its last reader, and every package name the benchmark scripts read
exists.

Stand-ins for a linter's unused-import and dead-code rules, on the stdlib
``ast`` only. ``__init__.py`` is exempt from the import rule: its imports are
the package's public surface.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "featmod"
BENCHMARK_SCRIPTS = [PACKAGE.parent.parent / "perfbench" / name
                     for name in ("workloads.py", "run.py", "record_reference.py")]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def names_read(tree: ast.AST) -> set[str]:
    """Names the tree reads, by name, attribute or import."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


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
        used |= names_read(tree)
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def unreferenced_public_names(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """Module-level public functions and classes of the package that nothing
    reads outside their own definition: no package module, ``__init__``
    included, and none of the readers (tests, benchmark scripts)."""
    defined = {}
    used = set()
    for module, source in {**package, **readers}.items():
        for node in ast.parse(source).body:
            reads = names_read(node)
            if module in package and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = f"{module}:{node.lineno}"
                reads.discard(node.name)  # a recursive call is not a reader
            used |= reads
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


def test_finds_an_unreferenced_public_name():
    package = {
        "a.py": "def helper():\n    pass\ndef dead():\n    return dead()\ndef caller():\n    return helper()\n"
                "class Exported:\n    pass\ndef _private():\n    pass\nLIMIT = 3\n",
        "__init__.py": "from .a import Exported\n",
    }
    readers = {"test_a.py": "from featmod.a import caller\ncaller()\n"}
    assert unreferenced_public_names(package, readers) == ["dead (a.py:3)"]


def test_no_unreferenced_public_names():
    package = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readers = {f"{p.parent.name}/{p.name}": p.read_text() for p in TESTS + BENCHMARK_SCRIPTS}
    assert unreferenced_public_names(package, readers) == []


def unresolved_featmod_names(source: str) -> list[str]:
    """Names the source imports from featmod, or reads as attributes of a
    featmod module it imported, that the package does not define."""
    tree = ast.parse(source)
    modules = {}  # local name -> featmod module object
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "featmod":
            package = importlib.import_module(node.module)
            for alias in node.names:
                if hasattr(package, alias.name):
                    value = getattr(package, alias.name)
                else:  # a submodule not yet imported
                    try:
                        value = importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        missing.append(f"{node.module}.{alias.name}")
                        continue
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if not hasattr(modules[node.value.id], node.attr):
                missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return sorted(missing)


def test_finds_an_unresolved_featmod_name():
    source = ("from featmod import costs, nosuchmodule\nfrom featmod.costs import cost_paradigm, gone\n"
              "costs.sweep_frames\ncosts.removed(1)\n")
    assert unresolved_featmod_names(source) == ["featmod.costs.gone", "featmod.costs.removed", "featmod.nosuchmodule"]


@pytest.mark.parametrize("script", BENCHMARK_SCRIPTS, ids=lambda p: p.name)
def test_benchmark_reads_only_names_that_exist(script):
    assert unresolved_featmod_names(script.read_text()) == []
