"""Every name a package module imports is used there, and every private
module-level definition is read somewhere in the package.

No linter ships with the test dependencies, so the checks walk the syntax
trees with ast. A name bound by an import must be read somewhere in the
module, or be re-exported through __all__; `from __future__ import ...` binds
nothing. A module-level `def _x`, `class _X` or `_X = ...` must be read by
some module of the package, as a name, an attribute or an imported name,
outside its own body; code that nothing needs is deleted.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "clinterp"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = ("from dataclasses import dataclass, field\nimport numpy as np\nimport os.path\n"
              "__all__ = ['exported']\nfrom .x import exported\n\n@dataclass\nclass A:\n"
              "    x: np.ndarray\n")
    assert unused_imports(source) == ["field (line 1)", "os (line 3)"]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _reads(tree: ast.AST) -> Counter:
    """Every name the tree reads: loaded names, attributes and imported names."""
    found: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(text) for module, text in sources.items()}
    reads: Counter = Counter()
    for tree in trees.values():
        reads.update(_reads(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, own = [node.name], _reads(node)  # recursion is not a use
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                own = Counter()
            else:
                continue
            unused += [f"{module}:{name} (line {node.lineno})" for name in names
                       if _is_private(name) and reads[name] - own[name] <= 0]
    return unused


def test_no_unused_private_definitions():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_the_scan_sees_an_unused_private_definition():
    sources = {
        "a.py": ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n\n"
                 "class _Box:\n    pass\n\n"
                 "def _used_elsewhere():\n    return 1\n\n"
                 "def _imported():\n    return 2\n\n"
                 "def public():\n    return 0\n"),
        "b.py": ("from . import a\nfrom .a import _imported\n\n"
                 "def g():\n    return a._used_elsewhere() + _imported()\n"),
    }
    assert unused_private_definitions(sources) == [
        "a.py:_SPARE (line 2)", "a.py:_walk (line 5)", "a.py:_Box (line 8)"]
