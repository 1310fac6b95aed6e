"""Source hygiene: every module-level import of the package is read, and every private name."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "catledger"
# `__init__.py` imports to re-export
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> list[str]:
    """The names the module-level imports bind, `from __future__` left out."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def read_names(tree: ast.AST) -> set[str]:
    """Every name the code reads, with the names in string annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    read |= read_names(ast.parse(part.value, mode="eval"))
    return read


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = read_names(tree)
    return [name for name in imported_names(tree) if name not in read]


def defined_private_names(tree: ast.Module) -> list[str]:
    """The `_private` names the module-level definitions and assignments bind, dunders left out."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level `_private` name that no module of `sources` reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in defined_private_names(tree)
        if name not in read
    ]


def test_the_check_finds_an_unused_import_and_reads_string_annotations():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Sequence as Seq, Mapping\n"
        "def f(x: 'Seq[int]') -> 'list[Mapping]':\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["math"]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_DEAD, _PAIR = 2, 3\n"
            "__all__: list = []\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Gone:\n"
            "    _attr = _PAIR\n"
        ),
        "b.py": "from a import _helper\n_READ_HERE = _helper()\nprint(_READ_HERE)\n",
    }
    assert unread_private_names(sources) == ["a.py:_DEAD", "a.py:_Gone"]


def test_every_module_level_private_name_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
