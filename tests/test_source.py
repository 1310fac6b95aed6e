"""Source hygiene: every module-level import of the package is read, every private name,
and every option of the command-line parser; importing the CLI loads no code generator
and compiles the booking table once, which `evolution` reads only compiled; every leg
status the ledger's scan can emit is documented in the README, and every call the
README names exists."""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from catledger.cli import build_parser

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


# option dest -> why the CLI parses it but never reads it
UNREAD_OPTIONS = {
    "jobs": "accepted and ignored: the benchmark's sweep-mixed workload still passes --jobs 2",
}


def option_dests(parser: argparse.ArgumentParser) -> set[str]:
    """The dest of every option of `parser` and its subparsers that sets a namespace attribute."""
    dests = set()
    for action in parser._actions:
        if action.default != argparse.SUPPRESS:  # `--help` sets nothing
            dests.add(action.dest)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                dests |= option_dests(subparser)
    return dests


def unread_options(parser: argparse.ArgumentParser, source: str) -> list[str]:
    """The option dests that `source` reads neither as `args.<dest>` nor `getattr(args, "<dest>")`."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "args":
                read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "getattr" and len(node.args) >= 2:
                owner, name = node.args[:2]
                if isinstance(owner, ast.Name) and owner.id == "args":
                    if isinstance(name, ast.Constant) and isinstance(name.value, str):
                        read.add(name.value)
    return sorted(option_dests(parser) - read)


def test_the_check_finds_an_unread_option():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    p_go = sub.add_parser("go")
    p_go.add_argument("--fast", action="store_true")
    p_go.add_argument("--out", dest="target")
    p_go.add_argument("--level", type=int)
    source = "def main(args):\n    return args.command, args.target, getattr(args, 'level', 0)\n"
    assert unread_options(parser, source) == ["fast"]


def test_every_parser_option_is_read():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert unread_options(build_parser(), source) == sorted(UNREAD_OPTIONS)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every `catledger` process pays its import: `dataclasses` pulls in `inspect`,
    # `ast` and `dis`, and compiles code for each record it decorates
    code = (
        "import sys; before = set(sys.modules); import catledger.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_fresh_import_compiles_the_booking_table_once():
    # the ledger compiles `BOOKINGS` and the categorical proof reads that compiled table
    code = (
        "import sys; calls = []\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code.co_name == 'compile_booking_table':\n"
        "        calls.append(frame.f_code.co_filename)\n"
        "sys.setprofile(profile); import catledger.cli; sys.setprofile(None)\n"
        "print(len(calls))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1\n"


def test_evolution_reads_the_bookings_only_compiled():
    tree = ast.parse((PACKAGE / "evolution.py").read_text(encoding="utf-8"))
    raw = {"BOOKINGS", "BookingEntry", "Direction", "compile_booking_table"}
    assert sorted(raw & set(imported_names(tree))) == []


def scan_status_prefixes() -> set[str]:
    """The prefix before ':' of each leg status and verdict that `_scan_legs` can emit."""
    tree = ast.parse((PACKAGE / "ledger.py").read_text(encoding="utf-8"))
    scan = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_scan_legs")
    prefixes = set()
    for node in ast.walk(scan):
        if isinstance(node, ast.JoinedStr) and isinstance(node.values[0], ast.Constant):
            head, colon, _ = node.values[0].value.partition(":")
            if colon and head.replace("-", "").isalpha():
                prefixes.add(head)
    return prefixes


def test_every_status_the_scan_can_emit_is_in_the_readme():
    prefixes = scan_status_prefixes()
    assert {"insufficient-balance", "non-finite-balance", "eu-imbalance"} <= prefixes
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    assert sorted(prefix for prefix in prefixes if f"`{prefix}:" not in readme) == []


def called_names(markdown: str) -> list[str]:
    """Each snake_case name a backticked span of `markdown` writes as a call, in text order.

    Fenced blocks are skipped and wrapped lines joined; of a dotted call such as
    `Functor.identity(cat)` the name is its last part.
    """
    prose, fenced = [], False
    for line in markdown.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            prose.append(line.strip())
    spans = re.findall(r"`([^`]+)`", " ".join(prose))
    calls = (re.findall(r"([A-Za-z_][A-Za-z0-9_]*)\(", span) for span in spans)
    return [name for names in calls for name in names if re.fullmatch(r"[a-z_][a-z0-9_]*", name)]


def package_names() -> set[str]:
    """The names a `catledger` module binds, those of the classes it defines, and the builtins."""
    import builtins
    import importlib

    names = set(dir(builtins))
    for module in ("catledger", *(f"catledger.{path[:-3]}" for path in MODULES)):
        namespace = vars(importlib.import_module(module))
        names |= namespace.keys()
        for value in namespace.values():
            if isinstance(value, type) and value.__module__.startswith("catledger"):
                names |= set(dir(value))
    return names


def test_the_check_finds_a_call_of_a_name_that_is_gone():
    text = "Use `FinSetMap.from_positions(domain,\n  codomain)` and `Trace`.\n```\ngone(x)\n```\n"
    assert called_names(text) == ["from_positions"]
    assert called_names("`run(Parameters(tau=3), horizon=5)` or `len(x)`") == ["run", "len"]
    assert "from_positions" not in package_names() and "run" in package_names()


def test_every_call_the_readme_names_exists():
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    known = package_names()
    assert [name for name in called_names(readme) if name not in known] == []
