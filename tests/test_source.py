"""Source gates on the package's modules, read with the standard library's
``ast`` module: no module imports a name it never reads, and the command
line catches package errors by their base class only, reading each one's
exit code off the class."""

import ast
from pathlib import Path

import pytest

from shiftdim import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "shiftdim"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports, at any depth, and never reads.  A name
    is read where it is a ``Name`` node, also inside a quoted annotation.
    ``from __future__`` imports are compiler directives, not names."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_imports_finds_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from .systems import ClopenSet, overlapping_pair\n"
        "from .words import Top\n"
        "def f(x: 'Top') -> ClopenSet:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["j (line 3)", "overlapping_pair (line 4)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_what_it_reads(path):
    assert unused_imports(path.read_text()) == []


def caught_error_subclasses(source: str) -> list[str]:
    """The ``ShiftDimError`` subclasses that an ``except`` clause of
    ``source`` names, bare or as a module attribute."""
    subclasses = {
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.ShiftDimError)
    } - {"ShiftDimError"}
    caught = []
    for handler in ast.walk(ast.parse(source)):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            for node in ast.walk(handler.type):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name in subclasses:
                    caught.append(f"{name} (line {node.lineno})")
    return caught


def test_caught_error_subclasses_finds_each_form():
    source = (
        "try:\n    pass\n"
        "except (errors.InvalidSpec, OSError):\n    pass\n"
        "except DepthInsufficient:\n    pass\n"
        "except ShiftDimError:\n    pass\n"
    )
    assert caught_error_subclasses(source) == ["InvalidSpec (line 3)", "DepthInsufficient (line 5)"]


def test_cli_catches_no_error_subclass():
    assert caught_error_subclasses((SRC / "cli.py").read_text()) == []
