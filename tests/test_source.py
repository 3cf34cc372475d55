"""Source gates on the package's modules, read with the standard library's
``ast`` module: no module imports a name it never reads."""

import ast
from pathlib import Path

import pytest

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
