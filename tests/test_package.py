"""Tests for the package's public surface and the shape of its source."""

import ast
from pathlib import Path

import wmtradeoff

SOURCE_DIR = Path(wmtradeoff.__file__).resolve().parent
STREAM_CONSTRUCTORS = {"default_rng", "SeedSequence", "Philox", "PCG64", "Generator"}


def test_exports_resolve_once():
    names = wmtradeoff.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(wmtradeoff, name), name


def constructor_calls(path: Path) -> list[tuple[str, str]]:
    """(called name, enclosing top-level function or '<module>') of each stream constructor call."""
    calls = []
    for node in ast.parse(path.read_text()).body:
        owner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in STREAM_CONSTRUCTORS:
                    calls.append((name, owner))
    return calls


def test_one_stream_constructor():
    # Every generator of the package is built by bench._substream.
    found = {
        (path.name, owner, name)
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for name, owner in constructor_calls(path)
    }
    assert found == {
        ("bench.py", "_substream", "SeedSequence"),
        ("bench.py", "_substream", "Generator"),
        ("bench.py", "_substream", "Philox"),
    }


def unused_imports(path: Path) -> list[str]:
    """Names that a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_every_import_is_used():
    # A name bound only for something outside the package to find is dead
    # code here; the package's __init__ imports to export.
    found = {
        path.name: unused
        for path in sorted(SOURCE_DIR.glob("*.py"))
        if path.name != "__init__.py" and (unused := unused_imports(path))
    }
    assert found == {}
