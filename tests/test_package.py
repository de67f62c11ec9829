"""Tests for the package's public surface and the shape of its source."""

import argparse
import ast
import re
from pathlib import Path

import wmtradeoff
from wmtradeoff import cli

SOURCE_DIR = Path(wmtradeoff.__file__).resolve().parent
STREAM_CONSTRUCTORS = {"default_rng", "SeedSequence", "Philox", "PCG64", "Generator"}


def test_exports_resolve_once():
    names = wmtradeoff.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(wmtradeoff, name), name


def test_settable_surface_is_pinned():
    # What a user can set or import: the CLI's options (help aside), the
    # config keys and the exports. A change to any count is a change of the
    # package's surface, made on purpose and reported.
    options = [
        action.dest
        for action in cli._build_parser()._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]
    assert (len(options), len(cli.RunConfig._fields), len(wmtradeoff.__all__)) == (13, 11, 22)


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


def linalg_names(source: str) -> set[str]:
    """Each ``numpy.linalg`` routine that ``source`` names; ``linalg`` where it takes the module."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "linalg":
            parent = parents[node]
            found.add(parent.attr if isinstance(parent, ast.Attribute) else "linalg")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found |= {"linalg" for alias in node.names if alias.name == "linalg"}
        elif isinstance(node, ast.Import):
            found |= {"linalg" for alias in node.names if alias.name.startswith("numpy.linalg")}
    return found


def test_linalg_names_are_found():
    assert linalg_names("import numpy as np\nnp.linalg.eigh(m)\nnp.linalg.norm(v)") == {
        "eigh", "norm",
    }
    assert linalg_names("from numpy.linalg import svd") == {"svd"}
    assert linalg_names("from numpy import linalg") == {"linalg"}
    assert linalg_names("import numpy.linalg") == {"linalg"}
    assert linalg_names("import numpy as np\nla = np.linalg") == {"linalg"}


def test_no_lapack():
    # No module names a numpy.linalg routine: 2x2 eigen- and singular
    # values are closed forms here, so no CLI path reaches LAPACK.
    found = {
        (path.name, name)
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for name in linalg_names(path.read_text())
    }
    assert found == set()


def matmul_lines(source: str) -> list[int]:
    """Line of each ``@`` or ``@=`` in ``source``: numpy hands a stacked product to BLAS."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    )


def test_matmul_lines_are_found():
    assert matmul_lines("c = a @ b\nc @= a\nd = a * b\n@decorator\ndef f(): pass") == [1, 2]


def test_no_matmul():
    # Every 2x2 product is qubit.matmul2's elementwise two-term sums, whose
    # bits do not depend on the BLAS kernel the CPU selects.
    found = {
        (path.name, line)
        for path in sorted(SOURCE_DIR.glob("*.py"))
        for line in matmul_lines(path.read_text())
    }
    assert found == set()


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


# The package's layers, lowest first: a module imports, by relative import,
# only from a lower layer. Rendering (tables) sits beside the sweeps, not
# under them, so the sweep layer returns columns and the CLI renders them.
LAYERS = (
    {"_version", "qubit"}, {"measurement"}, {"bench"}, {"sweeps", "tables"}, {"cli"},
    {"__init__", "__main__"},
)


def relative_imports(path: Path) -> set[str]:
    """Names of the package's modules that a module imports by relative import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_modules_import_only_lower_layers():
    rank = {name: k for k, layer in enumerate(LAYERS) for name in layer}
    paths = sorted(SOURCE_DIR.glob("*.py"))
    assert {path.stem for path in paths} == set(rank)
    upward = [
        (path.stem, name)
        for path in paths
        for name in sorted(relative_imports(path))
        if rank[name] >= rank[path.stem]
    ]
    assert upward == []


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    # The sketch's one python block runs against the installed API.
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
