"""Package exports: __all__ lists exactly what __init__ imports."""

import ast
from pathlib import Path

import clearstream


def test_all_matches_imports():
    names = clearstream.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(clearstream, name), name
    tree = ast.parse(Path(clearstream.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert set(names) == imported | {"__version__"}
