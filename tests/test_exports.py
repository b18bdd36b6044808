"""Package exports: __all__ lists exactly what __init__ imports."""

import ast
import subprocess
import sys
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


def test_import_leaves_scipy_signal_unloaded():
    """scipy.signal takes about a second to import, so the package
    imports it only inside the functions that call it."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, clearstream; print('scipy.signal' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
