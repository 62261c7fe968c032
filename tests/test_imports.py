import ast
import importlib
import sys
from pathlib import Path

# pyproject.toml declares numpy as the only runtime dependency.
_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qkr"}


def test_src_imports_only_stdlib_and_numpy():
    """Every absolute import in `src/qkr` is the standard library, numpy or
    qkr itself: a package installed only on the test host (scipy, say)
    would pass here and fail for users."""
    sources = sorted((Path(__file__).parents[1] / "src" / "qkr").glob("*.py"))
    assert sources
    stray = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [(path.name, name) for name in names if name.split(".")[0] not in _ALLOWED]
    assert stray == []


def test_every_exported_name_is_defined():
    """Every `__all__` entry of every `src/qkr` module resolves: a stale
    entry makes `from qkr.<module> import *` raise."""
    sources = sorted((Path(__file__).parents[1] / "src" / "qkr").glob("*.py"))
    assert sources
    missing = []
    for path in sources:
        name = "qkr" if path.stem == "__init__" else f"qkr.{path.stem}"
        module = importlib.import_module(name)
        missing += [(name, entry) for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []
