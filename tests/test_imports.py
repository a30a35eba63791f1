"""Every top-level import of a `postdedup` module is used, or re-exported in `__all__`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "postdedup"


def unused_imports(source: str) -> list[str]:
    """Names the module's top-level imports bind that it never references nor lists in `__all__`."""
    tree = ast.parse(source)
    bound: list[str] = []
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used and name not in exported]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_keeps_no_dead_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_dead_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from dataclasses import asdict, replace\n"
        "from .errors import DataError, EmptyInput\n"
        "from .index import build_index\n"
        "x = np.zeros(asdict(DataError()))\n"
        "__all__ = ['build_index']\n"
    )
    assert unused_imports(source) == ["os", "replace", "EmptyInput"]
