"""Which gridlab modules each module imports, read from its source with ast.

Importing any gridlab module runs ``gridlab/__init__``, which loads every
module, so ``sys.modules`` cannot show these boundaries.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gridlab"


def gridlab_imports(name: str) -> set:
    """The gridlab modules that ``gridlab/<name>.py`` imports anywhere in
    its source; ``"gridlab"`` stands for the package itself, whose import
    loads every module."""
    out = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "gridlab":
                    out.add(parts[1] if len(parts) > 1 else "gridlab")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                out.update([module.split(".")[0]] if module else
                           [alias.name for alias in node.names])
            elif module == "gridlab":
                out.update(["gridlab"] + [alias.name for alias in node.names])
            elif module.startswith("gridlab."):
                out.add(module.split(".")[1])
    return out


def test_the_reader_sees_ramsey_imports():
    assert {"engine", "errors", "grids", "poset"} <= gridlab_imports("ramsey")


def test_the_engine_imports_no_gridlab_module_but_errors():
    assert gridlab_imports("engine") == {"errors"}


@pytest.mark.parametrize("name", ["engine", "probe"])
def test_the_engine_and_the_probe_do_not_import_ramsey(name):
    imported = gridlab_imports(name)
    assert "ramsey" not in imported and "gridlab" not in imported
