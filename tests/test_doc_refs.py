"""Cross-references in the package's docstrings and comments name code that
exists: a deletion must not leave a stale ``:func:`` role or private name."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import fluidqoe

PACKAGE = Path(fluidqoe.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
for _path in MODULES:  # binds every submodule to the package
    if _path.stem != "__init__":
        importlib.import_module(f"fluidqoe.{_path.stem}")
ROLE = re.compile(r":(?:func|class|data|meth):`~?([\w.]+)`")
PRIVATE = re.compile(r"``(_[A-Za-z]\w*)``")


def _defined_names() -> set:
    """Every function, class, variable and attribute the package binds."""
    names = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return names


DEFINED = _defined_names()


def _resolves(target: str) -> bool:
    """A dotted ``fluidqoe.`` path is looked up attribute by attribute; a
    shorter name must be bound somewhere in the package, part by part."""
    parts = target.split(".")
    if parts[0] != "fluidqoe":
        return all(part in DEFINED for part in parts)
    obj = fluidqoe
    for part in parts[1:]:
        obj = getattr(obj, part, None)
    return obj is not None


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_cross_references_resolve(path):
    text = path.read_text(encoding="utf-8")
    stale = [f":{target}" for target in ROLE.findall(text) if not _resolves(target)]
    stale += [f"``{name}``" for name in PRIVATE.findall(text) if name not in DEFINED]
    assert not stale, f"{path.name} names what the package does not define: {stale}"
