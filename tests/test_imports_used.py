"""Every name a hallperm module imports is used in that module.

Read with ast alone, so a deletion cannot leave an import behind.
__init__.py is exempt: its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

import hallperm

_MODULES = sorted(p for p in pathlib.Path(hallperm.__file__).parent.glob("*.py")
                  if p.name != "__init__.py")


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _uses_itemgetter(tree):
    return any((isinstance(node, ast.ImportFrom) and any(a.name == "itemgetter" for a in node.names))
               or (isinstance(node, ast.Attribute) and node.attr == "itemgetter")
               for node in ast.walk(tree))


def test_only_perm_uses_itemgetter():
    # perm.gather hides itemgetter's arity quirks: itemgetter() raises and
    # itemgetter(p) returns a scalar, so every other module gathers through it
    package = pathlib.Path(hallperm.__file__).parent
    users = [p.name for p in sorted(package.glob("*.py")) if _uses_itemgetter(ast.parse(p.read_text()))]
    assert users == ["perm.py"]
