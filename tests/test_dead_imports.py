"""Every name a library module imports at module level is read somewhere in
it, no library module imports sympy, and every name the package exports
exists and is exported once."""

import ast
import pathlib

import pytest

import abelcentral

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "abelcentral"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no expression in it loads."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_finds_an_unread_import():
    assert unread_imports("import os\nfrom . import a, b as c\nprint(a)\n") == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unread_imports(path):
    assert unread_imports(path.read_text()) == []


def imported_modules(source: str) -> list[str]:
    """Every module an import statement names, at any depth of the module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
    return names


def test_finds_a_nested_import():
    assert imported_modules("def f():\n    from sympy.polys import gf\n    import os.path\n") == ["sympy.polys", "os.path"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_sympy_import(path):
    assert [name for name in imported_modules(path.read_text()) if name.split(".")[0] == "sympy"] == []


def test_exports_resolve_once():
    names = abelcentral.__all__
    assert sorted(set(names)) == sorted(names)
    assert [name for name in names if not hasattr(abelcentral, name)] == []
