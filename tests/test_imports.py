"""Every name the package imports is used: an AST scan of ``src/``."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never loaded, in order of import.

    A name listed in the module's ``__all__`` counts as used: that is
    how a package re-exports what it imports.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c\nprint(c)\n"
                     "__all__ = ['d']\nfrom e import d\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]


def test_package_imports_no_unused_name():
    files = sorted(SRC.rglob("*.py"))
    assert files
    unused = {str(path.relative_to(SRC)): found for path in files
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
