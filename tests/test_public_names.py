"""Every public name of a package module has a user: each name in a
`src/mcdc` module's `__all__` is read somewhere in the package or the
benchmark harness, other than where it is defined. Tests do not count. The
match is by spelling, so a read of any attribute of that name counts."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcdc"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded as a bare name or as an attribute; a definition, an
    assignment or an import is not a read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_exported_name_is_read_somewhere():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _exported(tree)
        if name not in read
    ]
    assert unused == []
