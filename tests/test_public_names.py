"""Every public name of a package module has a user: each name in a
`src/mcdc` module's `__all__`, and each public method of a class so
exported, is read somewhere in the package or the benchmark harness, other
than where it is defined. Tests do not count. The match is by spelling, so a
read of any attribute of that name counts. The same rule keeps the test-side
references of `tests/reference_ops.py` in use by the tests, and a parameter
with a default on such a function or method is passed by some call there."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcdc"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _parse(paths) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def _read_names(tree: ast.AST) -> Counter:
    """Names loaded as a bare name or as an attribute, with their counts; a
    definition, an assignment or an import is not a read."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
    return names


def _reads(trees: dict[Path, ast.Module]) -> Counter:
    return sum((_read_names(tree) for tree in trees.values()), Counter())


def _unread(defs: dict[str, ast.FunctionDef], trees: dict[Path, ast.Module]) -> list[str]:
    """The keys of `defs` whose function nothing in `trees` reads outside
    the function's own body."""
    read = _reads(trees)
    return [label for label, node in defs.items() if read[node.name] - _read_names(node)[node.name] <= 0]


def _public_methods(trees: dict[Path, ast.Module]) -> dict[str, ast.FunctionDef]:
    """module.Class.method -> definition, for each public method of each
    class in a package module's `__all__`."""
    return {
        f"{path.stem}.{cls.name}.{node.name}": node
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in _exported(tree)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def _defaulted(node: ast.FunctionDef, offset: int) -> list[tuple[int | None, str]]:
    """(position, name) of each parameter of `node` with a default, counting
    positions from `offset`, the arguments a call leaves out (a method's self);
    a keyword-only parameter has no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return [(i - offset, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None
    ]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether `call` passes the parameter at `position` called `name`; a
    `*` or `**` argument counts as passing every parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (position is not None and position < len(call.args)) or any(k.arg == name for k in call.keywords)


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_exported_name_is_read_somewhere():
    trees = _parse(SOURCES)
    read = _reads(trees)
    unused = [
        f"{path.stem}.{name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in _exported(tree)
        if name not in read
    ]
    assert unused == []


def test_every_public_method_of_an_exported_class_is_read_somewhere():
    trees = _parse(SOURCES)
    assert _unread(_public_methods(trees), trees) == []


def test_every_reference_op_is_read_by_a_test():
    trees = _parse(TESTS)
    reference = trees[ROOT / "tests" / "reference_ops.py"]
    defs = {node.name: node for node in reference.body if isinstance(node, ast.FunctionDef)}
    assert _unread(defs, trees) == []


def test_every_defaulted_parameter_is_passed_somewhere():
    """A default no call overrides is a constant: each defaulted parameter of
    a function in a package module's `__all__`, or of a public method of a
    class so exported, is passed by a call outside the function's own body,
    by keyword or at its position. Calls match by the callee's spelling."""
    trees = _parse(SOURCES)
    defs = {
        f"{path.stem}.{node.name}": (node, 0)
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in _exported(tree)
    }
    for label, node in _public_methods(trees).items():
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        defs[label] = (node, 0 if static else 1)
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]
    unpassed = []
    for label, (node, offset) in defs.items():
        own = {id(n) for n in ast.walk(node)}
        callers = [c for c in calls if _callee(c) == node.name and id(c) not in own]
        unpassed += [
            f"{label}.{name}"
            for position, name in _defaulted(node, offset)
            if not any(_passes(c, position, name) for c in callers)
        ]
    assert unpassed == []
