"""Package structure: modules share only public names, every exported name has
a user besides the tests, and one reader owns ``int``."""

import ast
import re
from pathlib import Path

import stanley

MODULES = sorted(Path(stanley.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert offenders == []


def _loaded_names(node, own=frozenset()):
    """Names read under ``node``, leaving out each def's or class's own name
    inside its body; definitions and assignments store, they do not read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _loaded_names(child, own)


def test_every_exported_name_has_a_user():
    # a name that only tests call belongs in tests/, not in the package's API
    init = Path(stanley.__file__)
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        name
        for path in MODULES
        if path != init
        for name in _loaded_names(ast.parse(path.read_text(), str(path)))
    }
    readme = README.read_text()
    unused = [
        name
        for name in sorted(exported - used)
        if not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def _is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def test_only_the_number_reader_uses_int():
    # int() outside core.read_int, or int handed to a call (add_argument's
    # type=int, map(int, ...)), would read text the reader rejects
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        reader = {
            id(inner)
            for node in ast.walk(tree)
            if path.name == "core.py" and isinstance(node, ast.FunctionDef)
            and node.name == "read_int"
            for inner in ast.walk(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in reader:
                continue
            passed = [*node.args, *(keyword.value for keyword in node.keywords)]
            if _is_int(node.func) or (
                not (isinstance(node.func, ast.Name) and node.func.id == "isinstance")
                and any(_is_int(arg) for arg in passed)
            ):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []
