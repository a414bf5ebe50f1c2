"""Package structure: modules share only public names."""

import ast
from pathlib import Path

import stanley


def test_no_module_imports_a_private_name():
    offenders = []
    for path in sorted(Path(stanley.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert offenders == []
