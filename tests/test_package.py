"""The package holds only what it runs: code that only tests call lives in
tests/oracles.py, not under cacxray."""

import ast
from pathlib import Path

import cacxray


def test_every_public_function_is_used_by_the_package():
    # a function counts as used when some module of the package loads its
    # name, bare or as an attribute; an import or an __all__ string is no use
    package = Path(cacxray.__file__).parent
    trees = {path.relative_to(package): ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    unused = [
        f"{path}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in loaded
    ]
    assert not unused, f"public functions that no module of the package uses: {unused}"
