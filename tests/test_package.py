"""The package holds only what it runs: code that only tests call lives in
tests/oracles.py, not under cacxray, and numpy is its one dependency outside
the standard library."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cacxray

from conftest import benchmark_traced_classes


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


def test_numpy_is_the_only_dependency():
    # the modules that importing the command line loads, beyond those the
    # interpreter loaded at start-up
    code = "import sys; before = set(sys.modules); import cacxray.cli; print(*set(sys.modules) - before)"
    src = str(Path(cacxray.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = {name.partition(".")[0] for name in proc.stdout.split()}
    assert "cacxray" in loaded and "numpy" in loaded
    assert loaded - sys.stdlib_module_names <= {"cacxray", "numpy"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=1.24"]


def test_every_class_the_benchmark_traces_does_its_own_work():
    # perfbench times a layer or entry class by wrapping the forward and
    # backward in its own __dict__, so each name it lists must stay a class
    # of the model that defines both
    from cacxray.model import layers, network

    lists = benchmark_traced_classes()
    assert set(lists) == {"LAYER_CLASSES", "ENTRY_CLASSES"}
    for key, module in (("LAYER_CLASSES", layers), ("ENTRY_CLASSES", network)):
        assert lists[key]
        for name in lists[key]:
            cls = getattr(module, name, None)
            assert isinstance(cls, type), f"{key} names {name}, which is no class of {module.__name__}"
            missing = [method for method in ("forward", "backward") if method not in vars(cls)]
            assert not missing, f"{module.__name__}.{name} does not define {missing} itself"
