"""The package's public names."""

import ast
from pathlib import Path

import sigblock

PACKAGE = Path(sigblock.__file__).parent


def test_every_export_resolves():
    missing = [name for name in sigblock.__all__ if not hasattr(sigblock, name)]
    assert missing == []


def test_star_import():
    namespace: dict = {}
    exec("from sigblock import *", namespace)
    assert set(sigblock.__all__) <= set(namespace)


def _autodiff_calls(tree: ast.Module) -> set[str]:
    """Names of the ``sigblock.autodiff`` functions a module calls, through
    a module alias (``from . import autodiff as ad``; ``ad.op(...)``) or an
    imported name (``from .autodiff import op``; ``op(...)``)."""
    modules: set[str] = set()
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                if source in ("", "sigblock") and alias.name == "autodiff":
                    modules.add(local)
                elif source in ("autodiff", "sigblock.autodiff"):
                    names[local] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "sigblock.autodiff" and alias.asname:
                    modules.add(alias.asname)
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in modules:
                called.add(func.attr)
        elif isinstance(func, ast.Name) and func.id in names:
            called.add(names[func.id])
    return called


def test_every_autodiff_function_has_a_caller_in_the_package():
    """No autodiff op that nothing calls: each public function of
    ``sigblock.autodiff`` is called from another module of the package."""
    tree = ast.parse((PACKAGE / "autodiff.py").read_text(encoding="utf-8"))
    public = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    called: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "autodiff.py":
            called |= _autodiff_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(public - called) == []
