"""Checks over the syntax tree of every module in ``src/citesim``.

The package depends on the standard library and numpy alone, so every
import names one of those or ``citesim`` itself.  Every imported name is
used in its module, or re-exported through ``__all__``, so a deletion
leaves no dead import behind.
"""
import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "citesim")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "citesim"}


def _tree(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_every_module_is_checked():
    assert "__init__.py" in MODULES and "evaluate.py" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_stdlib_numpy_or_citesim(name):
    for node in _imports(_tree(name)):
        if isinstance(node, ast.Import):
            roots = {alias.name.partition(".")[0] for alias in node.names}
        elif node.level:  # a relative import stays inside citesim
            continue
        else:
            roots = {node.module.partition(".")[0]}
        assert roots <= ALLOWED, (name, node.lineno, sorted(roots - ALLOWED))


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    tree = _tree(name)
    bound = {}
    for node in _imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = {alias: line for alias, line in bound.items() if alias not in used}
    assert not unused, (name, unused)
