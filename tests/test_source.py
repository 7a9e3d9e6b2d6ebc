"""Checks over the syntax tree of every module in ``src/citesim``.

The package depends on the standard library and numpy alone, so every
import names one of those or ``citesim`` itself.  Every imported name is
used in its module, or re-exported through ``__all__``, so a deletion
leaves no dead import behind.  No module calls numpy at import, apart from
``np.dtype``: numpy work at import grows every process's RSS, so tables and
masks are built at first use.  For the same reason a fresh
``import citesim.cli`` loads neither ``citesim.fixtures`` nor
``numpy.random``, and none of ``dataclasses``, ``queue``, ``pathlib`` or
``concurrent.futures`` beyond what numpy loads itself.  Every name in
``citesim.__all__`` resolves on the package, once, and ``from citesim
import *`` binds exactly those names.  The project's version in
``pyproject.toml`` is ``citesim.__version__``, and each of its
``[project.scripts]`` entries names a callable that imports.  Only
``matrix.py`` reads a ``SimilarityMatrix``'s ``_scores`` or ``_na`` store,
so the store's layout is that module's alone, and only
``SimilarityMatrix.__init__`` assigns to the store, one of its cells or one
of its attributes, so a matrix is made once and never written.
Only ``graph.paper_id`` raises ``paper id … out of range``, so every method
that takes a paper id reads it by one rule.

No module uses the ``@`` operator or a BLAS-backed numpy name (``dot``,
``matmul``, ``inner``, ``vdot``, ``tensordot``, ``einsum``, ``linalg``).
Every product is a gather-add in a fixed order, which keeps its bits, and
``citesim`` limits OpenBLAS to one thread on that premise.
"""
import ast
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

import citesim

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "citesim")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "citesim"}
PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(SRC)), "pyproject.toml")


def _tree(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=name)


def _imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def _import_time_nodes(node):
    """``node`` and the nodes under it that run when their module is
    imported: all but the bodies of functions and lambdas."""
    yield node
    for field, value in ast.iter_fields(node):
        if field == "body" and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield from _import_time_nodes(child)


def _root_name(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_every_module_is_checked():
    assert "__init__.py" in MODULES and "evaluate.py" in MODULES


def _fresh_python(code):
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_the_cli_never_loads_the_graph_generators():
    # every timed process starts from ``import citesim.cli``: numpy.random
    # alone would add to each one's start-up, and citesim.fixtures only
    # writes test and benchmark inputs
    code = ("import sys, citesim.cli; "
            "print('citesim.fixtures' in sys.modules, 'numpy.random' in sys.modules)")
    assert _fresh_python(code) == (0, "False False\n", "")


def test_the_cli_loads_no_standard_module_its_commands_do_without():
    # records are named tuples (dataclasses runs generated code per class),
    # the block queue is a deque, a corpus's stem comes from os.path, and
    # helpers are plain threads: numpy may load any of these itself, so only
    # what citesim adds counts
    code = ("import sys, numpy; loaded = set(sys.modules); import citesim.cli; "
            "print(sorted({'dataclasses', 'queue', 'pathlib', 'concurrent.futures'}"
            " & (set(sys.modules) - loaded)))")
    assert _fresh_python(code) == (0, "[]\n", "")


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


@pytest.mark.parametrize("name", MODULES)
def test_no_numpy_call_at_import(name):
    tree = _tree(name)
    numpy = {alias.asname or alias.name for node in _imports(tree) for alias in node.names
             if alias.name == "numpy" or getattr(node, "module", None) == "numpy"}
    allowed = {f"{alias}.dtype" for alias in numpy}
    calls = [ast.unparse(node) for stmt in tree.body for node in _import_time_nodes(stmt)
             if isinstance(node, ast.Call) and _root_name(node.func) in numpy
             and ast.unparse(node.func) not in allowed]
    assert not calls, (name, calls)


BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum", "linalg"}


@pytest.mark.parametrize("name", MODULES)
def test_no_product_calls_blas(name):
    tree = _tree(name)
    found = [(node.lineno, "@") for node in ast.walk(tree)
             if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)]
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES]
    for node in _imports(tree):
        dotted = [alias.name for alias in node.names] + [getattr(node, "module", None) or ""]
        found += [(node.lineno, part) for path in dotted for part in path.split(".")
                  if part in BLAS_NAMES]
    assert not found, (name, found)


STORE = ("_scores", "_na")


def _writes_the_store(target):
    """Whether an assignment target is a store attribute, or a subscript or
    an attribute of one (``m._scores[i]``, ``m._na.flags.writeable``)."""
    while isinstance(target, (ast.Attribute, ast.Subscript, ast.Starred)):
        if isinstance(target, ast.Attribute) and target.attr in STORE:
            return True
        target = target.value
    return False


@pytest.mark.parametrize("name", MODULES)
def test_only_the_matrix_module_reads_the_score_store(name):
    # the store's layout is matrix.py's own: every other module goes
    # through SimilarityMatrix's methods
    tree = _tree(name)
    if name != "matrix.py":
        found = [(node.lineno, node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in STORE]
        assert not found, (name, found)
    # and the store is made once: only SimilarityMatrix.__init__ assigns to it
    init = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            and cls.name == "SimilarityMatrix" for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__" for node in ast.walk(fn)}
    writes = [(node.lineno, ast.unparse(target)) for node in ast.walk(tree)
              if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and id(node) not in init
              for whole in getattr(node, "targets", [getattr(node, "target", None)])
              for target in (whole.elts if isinstance(whole, (ast.Tuple, ast.List)) else [whole])
              if _writes_the_store(target)]
    assert not writes, (name, writes)


def _raises(node, scope=()):
    """``(scope, raise)`` for every ``raise`` under ``node``, ``scope`` the
    names of the classes and functions that enclose it."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        elif isinstance(child, ast.Raise):
            yield ".".join(scope), child
        yield from _raises(child, inner)


def test_only_paper_id_raises_the_paper_id_range_message():
    # one rule for a paper id: every other range check calls graph.paper_id
    found = [(name, scope) for name in MODULES for scope, node in _raises(_tree(name))
             if re.search(r"paper id \{.*\} out of range", ast.unparse(node))]
    assert found == [("graph.py", "paper_id")]


def test_every_public_name_resolves_once():
    # a name dropped from the imports but left in __all__ would break
    # ``from citesim import *`` with nothing else noticing
    assert [name for name in citesim.__all__ if not hasattr(citesim, name)] == []
    assert len(set(citesim.__all__)) == len(citesim.__all__)
    star = {}
    exec("from citesim import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(citesim.__all__)


def test_the_package_version_is_the_project_version():
    # a regex, not tomllib, which Python 3.10 lacks
    with open(PYPROJECT, encoding="utf-8") as fh:
        project = re.search(r"^\[project\]$(.*?)^(?:\[|\Z)", fh.read(), re.M | re.S).group(1)
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [citesim.__version__]


def test_every_project_script_names_a_callable():
    # only an installed ``citesim`` command reads these entries, so a
    # renamed entry function would break nothing else
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        assert callable(EntryPoint(name, target, "console_scripts").load()), name
