"""Every name the traced benchmark wraps still exists in citesim.

`perfbench/spans.py` looks its WRAPPED functions and its STEPPED generator
up by name when a `--trace 1` run installs the tracer.  A renamed or
deleted function would surface only in such a run, so this reads both
tables from the file (without importing it or installing the tracer) and
resolves every name here.
"""
import ast
import importlib
import inspect
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def traced_names():
    with open(os.path.join(ROOT, "perfbench", "spans.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    tables = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("WRAPPED", "STEPPED"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables["WRAPPED"], tables["STEPPED"]


def resolve(short, dotted):
    obj = importlib.import_module(f"citesim.{short}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_wrapped_names_resolve_in_citesim():
    wrapped, _ = traced_names()
    names = [(short, attr) for short, attrs in wrapped.items() for attr in attrs]
    assert names
    for short, attr in names:
        assert callable(resolve(short, attr)), (short, attr)


def test_stepped_name_is_a_generator_function():
    _, (short, attr) = traced_names()
    assert inspect.isgeneratorfunction(resolve(short, attr)), (short, attr)
