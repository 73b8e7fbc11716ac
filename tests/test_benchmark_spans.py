"""The benchmark's span contract, checked without running the benchmark.

``perfbench/tracer.py`` wraps the functions that each densemble module
lists in ``__all__``, and a traced run expects a span for every name in
``perfbench/workloads.py``.  A function dropped from ``__all__`` would show
only as a failed operation of a traced benchmark pass; this test names it.
The hooks in ``perfbench/child.py`` read the arguments of the functions
they wrap by position or by name, so a reordered or renamed parameter is
named here too.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
import types
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
CHILD = WORKLOADS.with_name("child.py")
# Spans the benchmark opens itself around each CLI command, and the one
# method (Tensor.backward) that the tracer patches on the class.
NOT_MODULE_FUNCTIONS = ("cli.", "autodiff.backward")


def load_workloads() -> types.ModuleType:
    """perfbench/workloads.py loaded by path, writing no bytecode beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_expected_span_names_a_public_function():
    workloads = load_workloads()
    spans = set(workloads.COMMON_SPANS).union(
        *(w.extra_spans for w in workloads.WORKLOADS.values()))
    checked = sorted(s for s in spans if not s.startswith(NOT_MODULE_FUNCTIONS))
    assert checked
    missing = []
    for span in checked:  # <module>.<function>[.<layer>]
        short, name = span.split(".")[:2]
        module = importlib.import_module(f"densemble.{short}")
        fn = getattr(module, name, None)
        if not (name in module.__all__ and isinstance(fn, types.FunctionType)
                and fn.__module__ == module.__name__):
            missing.append(span)
    assert not missing, f"spans with no public function to wrap: {missing}"


def test_every_hook_argument_read_names_its_parameter():
    # child.py is parsed, not imported: it imports perfbench's own modules
    hooks = next(node for node in ast.parse(CHILD.read_text()).body
                 if isinstance(node, ast.FunctionDef) and node.name == "trace_hooks")
    nested = {node.name: node for node in hooks.body if isinstance(node, ast.FunctionDef)}
    table = next(node for node in hooks.body if isinstance(node, ast.Return)).value

    def arg_reads(node):  # _arg(args, kwargs, i, "name") calls, through nested helpers
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == "_arg":
                yield sub
            elif isinstance(sub, ast.Name) and sub.id in nested:
                yield from arg_reads(nested[sub.id])

    checked, wrong = set(), []
    for key, value in zip(table.keys, table.values):
        short, name = key.value.split(".")
        fn = getattr(importlib.import_module(f"densemble.{short}"), name)
        params = list(inspect.signature(fn).parameters)
        for call in arg_reads(value):
            i, expected = (arg.value for arg in call.args[2:])
            checked.add((call.lineno, call.col_offset))
            if params[i:i + 1] != [expected]:
                wrong.append(f"{key.value} argument {i}: hook reads {expected!r}, "
                             f"parameters are {params}")
    every = {(c.lineno, c.col_offset) for c in ast.walk(hooks)
             if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_arg"}
    assert every and checked == every
    assert not wrong, wrong
