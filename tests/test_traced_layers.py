"""The benchmark's traced layers still name code that exists.

``bench/trace_layers.py`` wraps every public module-level function of the
layers it lists, plus the methods in its ``METHODS`` table, and marks a run
incorrect when a reported metric reads 0.  Deleting or renaming a function it
reports on would zero that metric, and so would a function that still exists
but that nothing calls any more.  So this test reads the table, without
importing or running the benchmark, checks each name against the package,
and checks in the package's syntax trees that each named function is called
outside its own body.
"""

import ast
import importlib
import inspect
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACE_LAYERS = ROOT / "bench" / "trace_layers.py"


def _constants(*names: str) -> dict:
    tree = ast.parse(TRACE_LAYERS.read_text(encoding="utf-8"))
    found = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
    }
    return {name: found[name] for name in names}


TABLES = _constants("REPORTED", "MODULES", "METHODS")
TRACED = [key for key, _ in TABLES["REPORTED"] if key.endswith((".calls", ".self_s"))]


def test_the_table_reports_traced_layers():
    assert TRACED, f"no .calls or .self_s metric found in {TRACE_LAYERS}"


@pytest.mark.parametrize("key", TRACED)
def test_traced_metric_names_existing_code(key):
    name = key.rsplit(".", 1)[0]
    methods = [entry for entry in TABLES["METHODS"] if entry[3] == name]
    for layer, cls_name, attr, _, _ in methods:
        cls = getattr(importlib.import_module(f"dircover.{layer}"), cls_name)
        assert attr in cls.__dict__, f"{key}: {cls_name}.{attr} is gone"
    if methods:
        return
    layer, attr = name.split(".")
    assert layer in TABLES["MODULES"], f"{key}: layer {layer} is not traced"
    mod = importlib.import_module(f"dircover.{layer}")
    fn = vars(mod).get(attr)
    assert not attr.startswith("_") and inspect.isfunction(fn), f"{key}: dircover.{name} is no public function"
    assert fn.__module__ == mod.__name__, f"{key}: dircover.{name} is defined in {fn.__module__}"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _call_sites() -> dict:
    """Each name the package calls, as a bare name or an attribute: (module, enclosing definitions) per call."""
    sites = defaultdict(list)

    def visit(node, module: str, scope: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name:
                    sites[name].append((module, scope))
            visit(child, module, scope + (child.name,) if isinstance(child, _DEFINITIONS) else scope)

    for path in sorted((ROOT / "src" / "dircover").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return sites


CALL_SITES = _call_sites()


@pytest.mark.parametrize("key", TRACED)
def test_traced_metric_names_called_code(key):
    # Matched by name: an import is no call, a call inside the function's own body
    # (recursion) does not count, and dunder methods are called by operators.
    name = key.rsplit(".", 1)[0]
    targets = [(layer, (cls_name, attr)) for layer, cls_name, attr, metric, _ in TABLES["METHODS"] if metric == name]
    if not targets:
        layer, attr = name.split(".")
        targets = [(layer, (attr,))]
    for layer, own in targets:
        if own[-1].startswith("__"):
            continue
        callers = [
            (module, scope)
            for module, scope in CALL_SITES[own[-1]]
            if not (module == layer and scope[: len(own)] == own)
        ]
        assert callers, f"{key}: nothing in src/dircover calls {layer}.{'.'.join(own)}, so the metric would read 0"
