"""The benchmark's traced layers still name code that exists.

``bench/trace_layers.py`` wraps every public module-level function of the
layers it lists, plus the methods in its ``METHODS`` table, and marks a run
incorrect when a reported metric reads 0.  Deleting or renaming a function it
reports on would zero that metric, so this test reads the table, without
importing or running the benchmark, and checks each name against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACE_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "trace_layers.py"


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
