"""The benchmark's traced layers still name code that exists.

``bench/trace_layers.py`` wraps every public module-level function of the
layers it lists, plus the methods in its ``METHODS`` table, and marks a run
incorrect when a reported metric reads 0.  Deleting or renaming a function it
reports on would zero that metric, and so would a function that still exists
but that nothing calls any more.  So this test reads the table, without
importing or running the benchmark, checks each name against the package,
and checks in the package's syntax trees that each named function is called
outside its own body.

The same walk of the syntax trees keeps test-only code out of the package:
every function, class and method defined there must be referred to by name
somewhere in the package outside its own body, and a method or property
only through an attribute access (``obj.name``), so that a local variable or
parameter of the same name does not count.  Reference code that only tests
need lives in ``tests/support.py``.
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


def _walk() -> tuple[dict, dict, dict, list]:
    """One pass over the package's syntax trees.

    Returns the names it calls, as a bare name or an attribute, the names it
    loads, calls included, and the names it loads as an attribute, each with
    (module, enclosing definitions) per site; and every function, class and
    method it defines, as (module, path, whether a class body defines it).
    """
    calls, loads, attributes, definitions = defaultdict(list), defaultdict(list), defaultdict(list), []

    def visit(node, module: str, scope: tuple, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name:
                    calls[name].append((module, scope))
            elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                loads[child.id].append((module, scope))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                loads[child.attr].append((module, scope))
                attributes[child.attr].append((module, scope))
            if isinstance(child, _DEFINITIONS):
                definitions.append((module, scope + (child.name,), in_class))
                visit(child, module, scope + (child.name,), isinstance(child, ast.ClassDef))
            else:
                visit(child, module, scope, in_class)

    for path in sorted((ROOT / "src" / "dircover").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, (), False)
    return calls, loads, attributes, definitions


CALL_SITES, LOAD_SITES, ATTRIBUTE_SITES, DEFINED = _walk()


def _outside(sites: list, layer: str, own: tuple) -> list:
    """The sites that are not in the body of the definition ``own`` of module ``layer``."""
    return [(module, scope) for module, scope in sites if not (module == layer and scope[: len(own)] == own)]


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
        callers = _outside(CALL_SITES[own[-1]], layer, own)
        assert callers, f"{key}: nothing in src/dircover calls {layer}.{'.'.join(own)}, so the metric would read 0"


def test_every_definition_is_referenced():
    # src/ holds no test-only code.  Matched by name, as above, but a load counts
    # as well as a call: the cmd_* functions and the check suites are only named.
    # A method or property counts only as an attribute: a local of its name is no use of it.
    unreferenced = [
        f"{layer}.{'.'.join(own)}"
        for layer, own, method in DEFINED
        if not (own[-1].startswith("__") and own[-1].endswith("__"))
        and not _outside((ATTRIBUTE_SITES if method else LOAD_SITES)[own[-1]], layer, own)
    ]
    assert not unreferenced, f"nothing in src/dircover refers to {', '.join(unreferenced)}"
