"""The names the benchmark reaches into must exist where it looks for them.

``bench/tracer.py`` wraps the functions and methods in its SPANS and
COUNTERS tables by name, and ``bench/worker.py`` imports program names and
calls kernel methods in its micro-runs.  A renamed or moved name would
break only traced runs, so each is resolved here the way the benchmark
resolves it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # standard library imports only
    return module


TRACER = _load_tracer()

# methods the micro-runs call on objects rather than on imported names
MICRO_METHODS = (
    ("cyclo", "CycloRing.scalar"),
    ("cyclo", "CycloRing.sum_of_roots"),
    ("cyclo", "CycloScalar.__mul__"),
    ("cyclo", "CycloScalar.times_root"),
    ("cyclo", "ScalarAccumulator.add"),
    ("cyclo", "ScalarAccumulator.add_product"),
    ("linalg", "OperatorMatrix.__matmul__"),
)


def _resolve(module_name, attr):
    # as Tracer.install: a class attribute from the class's own __dict__,
    # a module attribute otherwise
    module = importlib.import_module(f"gfharmonic.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name).__dict__[meth]
    return getattr(module, attr)


@pytest.mark.parametrize("module_name,attr,name", TRACER.SPANS + TRACER.COUNTERS)
def test_tracer_hook_resolves(module_name, attr, name):
    assert callable(_resolve(module_name, attr)), name


@pytest.mark.parametrize("module_name,attr", MICRO_METHODS)
def test_micro_run_method_resolves(module_name, attr):
    assert callable(_resolve(module_name, attr))


def _worker_imports():
    """(module, name) of every ``from gfharmonic... import name`` in the
    worker, and (module, attribute) of every attribute it reads off a
    gfharmonic module imported that way."""
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    names, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gfharmonic"):
            for alias in node.names:
                names.append((node.module, alias.name))
                if node.module == "gfharmonic":
                    modules[alias.asname or alias.name] = f"gfharmonic.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.append((modules[node.value.id], node.attr))
    return sorted(set(names))


WORKER_NAMES = _worker_imports()


def test_worker_imports_were_found():
    modules = {module for module, _ in WORKER_NAMES}
    assert {"gfharmonic", "gfharmonic.cyclo", "gfharmonic.heisenberg"} <= modules


@pytest.mark.parametrize("module_name,name", WORKER_NAMES)
def test_worker_name_resolves(module_name, name):
    if not hasattr(importlib.import_module(module_name), name):
        importlib.import_module(f"{module_name}.{name}")  # raises unless a submodule
