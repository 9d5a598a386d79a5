"""Import and local-name hygiene of the package modules, by a stdlib ``ast`` scan.

Every name a module imports must be used in it, unless the module re-exports
it (``__all__`` or the package ``__init__``), and no module imports another
module's private (underscore) names.  No function stores a local name that
it, or a function nested in it, never reads.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gfharmonic"


def import_problems(source: str, reexports_all: bool = False):
    """(unused imported names, private names imported from modules)."""
    tree = ast.parse(source)
    imports = []  # (bound name, imported name, from-module or None)
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [((a.asname or a.name).split(".")[0], a.name, None) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imports += [(a.asname or a.name, a.name, node.module or "") for a in node.names]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(bound for bound, _, _ in imports
                    if bound not in used | exported and not reexports_all)
    private = sorted(f"{module}.{name}" for _, name, module in imports
                     if module is not None and name.startswith("_"))
    return unused, private


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_or_private_imports(path):
    unused, private = import_problems(path.read_text(), path.name == "__init__.py")
    assert not unused, f"{path.name} imports unused names {unused}"
    assert not private, f"{path.name} imports private names {private}"


def test_scan_finds_unused_and_private_imports():
    source = ("import numpy as np\nimport random\n"
              "from .heisenberg import _hidden, shown\n"
              "__all__ = ['kept']\nfrom .linalg import kept\n"
              "shown(np.arange(3))\n")
    assert import_problems(source) == (["_hidden", "random"], ["heisenberg._hidden"])


def unused_locals(source: str):
    """``function.name`` for each local a function stores but never loads.

    Loads in nested functions count (closures); stores in them belong to
    the nested function.  Underscore names and global/nonlocal names are
    exempt.
    """
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loaded = {n.id for n in ast.walk(fn)
                  if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        loaded |= {name for n in ast.walk(fn)
                   if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, scopes):
                continue
            if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id not in loaded and not node.id.startswith("_")):
                found.add(f"{fn.name}.{node.id}")
            stack.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    unused = unused_locals(path.read_text())
    assert not unused, f"{path.name} stores locals it never reads: {unused}"


def test_scan_finds_unused_locals():
    source = ("def f(xs):\n"
              "    ring = 1\n    kept = 2\n    for _, item in xs:\n        pass\n"
              "    def inner():\n        shadow = kept\n        return None\n"
              "    total = 0\n    total += 1\n"
              "    return inner\n")
    assert unused_locals(source) == ["f.item", "f.ring", "f.total", "inner.shadow"]


BENCH = PACKAGE.parents[1] / "bench"
# paper objects kept as library calls, though nothing in src/ or bench/ calls them
LIBRARY_ONLY = {"fourier_transform", "conjugated_galois_group", "run_all"}


def definitions(source: str):
    """Top-level functions and classes, and the public methods of classes
    (``Class.method``), defined in a module."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return out


def mentions(source: str, patched_by_name: bool = False):
    """Every name a module loads, reads as an attribute or imports; with
    ``patched_by_name``, also the parts of dotted-name string constants
    (the benchmark tracer patches functions by such strings)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
        elif (patched_by_name and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.replace(".", "").replace("_", "").isalnum()):
            found.update(node.value.split("."))
    return found


def unreached(modules, bench_modules, allowed=frozenset()):
    """``module:name`` of each definition that no module of the package or
    the benchmark mentions (a definition does not mention itself)."""
    seen = set().union(*(mentions(src) for src in modules.values()),
                       *(mentions(src, True) for src in bench_modules))
    return sorted(f"{module}:{name}" for module, src in modules.items()
                  for name in definitions(src)
                  if name.split(".")[-1] not in seen and name not in allowed)


def test_every_definition_is_reached_from_src_or_bench():
    modules = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert not unreached(modules, bench, LIBRARY_ONLY)


def test_scan_finds_unreached_definitions():
    modules = {"a.py": ("class Kept:\n    def used(self):\n        pass\n"
                        "    def spare(self):\n        pass\n"
                        "    def _private(self):\n        pass\n"
                        "def helper():\n    return Kept().used()\n"
                        "def orphan():\n    pass\n"
                        "def traced():\n    pass\n"),
               "b.py": "from .a import helper\nhelper()\n"}
    bench = ['SPANS = (("a", "traced", "a.traced"),)\n']
    assert unreached(modules, bench) == ["a.py:Kept.spare", "a.py:orphan"]
    assert unreached(modules, bench, {"orphan"}) == ["a.py:Kept.spare"]
