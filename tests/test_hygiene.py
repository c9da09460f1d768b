"""Source hygiene: no imported-but-unused names, no dangling exports, no
dead private code.

No linter ships with the project, so these checks stand in for the rules
that matter most here: every import in ``src/eucbv`` is read somewhere in its
module (a package ``__init__`` may instead re-export it through
``__all__``), every name a package exports actually resolves, and every
private function, class or method is referenced somewhere in ``src/eucbv``.
Two guards keep the random streams written once: the test oracle's scalar
stream imports nothing from ``eucbv.rng``, and one method of ``rng.py``
advances the stream counters.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "eucbv"
MODULES = sorted(SRC.rglob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """Name bound by each import statement -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    """String entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str)}
    return set()


def _read(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _private_definitions(tree: ast.Module) -> dict:
    """Private (single-underscore, not dunder) module-level functions and
    classes, and private methods of module-level classes -> their line."""
    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = {}
    for node in tree.body:
        if isinstance(node, defs) and private(node.name):
            found[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and private(item.name):
                    found[f"{node.name}.{item.name}"] = item.lineno
    return found


def _referenced(tree: ast.Module) -> set:
    """Every name or attribute a module reads, writes or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_sources_found():
    assert SRC / "__init__.py" in MODULES
    assert SRC / "policies" / "eucbv.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _read(tree) | _exported(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{path.relative_to(SRC)} imports but never uses: {', '.join(unused)}"


@pytest.mark.parametrize("module_name", ["eucbv", "eucbv.policies"])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    assert len(set(module.__all__)) == len(module.__all__), "duplicate __all__ entry"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def test_no_unreferenced_private_definitions():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in MODULES}
    referenced = set().union(*(_referenced(tree) for tree in trees.values()))
    dead = sorted(f"{path.relative_to(SRC)}: {name} (line {line})"
                  for path, tree in trees.items()
                  for name, line in _private_definitions(tree).items()
                  if name.rpartition(".")[2] not in referenced)
    assert not dead, f"private definitions nothing in src/eucbv references: {dead}"



def test_stream_oracle_imports_nothing_from_rng():
    # The scalar stream reference must share no code with the library's
    # streams, or a finalizer bug would cancel out of both sides of a test.
    path = Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    shared = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            shared += [a.name for a in node.names if a.name.startswith("eucbv.rng")]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eucbv"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                origin = (value.__name__ if inspect.ismodule(value)
                          else getattr(value, "__module__", None))
                if "eucbv.rng" in (node.module, origin):
                    shared.append(f"{node.module}.{alias.name}")
    assert not shared, f"oracles.py imports from eucbv.rng: {shared}"


def test_one_method_advances_stream_counters():
    # Only StreamBatch.__init__ and the point method _bases assign to
    # ``counters``, so one piece of code counts every draw.
    path = SRC / "rng.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def writes_counters(target):
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, (ast.Tuple, ast.List)):
            return any(map(writes_counters, target.elts))
        return isinstance(target, ast.Attribute) and target.attr == "counters"

    functions = [(node.name, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [(f"{node.name}.{item.name}", item) for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  for item in node.body if isinstance(item, ast.FunctionDef)]
    writers = set()
    for name, function in functions:
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            if any(map(writes_counters, targets)):
                writers.add(name)
    assert writers == {"StreamBatch.__init__", "StreamBatch._bases"}, \
        f"functions of rng.py that assign to counters: {sorted(writers)}"
