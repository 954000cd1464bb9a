"""Every name a privdet module imports is used in that module, and every
function, class and method it defines is named somewhere outside its own
definition."""

import ast
import collections
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "privdet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def names_read(tree) -> collections.Counter:
    """How often each identifier appears in the tree, also inside string annotations."""
    read = collections.Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(n.id for n in ast.walk(ast.parse(ann.value)) if isinstance(n, ast.Name))
    return read


def unused_imports(source: str) -> list:
    """Names bound by the module's imports that nothing in the module reads.

    A name counts as read when it appears as an identifier anywhere in the
    tree, or inside a string annotation.  ``from __future__`` imports are
    directives, not bindings.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = names_read(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)


def _named(tree) -> collections.Counter:
    """Identifiers the tree names, as plain names or as attributes."""
    attrs = (node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))
    return names_read(tree) + collections.Counter(attrs)


def _definitions(tree):
    """The module-level functions and classes, and the non-dunder methods of the classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def unnamed_definitions(modules: dict, readers: list, exported: set) -> list:
    """Definitions in ``modules`` (name -> source) that nothing names outside their own def.

    Names are counted over ``modules`` and the extra ``readers`` sources; a
    name in ``exported`` counts as used.
    """
    trees = {name: ast.parse(src) for name, src in modules.items()}
    named = collections.Counter()
    for tree in [*trees.values(), *(ast.parse(src) for src in readers)]:
        named += _named(tree)
    return sorted(
        f"{module}: {node.name} (line {node.lineno})"
        for module, tree in trees.items()
        for node in _definitions(tree)
        if node.name not in exported and named[node.name] == _named(node)[node.name]
    )


def _exports() -> set:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def test_the_scan_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\n\ndef f() -> 'Path':\n    return path.join(sep)\n"
    assert unused_imports(source) == ["math (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unnamed_definition():
    source = (
        "def dead(n):\n    return dead(n - 1)\n\n"
        "def shown():\n    return Box().used()\n\n"
        "class Box:\n    def used(self):\n        return self.unused\n\n"
        "    def unused(self):\n        return 0\n\n"
        "    def __len__(self):\n        return 0\n"
    )
    dead = ["m: dead (line 1)", "m: shown (line 4)"]
    assert unnamed_definitions({"m": source}, [], set()) == dead
    assert unnamed_definitions({"m": source}, ["shown()"], {"dead"}) == []


def test_every_definition_is_named_somewhere():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in BENCH]
    assert unnamed_definitions(modules, readers, _exports()) == []
