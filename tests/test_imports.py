"""Source-tree rules checked by reading the code itself.

[TRIVIAL] oracles: each rule is a definition over the import
statements and calls of `src/regionir` and `tests`.
"""

import ast
import os

import regionir

SRC = os.path.dirname(regionir.__file__)
TESTS = os.path.dirname(__file__)


def _modules(top):
    for root, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def _private_imports(top, accept):
    """`file:line name` for every leading-underscore name imported by a
    module under `top` from a module `accept(node)` selects."""
    found = []
    for path in _modules(top):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and accept(node):
                found += ["%s:%d %s" % (os.path.relpath(path, top),
                                        node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    return found


def test_no_private_names_imported_across_modules():
    """[TRIVIAL] No module imports a leading-underscore name from
    another: a name shared between modules is public."""
    assert _private_imports(SRC, lambda node: True) == []


def test_tests_import_no_private_names():
    """[TRIVIAL] Tests reach the program through its public names."""
    def from_regionir(node):
        return (node.module or "").split(".")[0] == "regionir"
    assert _private_imports(TESTS, from_regionir) == []


def _type_constructions(top):
    """`file:line` for every call `Ty(...)` in a module under `top`
    other than `types.py`."""
    found = []
    for path in _modules(top):
        if os.path.relpath(path, top) == "types.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name == "Ty":
                    found.append("%s:%d" % (os.path.relpath(path, top),
                                            node.lineno))
    return found


def test_only_types_constructs_a_type():
    """[TRIVIAL] Types are interned in `types.py`; a `Ty(...)` call
    anywhere else would make a second object for a type, and identity
    compares would then tell equal types apart."""
    assert _type_constructions(SRC) == []
