"""Source-tree rules checked by reading the code itself.

[TRIVIAL] oracles: each rule is a definition over the import
statements of `src/regionir`.
"""

import ast
import os

import regionir

SRC = os.path.dirname(regionir.__file__)


def _modules():
    for root, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(root, name)


def test_no_private_names_imported_across_modules():
    """[TRIVIAL] No module imports a leading-underscore name from
    another: a name shared between modules is public."""
    found = []
    for path in _modules():
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += ["%s:%d %s" % (os.path.relpath(path, SRC),
                                        node.lineno, alias.name)
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
