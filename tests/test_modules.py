"""Module boundaries of the cogen package."""

import ast
from pathlib import Path

import cogen

PACKAGE = Path(cogen.__file__).resolve().parent


def private_imports(source: str) -> list:
    """(line, module, name) of each underscore name imported from a cogen
    module, relatively or by absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "cogen"):
            found += [(node.lineno, node.module, alias.name) for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_private_imports_are_found():
    source = ("from .corpus import load_corpus, _flatten\n"
              "from cogen.cli import _resolve\n"
              "from os import _exit\n"
              "from .tensor import Tensor\n")
    assert private_imports(source) == [(1, "corpus", "_flatten"), (2, "cogen.cli", "_resolve")]


def test_no_module_imports_another_modules_private_names():
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}
