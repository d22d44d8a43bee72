"""The package promises no runtime dependency: every absolute import in
src/approxcat/ must name a standard-library module."""

import ast
import pathlib
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "approxcat"


def foreign_imports(source: str) -> list:
    """Top-level names of the absolute imports in source that are not in
    the standard library; relative imports stay inside the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


def test_a_third_party_import_is_caught():
    source = "import json\nfrom . import rep\nimport numpy as np\nfrom sympy.core import S\n"
    assert foreign_imports(source) == ["numpy", "sympy.core"]
