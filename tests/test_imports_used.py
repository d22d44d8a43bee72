"""Every name a module of src/approxcat/, tests/ or tools/ imports is used
in that module: an import left behind by a refactor is a dependency nobody
needs."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "approxcat"
# package modules keep their bare file names as ids; the others carry their folder
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for folder in ("tests", "tools") for p in (ROOT / folder).glob("*.py")
)


def _annotation_names(node) -> set:
    """Names inside a string annotation such as "Evidence"."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return set()
        return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """The names bound by import statements in source that no other
    expression of source reads, in the order they are imported."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent == PACKAGE else p.relative_to(ROOT).as_posix(),
)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = (
        "import json\nimport os.path\nfrom . import rep\nfrom .rep import Rep, cokernel as ck\n"
        "def f(x: \"Rep\") -> int:\n    return json.dumps(ck(x))\n"
    )
    assert unused_imports(source) == ["os", "rep"]
