"""F2 storage stays inside approxcat.matrix: no other module of
src/approxcat/ reads a matrix's stored entries (the slot _e, bit rows over
F2) or compares a field's modulus with 2. They read entries through
Matrix.flat() and identity through Matrix.key(), so the bit layout can
change without touching them."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "approxcat"
OUTSIDE = sorted(p for p in PACKAGE.glob("*.py") if p.name != "matrix.py")


def _is_two(node) -> bool:
    """2, or a literal tuple, list or set holding 2 (F.modulus in (2, 3))."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_two(e) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value == 2


def _reads_modulus(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "modulus" for n in ast.walk(node))


def f2_knowledge(source: str) -> list:
    """(line, what) for each read of ._e and each comparison of a modulus
    with 2 in source. A modulus is a .modulus attribute, or a name once
    assigned from an expression that reads one (p = F.modulus)."""
    tree = ast.parse(source)
    moduli = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _reads_modulus(node.value):
            for target in node.targets:
                moduli |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_e":
            found.append((node.lineno, "._e"))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(_is_two(o) for o in operands) and any(
                    _reads_modulus(o) or isinstance(o, ast.Name) and o.id in moduli
                    for o in operands):
                found.append((node.lineno, "modulus vs 2"))
    return sorted(found)


@pytest.mark.parametrize("path", OUTSIDE, ids=lambda p: p.name)
def test_no_module_but_matrix_knows_the_f2_layout(path):
    assert f2_knowledge(path.read_text()) == []


def test_f2_knowledge_is_caught():
    source = (
        "def f(m, F):\n    p = F.modulus\n    if p == 2:\n        return m._e\n"
        "    return 2 != m.field.modulus or F.modulus in (2, 3)\n"
        "def g(n):\n    return n == 2\n"
    )
    assert f2_knowledge(source) == [
        (3, "modulus vs 2"), (4, "._e"), (5, "modulus vs 2"), (5, "modulus vs 2")]


def test_matrix_holds_the_f2_layout():
    found = f2_knowledge((PACKAGE / "matrix.py").read_text())
    assert {what for _, what in found} == {"._e", "modulus vs 2"}
