"""The Q / F_p split lives in the field backends of ``ringlab.linalg``.

These checks keep it there.  Every choice that depends on the field (how to
close an ideal, whether elements can be enumerated, how to draw a random
element, how to recognize a field, how to print a vector) is a backend
method, so no caller branches on the field.  A ``modulus is None`` /
``is not None`` test may appear only in the three functions listed below,
where it asks about the field itself: is it finite, is a Q-only argument
available, is an F_p-only decision asked for.  Only ``linalg``, whose
backends are the fields themselves, imports ``fractions``.

Each allow-list entry must still occur, so the lists only shrink with the
code.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringlab"

# (file, enclosing function) -> why the test is about the field itself
MODULUS_TESTS = {
    ("rings.py", "StructureAlgebra.size"): "finite: p^dim elements",
    ("certify.py", "_sigma_simple_premise"): "Q product-of-fields argument",
    ("certify.py", "simple_by_density"): "F_p-only decision",
}

FRACTIONS_IMPORTERS = {"linalg.py"}


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    for path in paths:
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _is_modulus_test(node):
    return (isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Attribute) and node.left.attr == "modulus"
            and all(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
            and all(isinstance(c, ast.Constant) and c.value is None
                    for c in node.comparators))


def _modulus_tests(tree):
    """(enclosing qualified name, line) of every modulus-is-None test."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif _is_modulus_test(child):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, [])
    return found


def test_modulus_tests_stay_on_the_allow_list():
    stray, seen = [], {}
    for name, tree in _modules():
        for func, line in _modulus_tests(tree):
            key = (name, func)
            seen[key] = seen.get(key, 0) + 1
            if key not in MODULUS_TESTS:
                stray.append(f"{name}:{line} in {func or '<module>'}")
    assert not stray, "field fork outside linalg: " + ", ".join(stray)
    assert all(n == 1 for n in seen.values()), seen
    assert set(seen) == set(MODULUS_TESTS), sorted(set(MODULUS_TESTS) - set(seen))


def test_fractions_imported_only_where_rationals_are_handled():
    importers = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions") or (
                    isinstance(node, ast.Import)
                    and any(a.name == "fractions" for a in node.names)):
                importers.add(name)
    assert importers == FRACTIONS_IMPORTERS, sorted(importers ^ FRACTIONS_IMPORTERS)
