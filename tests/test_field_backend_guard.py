"""The Q / F_p split lives in the field backends of ``ringlab.linalg``.

These checks keep it there.  Every choice that depends on the field (how to
close an ideal, whether elements can be enumerated and how many there are,
how to draw a random element, how to recognize a field, how to print a
vector, decide whether a span has a stable subspace and walk its lines)
is a backend method, so no caller branches on the field.  No module reads
or sets a ``modulus``: the prime of F_p is the backend's ``p``, and a
ring's or a span's size is its ``size()``, which asks the backend.  Only
``linalg`` reads that ``p`` or names an F_p kernel (a ``*_modp``
function): every other module asks a backend method.  Only ``linalg``,
whose backends are the fields themselves, imports ``fractions``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringlab"

FRACTIONS_IMPORTERS = {"linalg.py"}


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    for path in paths:
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _modulus_uses(tree):
    """Lines that read or set an attribute ``modulus``, or bind the name
    ``modulus`` in a class body (a class attribute)."""
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "modulus"]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            found += [stmt.lineno for stmt in cls.body
                      if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                      and any(isinstance(t, ast.Name) and t.id == "modulus"
                              for t in (stmt.targets if isinstance(stmt, ast.Assign)
                                        else [stmt.target]))]
    return sorted(found)


def test_no_module_reads_or_sets_modulus():
    uses = [f"{name}:{line}" for name, tree in _modules() for line in _modulus_uses(tree)]
    assert not uses, "modulus outside the field backend: " + ", ".join(uses)


def test_fractions_imported_only_where_rationals_are_handled():
    importers = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions") or (
                    isinstance(node, ast.Import)
                    and any(a.name == "fractions" for a in node.names)):
                importers.add(name)
    assert importers == FRACTIONS_IMPORTERS, sorted(importers ^ FRACTIONS_IMPORTERS)


def _modp_uses(tree):
    """Lines that read an attribute ``p`` or name a ``*_modp`` function:
    as an attribute, a name, or an imported name."""
    found = []
    for node in ast.walk(tree):
        names = ([node.attr] if isinstance(node, ast.Attribute)
                 else [node.id] if isinstance(node, ast.Name)
                 else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                 else [])
        if any(n.endswith("_modp") for n in names) or (
                isinstance(node, ast.Attribute) and node.attr == "p"):
            found.append(node.lineno)
    return sorted(set(found))


def test_only_linalg_runs_the_fp_kernels_or_reads_p():
    uses = [f"{name}:{line}" for name, tree in _modules() if name != "linalg.py"
            for line in _modp_uses(tree)]
    assert not uses, "F_p kernel or prime outside the field backend: " + ", ".join(uses)
