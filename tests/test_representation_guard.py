"""A ring's representation is read from the ring, in as few places as it can.

``TableRing`` and ``StructureAlgebra`` answer ``is_table`` / ``is_algebra``
(``rings.py``).  Every other read of those flags is a branch on the
representation, and each branch is a place that a third representation, or
a change to one of the two, has to visit.  ``READS`` pins how many each
module makes; ``subgroups.span_class`` is the one span-level read, and
``ideals.py`` makes none and reads no representation at all.  A map's
operator is an index array or a matrix by its source ring, which answers
every question about it, so ``crossed.py`` reads the flags only in the
product's layout (``embed`` and ``block_operator``) and its builder
dispatch, ``recipes.py`` only where it checks outside input, and
``doubling.py`` and ``ore.py`` not at all; no module names the ``perm`` of
an index map.  A count may only fall: when a change removes a branch, it
lowers the module's count here in the same change, and a module that no
longer reads the flags drops out of the list, so a stale entry fails.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringlab"

FLAGS = {"is_table", "is_algebra"}

# module -> reads of is_table / is_algebra
READS = {
    "constructions/crossed.py": 3,
    "gradings.py": 3,
    "recipes.py": 3,
    "reports.py": 4,
    "subgroups.py": 1,
}

# what the ideal layer may not read or name: ``ideals.py`` quantifies over
# ideals through the span and ring methods, so a representation it branched
# on again (even renamed into an ``isinstance`` test) fails here
REPRESENTATION = FLAGS | {"mul_table", "add_table", "neg_table", "zero_index",
                          "members", "rows", "pivots", "constants"}
CLASSES = {"TableRing", "StructureAlgebra", "TableSubgroup", "Subspace"}


def _reads():
    counts = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name == "rings.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        n = sum(isinstance(node, ast.Attribute) and node.attr in FLAGS
                for node in ast.walk(tree))
        if n:
            counts[name] = n
    return counts


def test_representation_branches_are_pinned_per_module():
    counts = _reads()
    assert counts, f"no reads of {sorted(FLAGS)} under {SRC}"
    grown = {m: (READS.get(m, 0), n) for m, n in counts.items() if n > READS.get(m, 0)}
    assert not grown, f"representation branches added (pinned, found): {grown}"
    fallen = {m: (n, counts.get(m, 0)) for m, n in READS.items() if counts.get(m, 0) < n}
    assert not fallen, f"lower these pins (pinned, found): {fallen}"


def test_the_ideal_layer_reads_no_representation():
    tree = ast.parse((SRC / "ideals.py").read_text())
    reads = sorted({node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in REPRESENTATION})
    names = sorted({node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and node.id in CLASSES}
                   | {alias.name for node in ast.walk(tree)
                      if isinstance(node, (ast.Import, ast.ImportFrom))
                      for alias in node.names if alias.name in CLASSES})
    assert not reads, f"ideals.py reads the representation: {reads}"
    assert not names, f"ideals.py names a representation's class: {names}"


def test_no_module_reads_an_index_maps_perm():
    reads = [f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "perm"]
    assert not reads, f"reads of .perm: {reads}"
