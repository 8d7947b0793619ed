"""A ring's representation is read from the ring, in as few places as it can.

``TableRing`` and ``StructureAlgebra`` answer ``is_table`` / ``is_algebra``
(``rings.py``).  Every other read of those flags is a branch on the
representation, and each branch is a place that a third representation, or
a change to one of the two, has to visit.  ``READS`` pins how many each
module makes.  A count may only fall: when a change removes a branch, it
lowers the module's count here in the same change, and a module that no
longer reads the flags drops out of the list, so a stale entry fails.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringlab"

FLAGS = {"is_table", "is_algebra"}

# module -> reads of is_table / is_algebra
READS = {
    "constructions/crossed.py": 9,
    "constructions/doubling.py": 1,
    "gradings.py": 4,
    "ideals.py": 11,
    "ore.py": 1,
    "recipes.py": 5,
    "reports.py": 4,
    "subgroups.py": 4,
}


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
