"""What decided a verdict is written only where the decision is made.

``linalg.Verdict.decided_by`` (re-exported by ``ideals``) names the oracle
that decided a question.  ``Verdict`` is the one result type of a decided
question, so it is the only class that declares a ``decided_by`` field.
Only the decision sites below write it: an assignment to a ``decided_by``
attribute, a ``setattr`` with that name, a ``decided_by=`` keyword whose
value is not another value's ``decided_by`` handed on, and any string
constant that names an oracle (so a positional argument counts too) are
writes.  Each site writes exactly the oracles listed for it.

Each allow-list entry must still occur, so the list only shrinks with the
code.
"""

import ast

from test_certificate_guard import _check_allow_list, _find, _modules

# (file, enclosing function) -> the oracles it decides by
DECISION_SITES = {
    ("linalg.py", "irreducible_modp"): {"norton"},
    ("linalg.py", "Rational.irreducible"): {"reduction-mod-q"},
    ("ideals.py", "_line_closures"): {"norton-past-cap", "line-walk"},
    ("ideals.py", "_is_simple_uncached"): {"products-vanish", "line-walk", "norton-past-cap",
                                           "witness-search"},
}

ORACLES = set().union(*DECISION_SITES.values())


def _hands_on(value):
    """Is ``value`` another value's ``decided_by``, read and passed on?"""
    return isinstance(value, ast.Attribute) and value.attr == "decided_by"


def _writes_decided_by(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and t.attr == "decided_by"
                   for target in targets for t in ast.walk(target))
    if isinstance(node, ast.keyword):
        return node.arg == "decided_by" and not _hands_on(node.value)
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == "decided_by")
    return isinstance(node, ast.Constant) and node.value in ORACLES


def test_only_the_decision_sites_write_decided_by():
    _check_allow_list(_writes_decided_by, DECISION_SITES, "decided_by write")


def test_each_decision_site_writes_its_own_oracles():
    written = {}
    for name, tree in _modules():
        for oracle in ORACLES:
            found = _find(tree, lambda n: isinstance(n, ast.Constant) and n.value == oracle)
            for func, _ in found:
                written.setdefault((name, func), set()).add(oracle)
    assert written == DECISION_SITES


def test_only_verdict_declares_decided_by():
    declared = set()
    for name, tree in _modules():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                if any(isinstance(t, ast.Name) and t.id == "decided_by" for t in targets):
                    declared.add((name, cls.name))
    assert declared == {("linalg.py", "Verdict")}
