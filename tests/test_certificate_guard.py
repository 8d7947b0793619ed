"""Certificates have one producer, and their oracle fields one writer.

``certify.certify_built`` maps a built object to its certificates, and every
certificate is a ``certify.Certificate``, so no other module constructs one
or writes a dict that looks like one (a dict literal with an "oracle" key).
``certify._oracle_cross_check`` is the one writer of a simplicity
certificate's ``oracle`` and ``oracle_detail``: a pipeline hands it its
evidence and sets neither.  ``certify_necessity`` sets its own, from
A-simplicity on the same lattice.  An assignment to either attribute, a
keyword argument of either name and a ``setattr`` with either name all count
as writes.

A premise holds a tri-state ``holds``, and ``certify.Premise.status`` alone
turns it into the words "verified", "failed" and "assumed": no other code in
the package spells them, and no module decides anything by comparing a
``.status`` with one of them.

Each allow-list entry must still occur, so the lists only shrink with the
code.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringlab"

ORACLE_FIELDS = {"oracle", "oracle_detail"}

# (file, enclosing function) -> why it writes the oracle fields
ORACLE_WRITERS = {
    ("certify.py", "_oracle_cross_check"): "the oracle rule of every simplicity certificate",
    ("certify.py", "certify_necessity"): "A-simplicity on the same lattice",
}

# (file, enclosing function) -> why it writes a dict with an "oracle" key
CERTIFICATE_DICTS = {
    ("certify.py", "Certificate.to_json"): "the JSON form of a certificate",
}

CERTIFICATE_MODULES = {"certify.py"}

PREMISE_WORDS = {"verified", "failed", "assumed"}

# (file, enclosing function) -> why it spells a premise status word
PREMISE_WORD_SPELLERS = {
    ("certify.py", "Premise.status"): "the report's word for a premise's holds",
}


def _modules():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    for path in paths:
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text(), str(path))


def _writes_oracle(node):
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(isinstance(t, ast.Attribute) and t.attr in ORACLE_FIELDS
                   for target in targets for t in ast.walk(target))
    if isinstance(node, ast.keyword):
        return node.arg in ORACLE_FIELDS
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant) and node.args[1].value in ORACLE_FIELDS)


def _has_oracle_key(node):
    return isinstance(node, ast.Dict) and any(
        isinstance(k, ast.Constant) and k.value == "oracle" for k in node.keys)


def _builds_certificate(node):
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "Certificate")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "Certificate"))


def _is_premise_word(node):
    return isinstance(node, ast.Constant) and node.value in PREMISE_WORDS


def _compares_status_with_premise_word(node):
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    return (any(isinstance(o, ast.Attribute) and o.attr == "status" for o in operands)
            and any(_is_premise_word(n) for o in operands for n in ast.walk(o)))


def _find(tree, predicate):
    """(enclosing qualified name, line) of every node the predicate holds for."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif predicate(child):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, [])
    return found


def _check_allow_list(predicate, allowed, what):
    stray, seen = [], set()
    for name, tree in _modules():
        for func, line in _find(tree, predicate):
            if (name, func) in allowed:
                seen.add((name, func))
            else:
                stray.append(f"{name}:{line} in {func or '<module>'}")
    assert not stray, f"{what} outside the allow-list: " + ", ".join(stray)
    assert seen == set(allowed), sorted(set(allowed) - seen)


def test_only_the_oracle_rule_and_necessity_write_the_oracle_fields():
    _check_allow_list(_writes_oracle, ORACLE_WRITERS, "oracle field write")


def test_only_certificate_to_json_writes_a_certificate_dict():
    _check_allow_list(_has_oracle_key, CERTIFICATE_DICTS, "certificate dict")


def test_certificates_are_built_only_in_certify():
    builders = {name for name, tree in _modules() if _find(tree, _builds_certificate)}
    assert builders == CERTIFICATE_MODULES, sorted(builders ^ CERTIFICATE_MODULES)


def test_only_premise_status_spells_the_premise_status_words():
    _check_allow_list(_is_premise_word, PREMISE_WORD_SPELLERS, "premise status word")


def test_no_module_compares_a_status_with_a_premise_status_word():
    _check_allow_list(_compares_status_with_premise_word, {}, "premise status comparison")
