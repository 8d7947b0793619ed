import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest

from ringlab import linalg
from ringlab.cli import main
from ringlab.errors import ParseError, SchemaError, UnknownKind
from ringlab.recipes import build_recipe, parse_recipe_text


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_recipe_text("{not json")
    assert err.value.line == 1
    with pytest.raises(SchemaError) as err:
        parse_recipe_text('{"kind":"cayley_tower","base":"Q"}')
    assert err.value.path == "/levels"
    with pytest.raises(UnknownKind):
        parse_recipe_text('{"kind":"mystery"}')


def test_recipe_digest_is_stable():
    r1 = parse_recipe_text('{"kind":"cayley_tower","base":"Q","levels":2}')
    r2 = parse_recipe_text('{"levels":2,"base":"Q","kind":"cayley_tower"}')
    assert r1.digest == r2.digest


def test_build_tower_recipe():
    recipe = parse_recipe_text(
        '{"kind":"cayley_tower","base":"Q","levels":3,"alpha":[-1,-1,-1]}')
    tower = build_recipe(recipe)
    assert [r.dim for r in tower.rings] == [1, 2, 4, 8]


def test_build_command(tmp_path, capsys):
    path = _write(tmp_path, "m2f3.json",
                  {"kind": "matrix_ring", "size": 2,
                   "base": {"kind": "scalar", "ring": "Fp:3"}})
    code, doc = _run(capsys, "build", path)
    assert code == 0
    assert doc["results"]["build"]["size"] == 81
    assert doc["results"]["build"]["associative"] is True


def test_check_command_and_expectations(tmp_path, capsys):
    path = _write(tmp_path, "z4.json", {"kind": "scalar", "ring": "Zn:4"})
    code, doc = _run(capsys, "check", path, "--checks", "simplicity")
    assert code == 0
    assert doc["results"]["simplicity"]["NotSimple"]["witness"]["spanning"] == [0, 2]
    code, _ = _run(capsys, "check", path, "--checks", "simplicity",
                   "--expect", "not-simple")
    assert code == 0
    code, _ = _run(capsys, "check", path, "--checks", "simplicity",
                   "--expect", "simple")
    assert code == 1


def test_check_decides_simplicity_over_the_cap(capsys):
    # M3(F3) has 3^9 elements, over the cap; the F_p decision still
    # decides it
    recipe = str(RECIPES / "matrix_ring-M3F3.json")
    code, doc = _run(capsys, "check", recipe, "--checks", "simplicity", "--cap", "4096")
    assert code == 0
    assert doc["results"]["simplicity"] == "Simple"


def test_witness_reverifies(tmp_path, capsys):
    path = _write(tmp_path, "z4.json", {"kind": "scalar", "ring": "Zn:4"})
    code, doc = _run(capsys, "check", path, "--checks", "simplicity")
    witness = doc["results"]["simplicity"]["NotSimple"]["witness"]["spanning"]
    from ringlab import zmod_ring, ideal_closure
    r4 = zmod_ring(4)
    regenerated = ideal_closure(r4, [r4.element(i) for i in witness])
    assert sorted(regenerated.span.members) == sorted(witness)
    assert not regenerated.span.is_full()


def test_certify_command(tmp_path, capsys):
    path = _write(tmp_path, "frob.json",
                  {"kind": "skew_group_ring", "group": "Z2", "action": "frobenius",
                   "base": {"kind": "scalar", "ring": "F4"}})
    code, doc = _run(capsys, "certify", path)
    assert code == 0
    cert = doc["certificates"][0]
    assert cert["verdict"] == "Simple" and cert["oracle"] == "agrees"


def test_certify_crossed_product_with_frobenius(tmp_path, capsys):
    path = _write(tmp_path, "cp.json",
                  {"kind": "crossed_product", "group": "Z2", "sigma": ["id", "frobenius"],
                   "base": {"kind": "scalar", "ring": "F9"}})
    code, doc = _run(capsys, "certify", path)
    assert code == 0
    cert = doc["certificates"][0]
    assert cert["verdict"] == "Simple" and cert["oracle"] == "agrees"


def test_base_recipe_that_builds_no_ring(tmp_path, capsys):
    doc = {"kind": "matrix_ring", "size": 2,
           "base": {"kind": "cayley_tower", "base": "Fp:3", "levels": 1}}
    with pytest.raises(SchemaError) as err:
        build_recipe(parse_recipe_text(json.dumps(doc)))
    assert err.value.path == "/base"
    code = main(["build", _write(tmp_path, "tower-base.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: /base:") and "Traceback" not in captured.err


F4 = {"kind": "scalar", "ring": "F4"}


@pytest.mark.parametrize("doc, path", [
    ({"kind": "scalar", "ring": "F6"}, "/ring"),
    ({"kind": "scalar", "ring": "F0"}, "/ring"),
    ({"kind": "scalar", "ring": "Fp:x"}, "/ring"),
    ({"kind": "cayley_tower", "base": "Q", "levels": "x"}, "/levels"),
    ({"kind": "structure_algebra", "field": "Fp:3", "dim": 1, "constants": [[1]]},
     "/constants"),
    ({"kind": "twisted_group_ring", "base": {"kind": "scalar", "ring": "Fp:2"},
      "group": "Z2", "alpha": [[1]]}, "/alpha"),
    ({"kind": "skew_group_ring", "base": F4, "group": "Z2xZ2", "action": "frobenius"},
     "/action"),
    ({"kind": "skew_group_ring", "base": F4, "group": "Z2", "action": ["id"]}, "/action"),
    ({"kind": "crossed_product", "base": F4, "group": "Z2", "sigma": ["id"]}, "/sigma"),
    ({"kind": "crossed_product", "base": F4, "group": "Z2", "sigma": ["id", "id"],
      "twists": [[0]]}, "/twists"),
    ({"kind": "cayley_tower", "base": "Q", "levels": 2, "alpha": [-1]}, "/alpha"),
    ({"kind": "matrix_ring", "size": 2, "base": "Fp:3", "alphas": {"x": 1}}, "/alphas"),
    ({"kind": "dynamics", "points": 2, "group": "Z2", "action": [0, 1], "field": "Fp:3"},
     "/action"),
    ({"kind": "matrix_ring", "size": 0, "base": "Fp:3"}, "/size"),
    ({"kind": "matrix_ring", "size": -1, "base": "Fp:3"}, "/size"),
    ({"kind": "dynamics", "points": 0, "group": "Z2", "action": [[], []], "field": "Fp:3"},
     "/points"),
    ({"kind": "scalar", "ring": "Zn:0"}, "/ring"),
    ({"kind": "cayley_tower", "base": "Q", "levels": -1}, "/levels"),
    ({"kind": "skew_group_ring", "base": "Zn:4", "group": "Z2",
      "action": ["id", {"perm": [0, 1, 2]}]}, "/action"),
    ({"kind": "skew_group_ring", "base": "Zn:4", "group": "Z2",
      "action": ["id", {"perm": [0, 1, 2, 4]}]}, "/action"),
    ({"kind": "skew_group_ring", "base": F4, "group": "Z2",
      "action": ["id", {"matrix": [[1, 0, 0]]}]}, "/action"),
    ({"kind": "table_ring", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, "x"]]}, "/mul"),
    ({"kind": "cayley_dickson", "base": "Fp:3", "flavor": "bogus"}, "/flavor"),
    ({"kind": "cayley_dickson", "base": "Fp:3", "flavor": "custom"}, "/flavor"),
    ({"kind": "crossed_product", "base": F4, "group": "Z2", "sigma": ["id", "id"],
      "twists": [["straight", "bogus"], ["straight", "straight"]]}, "/twists"),
    ({"kind": "matrix_ring", "size": 2, "base": "Fp:3", "alphas": {"0,1,5": 1}}, "/alphas"),
    ({"kind": "ore_extension", "base": "Zn:4", "sigma": "id", "delta": {"perm": [0, 1, 2]}},
     "/delta"),
    ({"kind": "crossed_product", "group": "pair:2", "base": "Fp:2",
      "sigma": ["id", "id", "id", "id"]}, "/group"),
    ({"kind": "matrix_ring", "size": 2.5, "base": "Fp:3"}, "/size"),
    ({"kind": "matrix_ring", "size": True, "base": "Fp:3"}, "/size"),
    ({"kind": "dynamics", "points": 2.0, "group": "Z2", "action": [[0, 1], [1, 0]],
      "field": "Fp:3"}, "/points"),
    ({"kind": "cayley_tower", "base": "Q", "levels": True}, "/levels"),
    ({"kind": "structure_algebra", "field": "Fp:3", "dim": 1.5, "constants": [[[1]]]},
     "/dim"),
    ({"kind": "table_ring", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "zero": True},
     "/zero"),
    ({"kind": "twisted_group_ring", "base": "Fp:3", "group": "Z2",
      "alpha": [[True, 1], [1, 2.9]]}, "/alpha"),
    ({"kind": "structure_algebra", "field": "Q", "dim": 1, "constants": [[[0.1]]]},
     "/constants"),
    ({"kind": "structure_algebra", "field": "Fp:3", "dim": 1, "constants": [[["1/2"]]]},
     "/constants"),
    ({"kind": "skew_group_ring", "base": F4, "group": "Z2",
      "action": ["id", {"matrix": [[1.5, 0], [0, 1]]}]}, "/action"),
    ({"kind": "cayley_tower", "base": "Q", "levels": 1, "alpha": [0.5]}, "/alpha"),
    ({"kind": "cayley_dickson", "base": "Q", "alpha": [False]}, "/alpha"),
    ({"kind": "twisted_group_ring", "base": "Q", "group": "Z2xZ2", "alpha": "bales:"},
     "/alpha"),
    ({"kind": "skew_group_ring", "base": "Fp:2", "group": "xor:x", "action": "frobenius"},
     "/group"),
    ({"kind": "skew_group_ring", "base": "Fp:2", "group": "pair:y", "action": "frobenius"},
     "/group"),
    ({"kind": "skew_group_ring", "base": "Fp:2", "group": "xor:-1", "action": "frobenius"},
     "/group"),
    ({"kind": "twisted_group_ring", "base": "Q", "group": "Z0", "alpha": [[]]}, "/group"),
    ({"kind": "matrix_ring", "size": 2, "base": "Fp:3", "alphas": [1]}, "/alphas"),
    ({"kind": "cayley_tower", "base": 5, "levels": 1}, "/base"),
    ({"kind": "cayley_tower", "base": {"kind": "structure_algebra", "field": "Fp:3", "dim": 1,
                                       "constants": [[[1]]]}, "levels": 1}, "/base"),
    ({"kind": "dynamics", "points": 2, "group": "Z2", "action": [[0, 1], ["a", 0]],
      "field": "Fp:3"}, "/action"),
    ({"kind": "dynamics", "points": 2, "group": "Z2", "action": [[0, 1], [1, 0.5]],
      "field": "Fp:3"}, "/action"),
    ({"kind": "dynamics", "points": 2, "group": "Z2", "action": [[0, 1], [True, 0]],
      "field": "Fp:3"}, "/action"),
    ({"kind": "skew_group_ring", "base": F4, "group": "Z2",
      "action": ["id", {"matrix": [[1, 0], [1, 1]], "anti": "yes"}]}, "/action"),
], ids=["F6", "F0", "Fp:x", "tower-levels", "constants", "twisted-alpha",
        "frobenius-Z2xZ2", "skew-action", "crossed-sigma", "crossed-twists",
        "tower-alpha", "matrix-alphas", "dynamics-action", "matrix-size-0",
        "matrix-size-negative", "dynamics-points-0", "Zn:0", "tower-levels-negative",
        "perm-length", "perm-range", "matrix-shape", "table-entry", "flavor-bogus",
        "flavor-custom", "twist-name", "alphas-key-range", "ore-delta-perm",
        "crossed-groupoid", "size-float", "size-bool", "points-float", "levels-bool",
        "dim-float", "zero-bool", "alpha-bool-float", "constants-float-Q",
        "constants-fraction-Fp", "matrix-float", "tower-alpha-float", "doubling-alpha-bool",
        "bales-Z2xZ2", "group-xor-letter", "group-pair-letter", "group-xor-negative",
        "group-Z0", "matrix-alphas-list", "tower-base-int", "tower-base-algebra",
        "dynamics-action-string", "dynamics-action-float", "dynamics-action-bool",
        "anti-string"])
def test_malformed_recipe_exits_2(tmp_path, capsys, doc, path):
    with pytest.raises(SchemaError) as err:
        build_recipe(parse_recipe_text(json.dumps(doc)))
    assert err.value.path == path
    code = main(["build", _write(tmp_path, "bad.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}:") and "Traceback" not in captured.err


@pytest.mark.parametrize("doc", [
    {"kind": "table_ring", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]},
    {"kind": "skew_group_ring", "base": F4, "group": "Z2",
     "action": ["id", {"matrix": [[1, 0], [1, 1]]}]},
    {"kind": "skew_group_ring", "base": "Zn:4", "group": "Z2",
     "action": ["id", {"perm": [0, 1, 2, 3]}]},
    {"kind": "twisted_group_ring", "base": "Fp:3", "group": "Z2", "alpha": [[1, 1], [1, 2]]},
    {"kind": "crossed_product", "base": F4, "group": "Z2", "sigma": ["id", "frobenius"],
     "alpha": [[1, 1], [1, 1]], "twists": [["straight", "straight"], ["straight", "opposite"]]},
    {"kind": "matrix_ring", "size": 2, "base": "Fp:3", "alphas": {"0,1,0": 2, "1,0,1": 2}},
    {"kind": "ore_extension", "base": F4, "sigma": "id",
     "delta": {"matrix": [[0, 0], [0, 0]]}},
    {"kind": "cayley_dickson", "base": "Zn:4"},
    {"kind": "twisted_group_ring", "base": "Zn:4", "group": "Z2", "alpha": [[1, 1], [1, -1]]},
    {"kind": "cayley_dickson", "base": "Fp:3", "sigma": "conjugation"},
    {"kind": "skew_group_ring", "base": "Zn:1", "group": "Z2", "action": ["id", "id"]},
    {"kind": "crossed_product", "base": "Zn:1", "group": "Z2", "sigma": ["id", "id"]},
    {"kind": "cayley_dickson", "base": "Zn:1"},
    {"kind": "matrix_ring", "size": 2, "base": "Zn:1"},
    {"kind": "twisted_group_ring", "base": "Zn:1", "group": "Z2", "alpha": [[1, 1], [1, 1]]},
], ids=["table_ring", "matrix-map", "perm-map", "twisted-alpha", "crossed-alpha-twists",
        "matrix-alphas", "ore-delta", "doubling-Zn:4", "twisted-alpha-Zn:4",
        "doubling-conjugation", "skew-Zn:1", "crossed-Zn:1", "doubling-Zn:1",
        "matrix-Zn:1", "twisted-Zn:1"])
def test_recipe_branches_build_and_certify(tmp_path, capsys, doc):
    # on a table base a recipe scalar k is k·1; over the zero ring Z/1, which
    # is not simple, no pipeline may conclude Simple against the oracle (an
    # oracle disagreement exits 1)
    path = _write(tmp_path, "recipe.json", doc)
    for command in ("build", "certify"):
        assert main([command, path]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["results"] is not None and captured.err == ""


def test_zero_modulus_is_named(tmp_path, capsys):
    code = main(["check", _write(tmp_path, "z0.json", {"kind": "scalar", "ring": "Zn:0"})])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: /ring: bad scalar ring 'Zn:0': modulus 0 must be at least 1\n"


def test_zmod_past_the_table_cap_exits_2(tmp_path, capsys):
    # refused before its two n x n tables are allocated
    code = main(["check", _write(tmp_path, "z4097.json", {"kind": "scalar", "ring": "Zn:4097"})])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: table ring size 4097 exceeds cap 4096\n"


def test_a_matrix_ring_past_the_constants_budget_exits_2(monkeypatch, tmp_path, capsys):
    # M16(F4), 512-dimensional over F_2: 512³ structure constants, 1 GB of
    # int64, refused before anything is allocated; an array of more than
    # 2^24 entries fails the test rather than being made
    zeros = linalg._Field.zeros

    def bounded(self, shape):
        assert math.prod(shape) <= 1 << 24, f"allocated {shape}"
        return zeros(self, shape)

    monkeypatch.setattr(linalg._Field, "zeros", bounded)
    doc = {"kind": "matrix_ring", "size": 16, "base": {"kind": "scalar", "ring": "F4"}}
    code = main(["certify", _write(tmp_path, "m16-f4.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: crossed product would have 134217728 structure "
                            "constants, past the cap 2097152\n")


@pytest.mark.parametrize("group", ["Z257", "xor:9", "pair:17"])
def test_a_group_past_the_morphism_cap_exits_2(tmp_path, capsys, group):
    # refused before its composition table is built: one past the cap of 256
    doc = {"kind": "skew_group_ring", "base": "Fp:2", "group": group, "action": "frobenius"}
    code = main(["check", _write(tmp_path, "big-group.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {group} has more than 256 morphisms\n"


def test_a_group_size_of_5000_digits_exits_2(tmp_path, capsys):
    # a bad size where int() limits its digits (CPython 3.10.7 and later),
    # and past the morphism cap where it does not
    doc = {"kind": "skew_group_ring", "base": "Fp:2", "group": "Z" + "9" * 5000,
           "action": "frobenius"}
    code = main(["check", _write(tmp_path, "digits.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err


def test_a_check_past_the_cap_keeps_the_report(tmp_path, capsys):
    # Z3 acting on 21 points as seven 3-cycles over F2 is not simple (2^63
    # elements), and its base has 2^21 elements, so the invariance check's
    # walk of the base's ideals raises TooLarge; the other checks still
    # run, the report is printed, and the exit is 2.  Its degree map needs
    # no scan: the grading is nondegenerate (the lemma of
    # verify_degree_map), so center and degree-map alone exit 0
    cycles = [[3 * (x // 3) + (x + g) % 3 for x in range(21)] for g in range(3)]
    path = _write(tmp_path, "z3-21.json", {"kind": "dynamics", "points": 21, "group": "Z3",
                                           "action": cycles, "field": "Fp:2"})
    code, doc = _run(capsys, "check", path, "--checks", "center,invariance")
    assert code == 2
    assert doc["results"] == {
        "center": {"kind": "dimension", "measure": 7},
        "invariance": {"error": "2097152 elements exceeds cap 1048576"}}
    start = time.process_time()
    code, doc = _run(capsys, "check", path, "--checks", "center,degree-map")
    assert time.process_time() - start < 5
    assert code == 0
    assert doc["results"] == {
        "center": {"kind": "dimension", "measure": 7},
        "degree-map": {"status": "Valid", "witness": None}}


def test_a_degree_map_over_q_is_proved_without_a_scan(tmp_path, capsys):
    # Z2 swapping two of three points over Q: no element can be enumerated,
    # and the nondegenerate grading proves the support map valid
    path = _write(tmp_path, "q-3pt.json", {"kind": "dynamics", "points": 3, "group": "Z2",
                                           "action": [[0, 1, 2], [1, 0, 2]], "field": "Q"})
    code, doc = _run(capsys, "check", path, "--checks", "degree-map")
    assert code == 0
    assert doc["results"] == {"degree-map": {"status": "Valid", "witness": None}}


def test_a_dynamics_recipe_past_the_constants_budget_exits_2(tmp_path, capsys):
    # 129 points: the functions ring alone would have 129^3 > 2^21
    # structure constants, refused before they are allocated
    doc = {"kind": "dynamics", "points": 129, "group": "Z2",
           "action": [list(range(129)), [1, 0] + list(range(2, 129))], "field": "Fp:2"}
    code = main(["check", _write(tmp_path, "129-points.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: direct sum would have 2146689 structure constants")


def test_a_structure_algebra_past_the_constants_budget_exits_2(tmp_path, capsys):
    # dimension 129: 129^3 > 2^21 structure constants, refused before the
    # constants array is read, so its shape is never checked
    doc = {"kind": "structure_algebra", "field": "Fp:2", "dim": 129, "constants": []}
    code = main(["check", _write(tmp_path, "dim-129.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "Traceback" not in captured.err
    assert captured.err == ("error: structure algebra would have 2146689 structure "
                            "constants, past the cap 2097152\n")


def test_a_check_over_q_keeps_the_report(tmp_path, capsys):
    # the invariance check needs the ideal lattice, which Q does not have;
    # the other checks still run, the report is printed, and the exit is 2
    base = {"kind": "structure_algebra", "field": "Q", "dim": 2,
            "constants": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    path = _write(tmp_path, "m2-q2.json", {"kind": "matrix_ring", "size": 2, "base": base})
    code, doc = _run(capsys, "check", path, "--checks", "simplicity,center,invariance")
    assert code == 2
    results = doc["results"]
    assert results["invariance"] == {"error": "cannot enumerate ideals over Q"}
    assert results["center"] == {"kind": "dimension", "measure": 2}
    assert results["simplicity"]["NotSimple"]["witness"]["measure"] == 4


def test_modulus_past_int64_arithmetic_exits_2(tmp_path, capsys):
    doc = {"kind": "matrix_ring", "size": 2,
           "base": {"kind": "scalar", "ring": "Fp:4000000007"}}
    code = main(["check", _write(tmp_path, "big-p.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: prime 4000000007 exceeds")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command, doc", [
    ("check", {"kind": "scalar", "ring": "Fp:2305843009213693951"}),
    ("certify", {"kind": "dynamics", "points": 2, "group": "Z2", "action": [[0, 1], [1, 0]],
                 "field": "Zn:2305843009213693951"}),
], ids=["Fp-scalar", "Zn-field"])
def test_a_huge_prime_exits_2_before_its_primality_test(monkeypatch, tmp_path, capsys,
                                                       command, doc):
    # trial division of 2^61 - 1 would run for hours: the modulus limit is
    # checked first, so no primality test runs
    def trial_division(n):
        raise AssertionError(f"is_prime({n}) called")
    monkeypatch.setattr(linalg, "is_prime", trial_division)
    code = main([command, _write(tmp_path, "huge-p.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: prime 2305843009213693951 exceeds")


def test_a_composite_zn_field_exits_2_at_its_path(tmp_path, capsys):
    doc = {"kind": "structure_algebra", "field": "Zn:6", "dim": 1, "constants": [[[1]]]}
    code = main(["build", _write(tmp_path, "z6-field.json", doc)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: /field: bad scalar field 'Zn:6': 6 is not prime\n"


def test_certify_ore_recipe(tmp_path, capsys):
    path = _write(tmp_path, "ore.json",
                  {"kind": "ore_extension",
                   "base": {"kind": "scalar", "ring": "F4"},
                   "sigma": "frobenius", "delta": "zero"})
    code, doc = _run(capsys, "certify", path)
    assert code == 0
    [cert] = doc["certificates"]
    assert cert["pipeline"] == "ore-base" and cert["verdict"] == "SigmaDeltaSimple"
    # a Certificate like every other: each premise carries its witness,
    # null when it holds, and the infinite extension has no oracle
    assert all(p["status"] == "verified" and p["detail"] is None for p in cert["premises"])
    assert cert["oracle"] == "unavailable" and cert["oracle_detail"] is None


def test_table_command_threshold(tmp_path, capsys):
    path = _write(tmp_path, "z6.json", {"kind": "scalar", "ring": "Zn:6"})
    code, doc = _run(capsys, "table", path)
    assert code == 0 and doc["results"]["table"]["mul"][2][3] == 0
    big = _write(tmp_path, "big.json",
                 {"kind": "matrix_ring", "size": 2,
                  "base": {"kind": "scalar", "ring": "Zn:4"}})
    code, doc = _run(capsys, "table", big)
    assert code == 2 and "error" in doc["results"]["table"]
    code, doc = _run(capsys, "table", big, "--force")
    assert code == 0 and len(doc["results"]["table"]["mul"]) == 256
    alg = _write(tmp_path, "alg.json",
                 {"kind": "dynamics", "points": 3, "group": "Z3",
                  "action": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "field": "Fp:2"})
    code, doc = _run(capsys, "table", alg)
    assert code == 0 and "basis_products" in doc["results"]["table"]


def test_dynamics_recipe_flags(tmp_path, capsys):
    path = _write(tmp_path, "dyn.json",
                  {"kind": "dynamics", "points": 2, "group": "Z2",
                   "action": [[0, 1], [1, 0]], "field": "Fp:3"})
    code, doc = _run(capsys, "build", path)
    assert code == 0
    assert doc["results"]["build"]["minimal"] is True
    assert doc["results"]["build"]["faithful"] is True
    code, doc = _run(capsys, "certify", path)
    assert code == 0 and doc["certificates"][0]["verdict"] == "Simple"


def test_structure_algebra_recipe_exact_rationals(tmp_path, capsys):
    path = _write(tmp_path, "qi.json",
                  {"kind": "structure_algebra", "field": "Q", "dim": 2,
                   "constants": [[["1", "0"], ["0", "1"]],
                                 [["0", "1"], ["-1/1", "0"]]]})
    code, doc = _run(capsys, "check", path, "--checks", "center,simplicity")
    assert code == 0
    assert doc["results"]["center"]["measure"] == 2
    # Q(i) reduces to the field F_9 mod 3
    assert doc["results"]["simplicity"] == "Simple"


def test_missing_recipe_is_usage_error(capsys):
    assert main(["build"]) == 2


def test_out_file_and_text_format(tmp_path, capsys):
    path = _write(tmp_path, "z6.json", {"kind": "scalar", "ring": "Zn:6"})
    out = tmp_path / "report.json"
    code = main(["check", path, "--checks", "simplicity", "--out", str(out)])
    assert code == 0 and out.exists()
    doc = json.loads(out.read_text())
    assert "NotSimple" in doc["results"]["simplicity"]
    code = main(["check", path, "--checks", "simplicity", "--format", "text"])
    text = capsys.readouterr().out
    assert code == 0 and "ringlab report" in text and "NotSimple" in text


def test_timings_flag(tmp_path, capsys):
    path = _write(tmp_path, "z6.json", {"kind": "scalar", "ring": "Zn:6"})
    code, doc = _run(capsys, "build", path)
    assert doc["timings_ms"] is None
    code, doc = _run(capsys, "build", path, "--timings")
    assert doc["timings_ms"]["total"] >= 0


RECIPES = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "recipes"

# sha256 of the default stdout of `ringlab corpus` and of `ringlab certify`
# on each benchmark recipe.  A change that alters a default report, even by
# one byte, must update these digests on purpose.
GOLDEN_SHA256 = {
    "corpus": "741b0d97183fa645e0e06d2fce354be753d0a9e8e50e1aa0fa9f50c1157f652c",
    "cayley_dickson-F3": "b7037588176759adf8af0b4857bfd7d41858283da337e0db36e9f131fe867bc1",
    "cayley_tower-F3-3": "87b5fe5c768432662f999d7fd4b2f122a8899ba0a552bbb93e858f0ee91254b6",
    "dynamics-4pt-Z2-F3": "d65f64cff6251148741cc87ecae6f260d753d82671c3a15332bd686c73512e54",
    "dynamics-rot3-F2": "87dd765270d9f648967151ad450eede0ebfccd55399a7bec4b227f1fda0529c4",
    "matrix_ring-M3F3": "b6973e0380522aaf16e06130d22986a559ead39e9122f550be6f571e58d01ba9",
    "ore_extension-F4-frobenius":
        "dfde911b0571d1909278cd4cefef5b07c7bc37c01a5041e191b9405b4ec2a082",
    "skew_group_ring-F8-Z3": "728c3249ffc80ca9c3dfa24a6a54b2d4321c68c8c4314474bac1342ff32fe8d3",
    "twisted_group_ring-bales3-F3":
        "700f47ea3d833ee68be83403e5e47ecdf9fefea440526a64800b16bcd7825f75",
}


# sha256 of the stdout of `ringlab check <recipe> --checks CHECKS` on each
# benchmark recipe, and of each demo's stdout
CHECKS = "simplicity,center,grading,invariance,degree-map"
CHECK_SHA256 = {
    "cayley_dickson-F3": "163eef5bf2f7161b9cdcd63124510606645e8d006cdcccbca29ab51c973e845e",
    "cayley_tower-F3-3": "526a5a0c082afd0c555d53f5760fbe7f60b39ddf6b852865a52902e65624dae7",
    "dynamics-4pt-Z2-F3": "f37d6032bf83133c1f9da64155113ce1c9faca12edd65a4bf789b68958313867",
    "dynamics-rot3-F2": "ea6aba9bd13cd25c36838176ab34a614d75987b621ad0e852e3e4f3e23bd0329",
    "matrix_ring-M3F3": "9bb4ab07784e8461492c52e40985d9f948da714dd26a2dc4c631e409b2f6b8de",
    "ore_extension-F4-frobenius":
        "c1d5572041e47b3f064fb5827706cdc67dbd092ee5ed471ee77328eea4b2a6d5",
    "skew_group_ring-F8-Z3": "4fabae53c4e639deb9056032cd8cf9e8dc482f438ba3d6c48b187c8008dd6def",
    "twisted_group_ring-bales3-F3":
        "a9e4485ab7746a4100335a171588796e74132f0387bc3f6762f6060dbded40c4",
}
# the two Q recipes of CI's console-script step, with the sha256 of the
# stdout of each command: the simplicity witness over Q (NotSimple, the
# witness ["1", "0"]) and the matrix ring's witness and oracle search both
# close ideals over Q
Q_DIAGONAL = {"kind": "structure_algebra", "field": "Q", "dim": 2,
              "constants": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
Q_SHA256 = {
    "check": (Q_DIAGONAL, ["--checks", "simplicity,center"],
              "390ff4e4e1f304d0a8be2d548fb5431ff827f2f120d98d01de5b26b171b7c379"),
    "certify": ({"kind": "matrix_ring", "size": 2, "base": Q_DIAGONAL}, [],
                "3400dda1bd7478b6c9eb7a9e60053e1acdb2b18db180cc37ff0438c850d9f2a6"),
}
# recipes over table rings, with the sha256 of the stdout of `certify` and of
# `check --checks CHECKS`: F4 written out as tables with the Frobenius as an
# index map, so that a skew group ring runs an index map other than the
# identity, a doubling, a matrix ring and a twisted group ring with a
# nontrivial cocycle
F4_TABLE = {"kind": "table_ring",
            "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
            "mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]}
TABLE_SHA256 = {
    "skew_group_ring-F4-table": (
        {"kind": "skew_group_ring", "base": F4_TABLE, "group": "Z2",
         "action": ["id", {"perm": [0, 1, 3, 2]}]},
        "074c89c6cb4e9bd2cb89462067c77f935da9334a684337e14adf8e0a07cc1fe2",
        "ae93d55bfe55a8567b42ed3f16b714318be3ec32e87ae16977df60b3909915f5"),
    "cayley_dickson-Z3": (
        {"kind": "cayley_dickson", "base": {"kind": "scalar", "ring": "Zn:3"}},
        "d684b7b3e815038b7f0725c51610c4d96824cf85dbe7fd2a25584593cd0cc489",
        "1e493a943cf864904ce53af86a9b0680674fbaded656bec488930a9a483d8a90"),
    "matrix_ring-M2Z4": (
        {"kind": "matrix_ring", "size": 2, "base": {"kind": "scalar", "ring": "Zn:4"}},
        "c757ef1b18b2522c09a66d33f769a285570727cf6d0663bae72dbcd9fe1d5751",
        "6266d068f237b5aa1eb9afe1e18fa06be22e316142fae8aed2c12d292dc181b4"),
    "twisted_group_ring-Z4-Z2": (
        {"kind": "twisted_group_ring", "base": "Zn:4", "group": "Z2",
         "alpha": [[1, 1], [1, 3]]},
        "30fba37f87557bb71f5bbc000c9d73b72f89f35da0d54307986d156e0da2acd3",
        "d82b34abffc5aa5e19ff1924d5e3bb1865e46e7daf7c6e1188703c2a67e610e0"),
}
DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"
DEMO_SHA256 = {
    "01_finite_rings_and_probes": "666d65d1e41ec2b3cd1c0d12b8704e11af0cd813647ff66a65a703f2f6bb3bc8",
    "02_ideals_and_simplicity": "6889eb10dd851ae0205330bc94b779c85cb486b1b6ac2dce7603b31eea2228c4",
    "03_doubling_tower": "794a3e56e5855972874f9f86542e5ce9ebdd4b935e03143cbc4d17d071c25778",
    "04_crossed_products_and_gradings":
        "89c29fbabb1514308383a4dfbd1e4b1234460b658d27abcae055e6d81d694a34",
    "05_ore_extensions": "788c36965759a26a2aa215abf204380acc63b3f8f05989dbd4a9d87406dcae88",
    "06_certificates_and_corpus":
        "56fad49e1c8a3d35b126da94faffc039bb599c3fb58c79c6874a51f230b324dc",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_corpus_command_deterministic(capsys):
    code1, out1 = main(["corpus"]), capsys.readouterr().out
    code2, out2 = main(["corpus"]), capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1 == out2
    assert _sha256(out1) == GOLDEN_SHA256["corpus"]


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256.keys() - {"corpus"}))
def test_certify_output_is_byte_identical(name, capsys):
    assert main(["certify", str(RECIPES / f"{name}.json")]) == 0
    assert _sha256(capsys.readouterr().out) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(CHECK_SHA256))
def test_check_output_is_byte_identical(name, capsys):
    assert main(["check", str(RECIPES / f"{name}.json"), "--checks", CHECKS]) == 0
    assert _sha256(capsys.readouterr().out) == CHECK_SHA256[name]


@pytest.mark.parametrize("command", sorted(Q_SHA256))
def test_q_output_is_byte_identical(command, tmp_path, capsys):
    recipe, extra, digest = Q_SHA256[command]
    path = _write(tmp_path, "q.json", recipe)
    assert main([command, path, *extra]) == 0
    out = capsys.readouterr().out
    assert "NotSimple" in out and _sha256(out) == digest


@pytest.mark.parametrize("name", sorted(TABLE_SHA256))
@pytest.mark.parametrize("command", ["certify", "check"])
def test_table_base_output_is_byte_identical(name, command, tmp_path, capsys):
    recipe, certify_digest, check_digest = TABLE_SHA256[name]
    path = _write(tmp_path, "table.json", recipe)
    extra = ["--checks", CHECKS] if command == "check" else []
    assert main([command, path, *extra]) == 0
    digest = check_digest if command == "check" else certify_digest
    assert _sha256(capsys.readouterr().out) == digest


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_byte_identical(name):
    # each demo in its own interpreter, as a user runs it
    src = str(DEMOS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    run = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert _sha256(run.stdout) == DEMO_SHA256[name]
