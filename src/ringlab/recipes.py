"""Declarative construction recipes (JSON).

A recipe is a tree with a "kind" discriminator; child recipes describe base
rings.  A scalar is a JSON integer or a string the field parses ("p/q" over
Q); a float or a bool is refused.  Scalar specs are "Q", "Fp:<prime>",
"Zn:<n>", and "F<q>" for small prime powers q.  Where a field is needed
(a structure algebra's, a tower's base, a dynamics system's) "Zn:<n>" must
name a prime and means "Fp:<n>"; as a ring it is the table ring Z/n.
Cocycles are explicit tables or "bales:<n>"; actions are permutation arrays.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .categories import abelian_group, cyclic_group, pair_groupoid, xor_group
from .constructions import (RingMap, bales_alpha, cayley_dickson,
                            cayley_tower, dynamics_skew_group_ring,
                            matrix_ring, skew_group_ring, twisted_group_ring)
from .errors import ParseError, SchemaError, TooLarge, UnknownKind
from .linalg import GF, QQ
from .ore import SigmaDerivationData
from .rings import (CONSTANTS_CAP, Ring, field_algebra, gf_extension,
                    make_structure_algebra, make_table_ring, ring_of, zmod_ring)

KNOWN_KINDS = ("scalar", "table_ring", "structure_algebra", "cayley_dickson",
               "cayley_tower", "twisted_group_ring", "skew_group_ring",
               "crossed_product", "matrix_ring", "ore_extension", "dynamics")


@dataclass
class Recipe:
    kind: str
    doc: dict
    digest: str


def parse_recipe(path) -> Recipe:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    return parse_recipe_text(text)


def parse_recipe_text(text: str) -> Recipe:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno, col=exc.colno)
    _validate_node(doc, "")
    digest = hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return Recipe(doc["kind"], doc, digest)


def _require(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}/{key}", "missing required field")
    return doc[key]


def _validate_node(doc, path):
    if not isinstance(doc, dict):
        raise SchemaError(path or "/", "recipe node must be an object")
    kind = _require(doc, "kind", path)
    if kind not in KNOWN_KINDS:
        raise UnknownKind(f"{path}/kind: unknown kind {kind!r}")
    needs = {
        "scalar": ("ring",),
        "table_ring": ("add", "mul"),
        "structure_algebra": ("field", "dim", "constants"),
        "cayley_dickson": ("base",),
        "cayley_tower": ("base", "levels"),
        "twisted_group_ring": ("base", "group", "alpha"),
        "skew_group_ring": ("base", "group", "action"),
        "crossed_product": ("base", "group", "sigma"),
        "matrix_ring": ("size", "base"),
        "ore_extension": ("base", "sigma", "delta"),
        "dynamics": ("points", "group", "action", "field"),
    }[kind]
    for key in needs:
        _require(doc, key, path)
    for key in ("base",):
        if key in doc and isinstance(doc[key], dict):
            _validate_node(doc[key], f"{path}/{key}")


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def _scalar_spec(spec, path):
    """The one parser of scalar specs: "Q", "Fp:<p>", "Zn:<n>" and "F<q>",
    as (head, n) with head "Q", "Fp:", "Zn:" or "F" (n is None for "Q")."""
    if spec == "Q":
        return "Q", None
    for head in ("Fp:", "Zn:", "F"):
        if isinstance(spec, str) and spec.startswith(head) \
                and (head != "F" or spec[1:].isdigit()):
            try:
                return head, int(spec[len(head):])
            except ValueError as exc:      # not an integer, or more digits than int() reads
                raise SchemaError(path, f"bad scalar spec {spec!r}: {exc}") from None
    raise SchemaError(path, f"unknown scalar spec {spec!r}")


def _field(spec, path):
    """The field a scalar spec names: Q, or F_p as "Fp:p" or "Zn:p" for a
    prime p.  ``GF`` refuses a p past ``linalg.MAX_MODULUS`` before it tests
    primality."""
    head, n = _scalar_spec(spec, path)
    if head == "Q":
        return QQ
    if head == "F":
        raise SchemaError(path, f"expected a field, \"Q\" or \"Fp:<prime>\", got {spec!r}")
    try:
        return GF(n)
    except ValueError as exc:
        raise SchemaError(path, f"bad scalar field {spec!r}: {exc}") from None


def _scalar_ring(spec, path):
    """A scalar spec as a ring: Z/n for "Zn:n", GF(q) as an algebra over its
    prime field for "F<q>", and the field as a 1-dimensional algebra for the
    others."""
    head, n = _scalar_spec(spec, path)
    try:
        if head == "Zn:":
            return zmod_ring(n)
        if head == "F":
            return gf_extension(n)[0]
    except ValueError as exc:
        raise SchemaError(path, f"bad scalar ring {spec!r}: {exc}") from None
    return field_algebra(_field(spec, path))


def _is_cyclic_spec(spec):
    return isinstance(spec, str) and spec.startswith("Z") and spec[1:].isdigit()


def _parse_group(spec, path):
    if spec == "Z2xZ2":
        return abelian_group((2, 2))
    for prefix, build, least in (("Z", cyclic_group, 1), ("xor:", xor_group, 0),
                                 ("pair:", pair_groupoid, 1)):
        if isinstance(spec, str) and spec.startswith(prefix):
            size = spec[len(prefix):]
            try:
                n = int(size) if size.isascii() and size.isdigit() else -1
            except ValueError:                  # more digits than int() reads
                n = -1
            if n < least:
                raise SchemaError(path, f"bad group size in {spec!r}: expected an "
                                        f"integer of at least {least}")
            return build(n)
    raise SchemaError(path, f"unknown group spec {spec!r}")


def _coerce_scalar(coerce, value, path):
    """A recipe scalar read by ``coerce``: a JSON integer, or a string it
    reads ("1/2" over Q).  A float or a bool is refused, never truncated,
    read as 0 or 1, or taken as a binary fraction."""
    if type(value) is not int and not isinstance(value, str):
        raise SchemaError(path, f"expected an integer or a string scalar, got {value!r}")
    try:
        return coerce(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise SchemaError(path, f"bad scalar {value!r}: {exc}") from None


def _integer(doc, key, path):
    """A JSON integer: a float such as 2.5, a string or a bool is refused,
    never truncated or read as 0 or 1."""
    value = doc[key]
    if type(value) is not int:
        raise SchemaError(f"{path}/{key}", f"expected an integer, got {value!r}")
    return value


def _size(doc, key, path, least=1):
    """A count of rows, points or levels, which must be at least ``least``
    (1 or 0)."""
    n = _integer(doc, key, path)
    if n < least:
        kind = "positive" if least == 1 else "non-negative"
        raise SchemaError(f"{path}/{key}", f"expected a {kind} integer, got {n}")
    return n


def _array(value, shape, path):
    """``value`` if it is nested lists of the given shape; else a SchemaError."""
    def fits(v, dims):
        return not dims or (isinstance(v, list) and len(v) == dims[0]
                            and all(fits(x, dims[1:]) for x in v))
    if not fits(value, shape):
        raise SchemaError(path, "expected an array of shape "
                          + " x ".join(str(n) for n in shape))
    return value


def _indices(value, shape, path, bound=None):
    """``value`` if it is nested lists of the given shape whose entries are
    integers (in [0, ``bound``) when a bound is given); else a SchemaError."""
    flat = _array(value, shape, path)
    for _ in shape[1:]:
        flat = [x for row in flat for x in row]
    if not all(type(x) is int and (bound is None or 0 <= x < bound) for x in flat):
        raise SchemaError(path, "expected integers" if bound is None
                          else f"expected indices in [0, {bound})")
    return value


def _pair_table(value, group, path, read):
    """``{(g, h): read(value[i][j], path)}`` over the i-th and j-th morphisms
    g, h of the group, if ``value`` is a square array over them; else a
    SchemaError."""
    mors = list(group.morphisms)
    _array(value, (len(mors), len(mors)), path)
    return {(g, h): read(value[i][j], path)
            for i, g in enumerate(mors) for j, h in enumerate(mors)}


def _twist(value, path):
    if value not in ("straight", "opposite"):
        raise SchemaError(path, f"unknown twist {value!r}, "
                          "expected \"straight\" or \"opposite\"")
    return value


def _unit_multiple(base, value, path):
    """The recipe scalar ``value`` times the unit of ``base``: the ring's
    ``scalar_mul`` reads it (a table ring an integer only)."""
    unit = base.probe_properties().unit
    if unit is None:
        raise SchemaError(path, "the base ring has no unit")
    return _coerce_scalar(lambda k: base.scalar_mul(k, unit), value, path)


def _frobenius(base_spec, path):
    """The Frobenius matrix of an "F<q>" scalar base, or None for any other
    base (read after the base is built, so its spec parses)."""
    if isinstance(base_spec, dict):
        if base_spec["kind"] != "scalar":
            return None
        base_spec = base_spec["ring"]
    head, q = _scalar_spec(base_spec, path)
    return gf_extension(q)[1] if head == "F" else None


def _ring_map(ring, spec, path, frobenius=None):
    if spec == "id":
        return RingMap.identity(ring)
    if spec == "frobenius":
        if frobenius is None:
            raise SchemaError(path, "frobenius is only available on F_q bases")
        return RingMap(ring, ring, frobenius)
    if isinstance(spec, dict) and "matrix" in spec:
        if ring.is_table:
            raise SchemaError(path, "a matrix map needs a structure algebra")
        rows = [[_coerce_scalar(ring.F.coerce, x, path) for x in row]
                for row in _array(spec["matrix"], (ring.dim, ring.dim), path)]
        return RingMap(ring, ring, rows, anti=bool(spec.get("anti", False)))
    if isinstance(spec, dict) and "perm" in spec:
        if not ring.is_table:
            raise SchemaError(path, "an index map needs a table ring")
        perm = _indices(spec["perm"], (ring.n,), path, bound=ring.n)
        return RingMap(ring, ring, perm, anti=bool(spec.get("anti", False)))
    raise SchemaError(path, f"unknown map spec {spec!r}")


def build_recipe(recipe: Recipe):
    """Construct the object a recipe describes."""
    return _build(recipe.doc, "")


def _build(doc, path):
    kind = doc["kind"]
    if kind == "scalar":
        return _scalar_ring(doc["ring"], f"{path}/ring")
    if kind == "table_ring":
        n = len(doc["add"]) if isinstance(doc["add"], list) else 0
        add, mul = (np.array(_indices(doc[key], (n, n), f"{path}/{key}"))
                    for key in ("add", "mul"))
        return make_table_ring(add, mul, _integer(doc, "zero", path) if "zero" in doc else 0)
    if kind == "structure_algebra":
        dom = _field(doc["field"], f"{path}/field")
        d = _integer(doc, "dim", path)
        if d ** 3 > CONSTANTS_CAP:
            raise TooLarge(f"structure algebra would have {d ** 3} structure constants, "
                           f"past the cap {CONSTANTS_CAP}")
        C = [[[_coerce_scalar(dom.coerce, x, f"{path}/constants") for x in vec]
              for vec in plane]
             for plane in _array(doc["constants"], (d, d, d), f"{path}/constants")]
        return make_structure_algebra(d, dom, C)
    if kind == "cayley_tower":
        dom = _field(doc["base"] if isinstance(doc["base"], str)
                     else doc["base"].get("ring", "Q"), f"{path}/base")
        levels = _size(doc, "levels", path, least=0)
        alphas = doc.get("alpha")
        if alphas is not None:
            alphas = [_coerce_scalar(dom.coerce, a, f"{path}/alpha")
                      for a in _array(alphas, (levels,), f"{path}/alpha")]
        return cayley_tower(dom, levels, alphas=alphas)
    if kind == "cayley_dickson":
        base = _child_ring(doc["base"], f"{path}/base")
        if doc.get("flavor", "classical") != "classical":
            raise SchemaError(f"{path}/flavor", f"unknown flavor {doc['flavor']!r}, "
                              "expected \"classical\"")
        sigma = doc.get("sigma", "conjugation")
        if sigma == "conjugation":
            sigma = RingMap.identity(base)
            sigma.anti = True
        else:
            sigma = _ring_map(base, sigma, f"{path}/sigma")
        aspec = doc.get("alpha", -1)
        if isinstance(aspec, list) and base.is_algebra:
            alpha = base.element([_coerce_scalar(base.F.coerce, x, f"{path}/alpha")
                                  for x in _array(aspec, (base.dim,), f"{path}/alpha")])
        else:
            alpha = _unit_multiple(base, aspec, f"{path}/alpha")
        return cayley_dickson(base, sigma, alpha)
    if kind == "twisted_group_ring":
        base = _child_ring(doc["base"], f"{path}/base")
        group = _parse_group(doc["group"], f"{path}/group")
        aspec = doc["alpha"]
        if isinstance(aspec, str) and aspec.startswith("bales:"):
            # the signed cocycle reads a morphism's bits: an XOR group's
            if not (isinstance(doc["group"], str) and doc["group"].startswith("xor:")):
                raise SchemaError(f"{path}/alpha",
                                  "the bales: cocycle needs an XOR group xor:<n>")
            return twisted_group_ring(base, group, lambda g, h: bales_alpha(g, h))
        table = _pair_table(aspec, group, f"{path}/alpha",
                            functools.partial(_unit_multiple, base))
        return twisted_group_ring(base, group, lambda g, h: table[(g, h)])
    if kind == "skew_group_ring":
        base = _child_ring(doc["base"], f"{path}/base")
        group = _parse_group(doc["group"], f"{path}/group")
        aspec = doc["action"]
        maps = {}
        if aspec == "frobenius":
            if not _is_cyclic_spec(doc["group"]):
                raise SchemaError(f"{path}/action",
                                  "the frobenius action needs a cyclic group Z<n>")
            gen = _ring_map(base, aspec, f"{path}/action",
                            frobenius=_frobenius(doc["base"], f"{path}/base"))
            # cyclic convention: morphism k acts by frobenius^k
            for g in group.morphisms:
                maps[g] = RingMap.identity(base)
                for _ in range(int(g)):
                    maps[g] = gen.compose(maps[g])
        else:
            mors = list(group.morphisms)
            _array(aspec, (len(mors),), f"{path}/action")
            for i, g in enumerate(mors):
                maps[g] = _ring_map(base, aspec[i], f"{path}/action")
        return skew_group_ring(base, group, maps)
    if kind == "crossed_product":
        # group crossed product with explicit sigma/alpha/twists
        from .constructions.crossed import CrossedSystem, crossed_product
        base = _child_ring(doc["base"], f"{path}/base")
        group = _parse_group(doc["group"], f"{path}/group")
        if len(group.objects) > 1:
            raise SchemaError(f"{path}/group", f"a crossed_product recipe has one base ring, "
                              f"so it needs a group, not a groupoid with "
                              f"{len(group.objects)} objects")
        mors = list(group.morphisms)
        frob = _frobenius(doc["base"], f"{path}/base")
        sigma = {g: _ring_map(base, spec, f"{path}/sigma", frobenius=frob)
                 for g, spec in zip(mors, _array(doc["sigma"], (len(mors),), f"{path}/sigma"))}
        alpha = (_pair_table(doc["alpha"], group, f"{path}/alpha",
                             functools.partial(_unit_multiple, base))
                 if "alpha" in doc else {})
        twists = (_pair_table(doc["twists"], group, f"{path}/twists", _twist)
                  if "twists" in doc else {})
        obj = group.objects[0]
        sys = CrossedSystem(group, {obj: base}, sigma, alpha=alpha, twists=twists)
        return crossed_product(sys)
    if kind == "matrix_ring":
        base = _child_ring(doc["base"], f"{path}/base")
        n = _size(doc, "size", path)
        alphas = None
        if "alphas" in doc:
            alphas = {}
            for key, val in doc["alphas"].items():
                try:
                    ijk = tuple(int(x) for x in key.split(","))
                except ValueError:
                    ijk = ()
                if len(ijk) != 3 or not all(0 <= x < n for x in ijk):
                    raise SchemaError(f"{path}/alphas", f"bad key {key!r}, expected "
                                      f"\"i,j,k\" with indices in [0, {n})")
                alphas[ijk] = _unit_multiple(base, val, f"{path}/alphas")
        return matrix_ring(n, base, alphas=alphas)
    if kind == "ore_extension":
        base = _child_ring(doc["base"], f"{path}/base")
        sigma = _ring_map(base, doc["sigma"], f"{path}/sigma",
                          frobenius=_frobenius(doc["base"], f"{path}/base"))
        dspec = doc["delta"]
        if dspec == "zero":
            delta = RingMap(base, base, base.scalar_operator(0))
        else:
            delta = _ring_map(base, dspec, f"{path}/delta")
        return SigmaDerivationData(base, sigma, delta)
    if kind == "dynamics":
        group = _parse_group(doc["group"], f"{path}/group")
        dom = _field(doc["field"], f"{path}/field")
        mors = list(group.morphisms)
        points = _size(doc, "points", path)
        action = {g: tuple(row) for g, row in
                  zip(mors, _array(doc["action"], (len(mors), points), f"{path}/action"))}
        return dynamics_skew_group_ring(points, group, action, dom)
    raise UnknownKind(kind)


def _child_ring(spec, path):
    if isinstance(spec, str):
        return _scalar_ring(spec, path)
    if isinstance(spec, dict):
        built = _build(spec, path)
        ring = ring_of(built)
        if not isinstance(ring, Ring):
            raise SchemaError(path, f"the {spec['kind']} recipe does not build a ring")
        return ring
    raise SchemaError(path, "base must be a scalar spec or a recipe object")
