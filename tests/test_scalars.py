from fractions import Fraction

import pytest

from ringlab import linalg
from ringlab.errors import SchemaError
from ringlab.linalg import GF, QQ, is_prime
from ringlab.recipes import _field
from ringlab.rings import StructureAlgebra


def test_rationals_are_canonical():
    assert QQ.coerce("2/4") == Fraction(1, 2)
    assert QQ.coerce("-3/6") == Fraction(-1, 2)
    assert QQ.coerce("4") == Fraction(4)
    # canonical form: lowest terms, positive denominator
    assert QQ.coerce("2/4").denominator == 2
    assert QQ.div(Fraction(1), Fraction(3)) == Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_prime_field_arithmetic():
    f7 = GF(7)
    assert f7.add(4, 5) == 2
    assert f7.neg(2) == 5
    assert f7.mul(3, 4) == 5
    assert f7.div(1, 3) == 5
    assert f7.coerce(-1) == f7.coerce("13") == 6
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)


def test_prime_fields():
    f7 = GF(7)
    assert f7.inv(3) == 5
    with pytest.raises(ValueError):
        GF(6)


def test_one_object_per_prime_field():
    assert GF(3) is GF(3)
    assert GF(3) == linalg.ModP(3) and hash(GF(3)) == hash(linalg.ModP(3))
    assert GF(3) != GF(5) and GF(3) != QQ
    assert QQ is linalg.RATIONAL
    assert StructureAlgebra(GF(3), 1, [[[1]]]).F is GF(3)


def test_is_prime_small():
    primes = [n for n in range(2, 40) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    assert not any(is_prime(n) for n in (-7, 0, 1))


def test_parse_scalar_domain():
    # a scalar spec that names a field: "Zn:p" for a prime p is F_p, and a
    # composite "Zn:n" is refused at its JSON path
    assert _field("Q", "/field") is QQ
    assert _field("Fp:5", "/field") is GF(5)
    assert _field("Zn:5", "/field") is GF(5) and GF(5).name == "Fp:5"
    with pytest.raises(SchemaError) as err:
        _field("Zn:6", "/field")
    assert err.value.path == "/field" and "6 is not prime" in str(err.value)
    for spec in ("R", "F4", "Fp:x"):
        with pytest.raises(SchemaError):
            _field(spec, "/field")
