"""Scalar domains: exact rationals and integers modulo n.

Scalars themselves are plain Python values (``fractions.Fraction`` for the
rationals, reduced ``int`` residues for Z_n); a domain object supplies the
arithmetic, parsing and formatting.  Fractions are always in lowest terms
with positive denominator (the stdlib guarantees this), residues always lie
in [0, n).  Division is only defined where an inverse exists; asking for the
inverse of a non-unit raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The field of rational numbers with exact Fraction arithmetic."""

    name = "Q"
    char = 0
    is_field = True
    size = None  # infinite

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        """``x`` as a Fraction; a Fraction passes through unchanged (building
        it again would take the slow ``numbers.Rational`` path)."""
        return x if type(x) is Fraction else Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("0 is not invertible in Q")
        return 1 / Fraction(a)

    def div(self, a, b):
        return a * self.inv(b)

    def is_zero(self, a):
        return not a

    def parse(self, text):
        """Parse "p/q" or integer literals into a Fraction."""
        if isinstance(text, str):
            return Fraction(text)
        if isinstance(text, int):
            return Fraction(text)
        raise ValueError(f"cannot parse rational from {text!r}")

    def format(self, a):
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


class IntegersMod:
    """Z_n with reduced-residue representatives.

    Composite n is allowed (the Z_4 and Z_6 counterexamples need non-fields);
    ``is_field`` is True exactly for prime n, and linear-algebra routines
    refuse non-field domains.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("modulus must be at least 2")
        self.n = n
        self.is_field = is_prime(n)
        self.char = n
        self.size = n
        self.name = f"Fp:{n}" if self.is_field else f"Zn:{n}"
        self.zero = 0
        self.one = 1 % n

    def coerce(self, x):
        return int(x) % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def inv(self, a):
        a = a % self.n
        try:
            return pow(a, -1, self.n)
        except ValueError:
            raise ZeroDivisionError(f"{a} is not a unit mod {self.n}")

    def div(self, a, b):
        return (a * self.inv(b)) % self.n

    def is_zero(self, a):
        return a % self.n == 0

    def parse(self, text):
        return int(text) % self.n

    def format(self, a):
        return str(a % self.n)

    def __repr__(self):
        return f"IntegersMod({self.n})"

    def __eq__(self, other):
        return isinstance(other, IntegersMod) and other.n == self.n

    def __hash__(self):
        return hash(("Zn", self.n))


QQ = Rationals()


def GF(p: int) -> IntegersMod:
    """The prime field F_p."""
    dom = IntegersMod(p)
    if not dom.is_field:
        raise ValueError(f"{p} is not prime")
    return dom


def parse_scalar_domain(spec: str):
    """Parse a scalar domain spec: "Q", "Fp:<prime>" or "Zn:<n>"."""
    if spec == "Q":
        return QQ
    if spec.startswith("Fp:"):
        return GF(int(spec[3:]))
    if spec.startswith("Zn:"):
        return IntegersMod(int(spec[3:]))
    raise ValueError(f"unknown scalar domain spec {spec!r}")
