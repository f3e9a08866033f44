"""Exact coefficient fields: the rationals and prime fields GF(p).

Field elements are plain objects supporting +, -, *, /, ==, bool: rational
values are fractions.Fraction, prime-field values are FpElement wrappers.
They are boundary values only: they carry parsed numbers, generator
constants and branch units into the Laurent elements, which store
integers (localring).  Linear algebra over k runs on constant Laurent
matrices, never on field values.
"""

from __future__ import annotations

import math
from fractions import Fraction

class FpElement:
    """An element of GF(p), p prime."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        if isinstance(other, int):
            return FpElement(self.v + other, self.p)
        return FpElement(self.v + other.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return FpElement(self.v - other, self.p)
        return FpElement(self.v - other.v, self.p)

    def __rsub__(self, other):
        return FpElement(other - self.v, self.p)

    def __mul__(self, other):
        if isinstance(other, int):
            return FpElement(self.v * other, self.p)
        return FpElement(self.v * other.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = FpElement(other, self.p)
        return self * other.inv()

    def __rtruediv__(self, other):
        return FpElement(other, self.p) * self.inv()

    def __neg__(self):
        return FpElement(-self.v, self.p)

    def __pow__(self, k):
        return FpElement(pow(self.v, k, self.p), self.p)

    def inv(self):
        if self.v == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return FpElement(pow(self.v, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, int):
            # only the reduced residue, so that equal values hash alike
            return self.v == other
        if isinstance(other, FpElement):
            return self.v == other.v and self.p == other.p
        return NotImplemented

    def __hash__(self):
        # consistent with equality against the int residue
        return hash(self.v)

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class RationalField:
    """The field of rational numbers."""

    name = "rational"
    p = 0  # the characteristic; LocalElement stores it

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        """Coerce an int, Fraction or 'a/b' string to a field element."""
        return Fraction(x)

    def random_nonzero(self, rng, bound=5):
        v = 0
        while v == 0:
            v = rng.randint(-bound, bound)
        return self.of(v)

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("p must be prime, got %d" % p)
        self.p = p
        self.name = "prime:%d" % p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def of(self, x):
        if isinstance(x, str):
            fr = Fraction(x)
            return FpElement(fr.numerator, self.p) / FpElement(fr.denominator, self.p)
        if isinstance(x, Fraction):
            return FpElement(x.numerator, self.p) / FpElement(x.denominator, self.p)
        if isinstance(x, FpElement):
            return x
        return FpElement(x, self.p)

    def random_nonzero(self, rng, bound=None):
        return FpElement(rng.randint(1, self.p - 1), self.p)

    def to_str(self, a):
        return str(a.v)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_name(name):
    """Parse 'rational' or 'prime:p' with p < 2^31 into a field object.

    The bound keeps the trial-division primality test of PrimeField fast.
    """
    if name == "rational":
        return QQ
    if type(name) is str and name.startswith("prime:"):
        p = int(name.split(":", 1)[1])
        if p >= 2 ** 31:
            raise ValueError("prime %d is too large; fields need p < 2^31" % p)
        return PrimeField(p)
    raise ValueError("unknown field %r" % (name,))
