"""Exact coefficient fields: the rationals and prime fields GF(p).

A field object is a codec for boundary values, not an arithmetic type:
it parses (``of``) and draws (``random_nonzero``) field values.  Rational
values are fractions.Fraction; GF(p) values are plain int residues in
[0, p); ``str`` prints either.  They carry parsed numbers, generator
constants and branch units into the Laurent elements, which store
integers (localring).  Linear algebra over k runs on constant Laurent
matrices, never on field values.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


class RationalField:
    """The field of rational numbers."""

    name = "rational"
    p = 0  # the characteristic; LocalElement stores it
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x):
        """Coerce an int, Fraction or 'a/b' string to a field element."""
        return Fraction(x)

    def random_nonzero(self, rng):
        """A nonzero integer in [-5, 5]."""
        v = 0
        while v == 0:
            v = rng.randint(-5, 5)
        return self.of(v)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a prime p."""

    zero = 0
    one = 1

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            raise ValueError("p must be prime, got %d" % p)
        self.p = p
        self.name = "prime:%d" % p

    def of(self, x):
        """The residue of an int, Fraction or 'a/b' string; ValueError when
        the denominator is divisible by p."""
        if isinstance(x, str):
            x = Fraction(x)
        if isinstance(x, Fraction):
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return operator.index(x) % self.p

    def random_nonzero(self, rng):
        return rng.randint(1, self.p - 1)

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
