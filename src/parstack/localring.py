"""Laurent polynomials in the local uniformizer t over an exact field.

A LocalElement is t**t_order * (c0 + c1*t + ...) with c0 nonzero; the zero
element has empty coefficients and t_order 0.  Elements with t_order >= 0
form the local ring R = k[t] localized at (t); general elements are a dense
model of the fraction field K, sufficient because every lattice arising in
the library is spanned by Laurent-polynomial vectors.
"""

from __future__ import annotations


class LocalElement:
    __slots__ = ("ord", "coeffs")

    def __init__(self, t_order, coeffs):
        """Internal: coeffs must already be normalized (c0 != 0 or empty)."""
        self.ord = t_order
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def make(t_order, coeffs):
        """Build from a raw coefficient sequence, normalizing."""
        cs = list(coeffs)
        lead = 0
        while lead < len(cs) and cs[lead] == 0:
            lead += 1
        tail = len(cs)
        while tail > lead and cs[tail - 1] == 0:
            tail -= 1
        if lead == tail:
            return _ZERO
        return LocalElement(t_order + lead, tuple(cs[lead:tail]))

    @staticmethod
    def const(c):
        if c == 0:
            return _ZERO
        return LocalElement(0, (c,))

    @staticmethod
    def t_power(field, d):
        return LocalElement(d, (field.one,))

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient; None for zero."""
        if not self.coeffs:
            return None
        return self.ord + len(self.coeffs) - 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        lo = min(self.ord, other.ord)
        hi = max(self.ord + len(self.coeffs), other.ord + len(other.coeffs))
        cs = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            cs[self.ord - lo + i] = c
        for i, c in enumerate(other.coeffs):
            cs[other.ord - lo + i] = cs[other.ord - lo + i] + c
        return LocalElement.make(lo, cs)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if not self.coeffs:
            return self
        return LocalElement(self.ord, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return _ZERO
        a, b = self.coeffs, other.coeffs
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                cs[i + j] = cs[i + j] + ai * bj
        # leading coefficient product can vanish only in characteristic p
        return LocalElement.make(self.ord + other.ord, cs)

    def scalar_mul(self, c):
        if c == 0 or not self.coeffs:
            return _ZERO
        return LocalElement.make(self.ord, [c * x for x in self.coeffs])

    def shift(self, d):
        """Multiply by t**d."""
        if not self.coeffs:
            return self
        return LocalElement(self.ord + d, self.coeffs)

    # -- exponent surgery --------------------------------------------------

    def truncate(self, exp):
        """Drop all terms with exponent >= exp."""
        if not self.coeffs or self.ord + len(self.coeffs) <= exp:
            return self
        if self.ord >= exp:
            return _ZERO
        return LocalElement.make(self.ord, self.coeffs[: exp - self.ord])

    def high_div(self, exp):
        """Terms with exponent >= exp, divided by t**exp."""
        if not self.coeffs:
            return self
        if self.ord >= exp:
            return self.shift(-exp)
        drop = exp - self.ord
        if drop >= len(self.coeffs):
            return _ZERO
        return LocalElement.make(0, self.coeffs[drop:])

    def coefficient(self, exp):
        """Coefficient of t**exp (field element or int 0)."""
        i = exp - self.ord
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def unit_poly(self):
        """The unit factor: self * t**(-ord)."""
        if not self.coeffs:
            raise ZeroDivisionError("zero has no unit part")
        return LocalElement(0, self.coeffs)

    def inv_series(self, nterms):
        """Power-series inverse of a unit (ord == 0), truncated to nterms."""
        if self.ord != 0 or not self.coeffs:
            raise ZeroDivisionError("not a unit of R")
        a = self.coeffs
        if len(a) == 1:
            return LocalElement(0, (1 / a[0],))
        inv0 = 1 / a[0]
        out = [inv0]
        for m in range(1, nterms):
            acc = 0
            for i in range(1, min(m, len(a) - 1) + 1):
                acc = acc + a[i] * out[m - i]
            out.append(-inv0 * acc)
        return LocalElement.make(0, out)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LocalElement):
            return NotImplemented
        return self.ord == other.ord and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ord, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.ord + i
            if e == 0:
                parts.append("%s" % (c,))
            elif e == 1:
                parts.append("%s*t" % (c,))
            else:
                parts.append("%s*t^%d" % (c, e))
        return " + ".join(parts)


_ZERO = LocalElement(0, ())
