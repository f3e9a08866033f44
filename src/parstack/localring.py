"""Laurent polynomials in the local uniformizer t over Q or GF(p).

A LocalElement is t**ord * (c0 + c1*t + ... + ck*t^k) / den with integer
coefficients:

* over Q (``p == 0``), ``coeffs`` are Python ints over the one shared
  denominator ``den``;
* over GF(p), ``coeffs`` are residues in [0, p) and ``den == 1``.

The form is unique: ``den > 0``, ``gcd(den, *coeffs) == 1``, and the first
and last coefficients are nonzero.  Equal values therefore have equal
fields, which is what ``==`` and ``hash`` compare.  The zero element is one
shared object with empty ``coeffs``, ``ord == 0`` and ``den == 1``; it
belongs to every field, and no operation builds another.  Each operation
adds or convolves integers and reduces once: one gcd over Q, one ``% p``
per coefficient over GF(p).  The exception is a product with a factor
t^d (``coeffs == (1,)``, ``den == 1``): it is re-indexing, so it moves the
other factor's order by d and reuses its coefficient tuple and
denominator, with no convolution and no reduction.

Field values (``Fraction`` over Q, int residues over GF(p)) appear only
as inputs: building an element from them (``make``, ``const``) and as
the unit u of the three kernels that edit exponents along w = u * t^e.
``twist`` multiplies the coefficient of t^q by u^(+-q); ``component``
reads the terms t^(q*e + rho) as u^-q * w^q (the direct image restricts
scalars with it); ``substitute`` puts u * t^e in place of t (the
pullback's base change).  They share one core that twists a run of
coefficients and reduces once, and a one-term element, such as every
pivot t^a, takes its O(1) path: one power of the unit and one gcd over
Q, one modular product over GF(p).  No method returns a field value;
``coeff_texts`` prints the stored integers as exact text for scenario
files and ``repr``.  The field is passed explicitly when an element is
built from values, and stored as its characteristic ``p``.

Elements with ord >= 0 form the local ring R = k[t] localized at (t);
general elements are a dense model of the fraction field K, sufficient
because every lattice arising in the library is spanned by
Laurent-polynomial vectors.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import index


class LocalElement:
    __slots__ = ("ord", "coeffs", "den", "p")

    def __init__(self, t_order, coeffs, den, p):
        """Internal: the arguments must already be in normal form."""
        self.ord = t_order
        self.coeffs = coeffs
        self.den = den
        self.p = p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return _ZERO

    @staticmethod
    def make(field, t_order, values):
        """t**t_order * sum(values[i] * t**i) for values in ``field``."""
        p = field.p
        if p:
            return _normal(t_order, [_residue(v, p) for v in values], 1, p)
        den = lcm(*[v.denominator for v in values])
        return _normal(t_order, [v.numerator * (den // v.denominator)
                                 for v in values], den, 0)

    @staticmethod
    def const(field, c):
        return LocalElement.make(field, 0, (c,))

    @staticmethod
    def t_power(field, d):
        return LocalElement(d, (1,), 1, field.p)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Largest exponent with nonzero coefficient; None for zero."""
        if not self.coeffs:
            return None
        return self.ord + len(self.coeffs) - 1

    # -- text --------------------------------------------------------------

    def coeff_texts(self):
        """The coefficients as exact text, lowest exponent first: "c" or
        "c/d" in lowest terms over Q, the residue over GF(p)."""
        if self.p or self.den == 1:
            return [str(c) for c in self.coeffs]
        den, out = self.den, []
        for c in self.coeffs:
            g = gcd(c, den)
            out.append(str(c // g) if g == den else "%d/%d" % (c // g, den // g))
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _combine(self, other, False)

    def __sub__(self, other):
        return _combine(self, other, True)

    def __neg__(self):
        if not self.coeffs:
            return self
        p = self.p
        if p:
            return LocalElement(self.ord, tuple([-c % p for c in self.coeffs]), 1, p)
        return LocalElement(self.ord, tuple([-c for c in self.coeffs]), self.den, 0)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        # a factor t^d moves the other's order and keeps its coefficients
        if b == (1,) and other.den == 1:
            return LocalElement(self.ord + other.ord, a, self.den, self.p)
        if a == (1,) and self.den == 1:
            return LocalElement(self.ord + other.ord, b, other.den, self.p)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            b0 = b[0]
            cs = [c * b0 for c in a]
        else:
            cs = [0] * (len(a) + len(b) - 1)
            for j, bj in enumerate(b):
                for i, ai in enumerate(a, j):
                    cs[i] += ai * bj
        # the end coefficients are products of nonzero field elements
        t_order, p = self.ord + other.ord, self.p
        if p:
            return LocalElement(t_order, tuple([c % p for c in cs]), 1, p)
        den = self.den * other.den
        if den != 1:
            g = gcd(den, *cs)
            if g != 1:
                cs = [c // g for c in cs]
                den //= g
        return LocalElement(t_order, tuple(cs), den, 0)

    def shift(self, d):
        """Multiply by t**d."""
        if not self.coeffs or not d:
            return self
        return LocalElement(self.ord + d, self.coeffs, self.den, self.p)

    # -- exponent surgery --------------------------------------------------

    def truncate(self, exp):
        """Drop all terms with exponent >= exp."""
        if not self.coeffs or self.ord + len(self.coeffs) <= exp:
            return self
        if self.ord >= exp:
            return _ZERO
        return _normal(self.ord, self.coeffs[: exp - self.ord], self.den, self.p)

    def high_div(self, exp):
        """Terms with exponent >= exp, divided by t**exp."""
        if not self.coeffs:
            return self
        if self.ord >= exp:
            return self.shift(-exp)
        drop = exp - self.ord
        if drop >= len(self.coeffs):
            return _ZERO
        return _normal(0, self.coeffs[drop:], self.den, self.p)

    def spread(self, e):
        """Substitute t**e for t."""
        if not self.coeffs or e == 1:
            return self
        cs = [0] * ((len(self.coeffs) - 1) * e + 1)
        cs[::e] = self.coeffs
        return LocalElement(self.ord * e, tuple(cs), self.den, self.p)

    def twist(self, u, sign=1):
        """Multiply the coefficient of t**q by u**(sign*q), u a nonzero field
        value and sign +1 or -1."""
        return _twisted(self.ord, self.coeffs, self.den, self.p, u, sign) or self

    def component(self, e, rho, u):
        """Component rho along t**e = w / u: the coefficient of t**(q*e + rho)
        times u**-q, at w**q, summed over q.  A decimation of the exponents
        and ``twist(u, -1)`` in one pass and one reduction."""
        cs = self.coeffs
        start = (rho - self.ord) % e
        if start >= len(cs):
            return _ZERO
        q0, cs = (self.ord + start - rho) // e, cs[start::e]
        return _twisted(q0, cs, self.den, self.p, u, -1) or _normal(q0, cs, self.den, self.p)

    def substitute(self, e, u):
        """Substitute u * t**e for t: ``twist(u)``, then ``spread(e)``."""
        if not self.coeffs:
            return self
        return (_twisted(self.ord, self.coeffs, self.den, self.p, u, 1) or self).spread(e)

    def unit_poly(self):
        """The unit factor: self * t**(-ord)."""
        if not self.coeffs:
            raise ZeroDivisionError("zero has no unit part")
        return LocalElement(0, self.coeffs, self.den, self.p)

    def inv_series(self, nterms):
        """Power-series inverse of a unit (ord == 0), truncated to nterms."""
        if self.ord != 0 or not self.coeffs:
            raise ZeroDivisionError("not a unit of R")
        a, p = self.coeffs, self.p
        k = len(a) - 1
        if p:
            inv0 = pow(a[0], -1, p)
            if not k:
                return LocalElement(0, (inv0,), 1, p)
            out = [inv0]
            for m in range(1, nterms):
                acc = 0
                for i in range(1, min(m, k) + 1):
                    acc += a[i] * out[m - i]
                out.append(-inv0 * acc % p)
            return _normal(0, out, 1, p)
        a0, d = a[0], self.den
        if not k:
            # the inverse of a0/d is d/a0, already in lowest terms
            return LocalElement(0, (d if a0 > 0 else -d,), abs(a0), 0)
        # 1/A = sum b_m t^m with b_m = b'_m / a0^(m+1), b'_0 = 1 and
        # b'_m = -sum_{i>=1} a_i * b'_{m-i} * a0^(i-1); times d, over a0^nterms
        w = [0] * (k + 1)
        f = 1
        for i in range(1, k + 1):
            w[i] = a[i] * f
            f *= a0
        b = [1]
        for m in range(1, nterms):
            acc = 0
            for i in range(1, min(m, k) + 1):
                acc += w[i] * b[m - i]
            b.append(-acc)
        f = d
        for m in range(nterms - 1, -1, -1):
            b[m] *= f
            f *= a0
        den = f // d  # a0 ** nterms
        if den < 0:
            den, b = -den, [-c for c in b]
        return _normal(0, b, den, 0)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LocalElement):
            return NotImplemented
        return (self.ord == other.ord and self.coeffs == other.coeffs
                and self.den == other.den and self.p == other.p)

    def __hash__(self):
        return hash((self.ord, self.coeffs, self.den))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeff_texts()):
            if c == "0":
                continue
            e = self.ord + i
            if e == 0:
                parts.append(c)
            elif e == 1:
                parts.append("%s*t" % c)
            else:
                parts.append("%s*t^%d" % (c, e))
        return " + ".join(parts)


_ZERO = LocalElement(0, (), 1, 0)


def _residue(c, p):
    """The residue in [0, p) of a GF(p) value; anything but an int (a float
    from a stray division, a Fraction) raises TypeError."""
    return index(c) % p


def _normal(t_order, cs, den, p):
    """The element t**t_order * sum(cs[i] * t**i) / den in normal form;
    cs are residues over GF(p), and den > 0 over Q."""
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    if lo == hi:
        return _ZERO
    while not cs[hi - 1]:
        hi -= 1
    cs = cs[lo:hi]
    if den != 1:
        g = gcd(den, *cs)
        if g != 1:
            cs = [c // g for c in cs]
            den //= g
    return LocalElement(t_order + lo, tuple(cs), den, p)


def _twisted(q0, cs, den, p, u, sign):
    """The element sum(cs[i] * u**(sign*(q0 + i)) * t**(q0 + i)) / den in
    normal form: the core of ``twist``, ``component`` and ``substitute``.
    cs is a tuple of integers over den (residues over GF(p)) that may have
    zero ends and share a factor with den; u is a nonzero field value.
    None when u is 1: the run is unchanged, so ``twist`` and ``substitute``
    keep their element and ``component`` only normalizes its run.  A unit
    multiplier keeps nonzero terms nonzero, so the ends are stripped first,
    and a one-term run takes one power of the unit and one gcd over Q, or
    one modular product over GF(p)."""
    if p:
        w = _residue(u, p)
        if w == 1:
            return None
    else:
        un, ud = (u.numerator, u.denominator) if sign > 0 else (u.denominator, u.numerator)
        if un == ud:
            return None
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    if lo == hi:
        return _ZERO
    while not cs[hi - 1]:
        hi -= 1
    cs, q0, k = cs[lo:hi], q0 + lo, hi - lo - 1
    if p:
        f = pow(w, sign * q0, p)
        if not k:
            return LocalElement(q0, (cs[0] * f % p,), 1, p)
        if sign < 0:
            w = pow(w, -1, p)
        out = []
        for c in cs:
            out.append(c * f % p)
            f = f * w % p
        return LocalElement(q0, tuple(out), 1, p)
    scale, den = (un ** q0, den * ud ** q0) if q0 >= 0 else (ud ** -q0, den * un ** -q0)
    if not k:
        cs = (cs[0] * scale,)
    else:
        # c_i * (un/ud)^(q0+i) = c_i * un^i * ud^(k-i) * (un/ud)^q0 / ud^k
        udpow = [1] * (k + 1)
        for i in range(1, k + 1):
            udpow[i] = udpow[i - 1] * ud
        out, unpow = [], scale
        for i, c in enumerate(cs):
            out.append(c * unpow * udpow[k - i])
            unpow *= un
        cs, den = out, den * udpow[k]
    if den < 0:
        cs, den = [-c for c in cs], -den
    if den != 1:
        g = gcd(den, *cs)
        if g != 1:
            cs = [c // g for c in cs]
            den //= g
    return LocalElement(q0, tuple(cs), den, 0)


def _combine(x, y, subtract):
    """x + y, or x - y when subtract is set."""
    b = y.coeffs
    if not b:
        return x
    a = x.coeffs
    if not a:
        return -y if subtract else y
    p, da, db = x.p, x.den, y.den
    if da == db:
        den = da
    else:
        g = gcd(da, db)
        fa, fb = db // g, da // g
        a = [c * fa for c in a]
        b = [c * fb for c in b]
        den = da * fa
    lo = min(x.ord, y.ord)
    cs = [0] * (max(x.ord + len(a), y.ord + len(b)) - lo)
    off = x.ord - lo
    cs[off:off + len(a)] = a
    off = y.ord - lo
    if subtract:
        for i, c in enumerate(b, off):
            cs[i] -= c
    else:
        for i, c in enumerate(b, off):
            cs[i] += c
    if p:
        for i in range(off, off + len(b)):
            cs[i] %= p
    return _normal(lo, cs, den, p)
