"""A jet-space oracle for lattices: linear algebra over the residue field k.

A lattice L with t^N R^n <= L <= t^lo R^n is determined by its image in the
finite-dimensional k-space t^lo R^n / t^hi R^n for any hi >= N, and that
image is the k-span of the truncated vectors t^s * g, s >= 0, over any set
of generators g of L.  So membership, containment and equality of lattices
are rank tests over k: Fractions on Q, ints mod p on GF(p).  Elements are
read only through their stored terms (``ord``, ``coeffs``, ``den``); no
Laurent arithmetic, division by t-powers or Hermite form is used, so the
oracle shares no kernel with the library.

The bound N is the claimed one, read off a lattice's pivot exponents, and
it is verified, never trusted: by Nakayama, t^N R^n lies in the span S
exactly when every t^(N + rho) * e_i, rho < step, lies in S + t^(N + step)
R^n, where step is 1 for an R-span and e for an R_Y-span (below).  A span
that fails this has no bound N, and ``same`` calls it different from one
that passes.

Restriction of scalars along w = u * t^e is the identity on sets, read in
coordinates: a vector Y over K_Y of rank n * e is the vector X over K_X
with X_i = sum over rho of t^rho * Y_(i*e + rho)(u * t^e), so a term
c * w^b at row i*e + rho is c * u^b * t^(e*b + rho) at row i
(``unrestricted``).  The R_Y-span of vectors is the k-span of their
multiples by w^s, that is, up to the units u^s, of t^(e*s) * X: a span of
step e.  Pullback is base change along the same relation, read the other
way: t_y = u * t_x^e substituted in every entry (``substituted``).
"""

from fractions import Fraction


def terms(x, p):
    """{exponent: value} of a Laurent element; values are Fractions on Q
    (p = 0) and residues mod p on GF(p)."""
    if p:
        return {x.ord + i: c % p for i, c in enumerate(x.coeffs) if c % p}
    return {x.ord + i: Fraction(c, x.den) for i, c in enumerate(x.coeffs) if c}


def jets(p, v):
    """A vector of Laurent elements as one {exponent: value} dict per row."""
    return [terms(x, p) for x in v]


def shifted(vec, d):
    """t^d * vec."""
    return [{k + d: c for k, c in row.items()} for row in vec]


def padded(vec, before, after):
    """vec with ``before`` zero rows above it and ``after`` below it."""
    return [{} for _ in range(before)] + vec + [{} for _ in range(after)]


def substituted(p, v, e, u):
    """Base change of a vector along t_y = u * t_x^e: each term c * t^b of
    an entry becomes c * u^b * t^(e*b)."""
    out = []
    for x in v:
        row = {}
        for b, c in terms(x, p).items():
            ub = pow(u, b, p) if p else Fraction(u) ** b
            row[e * b] = c * ub % p if p else c * ub
        out.append(row)
    return out


def unrestricted(p, v, e, u):
    """The K_X-vector of rank n of a K_Y-vector v of rank n * e, w = u * t^e:
    row i*e + rho substituted and multiplied by t^rho, summed into row i (the
    rows of one block land on distinct residues mod e)."""
    out = [{} for _ in range(len(v) // e)]
    for r, row in enumerate(substituted(p, v, e, u)):
        i, rho = divmod(r, e)
        out[i].update((d + rho, c) for d, c in row.items())
    return out


def lowest(vecs):
    """The least exponent in the vectors; None if they are all zero."""
    return min((k for vec in vecs for row in vec for k in row), default=None)


class Span:
    """A k-subspace of t^lo R^n / t^hi R^n in echelon form.

    Coordinate (row i, exponent d) is the index (d - lo) * n + i; each basis
    vector is a dict index -> value, keyed by its least index (its pivot),
    where its value is 1."""

    def __init__(self, p, n, lo, hi):
        self.p, self.n, self.lo, self.hi = p, n, lo, hi
        self.rows = {}

    def _coords(self, vec):
        """The coordinates of vec mod t^hi; None if a term lies below lo."""
        out = {}
        for i, row in enumerate(vec):
            for d, c in row.items():
                if d < self.lo:
                    return None
                if d < self.hi:
                    out[(d - self.lo) * self.n + i] = c
        return out

    def _reduce(self, coords):
        p, rows = self.p, self.rows
        while coords:
            piv = min(coords)
            row = rows.get(piv)
            if row is None:
                return coords, piv
            c = coords[piv]
            for k, y in row.items():
                v = coords.get(k, 0) - c * y
                if p:
                    v %= p
                if v:
                    coords[k] = v
                else:
                    coords.pop(k, None)
        return coords, None

    def add(self, vec):
        coords = self._coords(vec)
        if coords is None:
            raise ValueError("a generator has a term below t^%d" % self.lo)
        coords, piv = self._reduce(coords)
        if piv is not None:
            c = coords[piv]
            inv = pow(c, -1, self.p) if self.p else 1 / c
            self.rows[piv] = {k: (y * inv % self.p if self.p else y * inv)
                              for k, y in coords.items()}

    def add_module(self, gens, step=1):
        """The k-span of t^(step * s) * g, s >= 0, for every generator g."""
        for g in gens:
            low = lowest([g])
            if low is not None:
                for s in range(0, self.hi - low, step):
                    self.add(shifted(g, s))

    def has(self, vec):
        coords = self._coords(vec)
        return coords is not None and self._reduce(coords)[1] is None

    def contains(self, other):
        """True iff every basis vector of the Span ``other`` lies in this one."""
        return all(self._reduce(dict(row))[1] is None for row in other.rows.values())

    @property
    def dim(self):
        return len(self.rows)

    def ball(self, N, step):
        """True iff t^N R^n lies in the span, for a span of this step and
        hi = N + step (Nakayama, see the module docstring)."""
        return all(self.has([{N + rho: 1} if r == i else {} for r in range(self.n)])
                   for i in range(self.n) for rho in range(step))


def stored_form_holds(lattice):
    """True iff the stored form is canonical, read through the terms of the
    entries: in column j the pairs (i, x) are nonzero, in increasing row
    order, above the pivot (i < j), and of degree below their row's pivot
    exponent diag[i].  Span equality cannot see an entry left unreduced;
    ``==`` compares stored forms, so such an entry makes equal lattices
    unequal."""
    p, diag = lattice.field.p, lattice.diag
    for j, ent in enumerate(lattice.entries):
        last = -1
        for i, x in ent:
            exps = terms(x, p)
            if not (last < i < j and exps and max(exps) < diag[i]):
                return False
            last = i
    return True


def lattice_gens(lattice):
    """The basis columns of a lattice as jet vectors.  The oracle reads
    every lattice through here, so each has its stored form checked first:
    ValueError if it is not canonical."""
    if not stored_form_holds(lattice):
        raise ValueError("the stored form of %r is not canonical" % (lattice,))
    return [jets(lattice.field.p, col) for col in lattice.cols]


def bound(lattice):
    """The claimed N with t^N R^n <= L: the colength sum(diag) relative to
    R^n over a floor lo <= every exponent of the basis gives
    N = sum(diag) - (n - 1) * lo."""
    return sum(lattice.diag) - (lattice.n - 1) * lowest(lattice_gens(lattice))


def _spans(p, n, modules, N):
    """Each (gens, step) module as a Span of one common window [lo, N + step)."""
    lo = min([N] + [low for gens, _ in modules for low in [lowest(gens)] if low is not None])
    hi = N + max(step for _, step in modules)
    out = []
    for gens, step in modules:
        span = Span(p, n, lo, hi)
        span.add_module(gens, step)
        out.append(span)
    return out


def same(p, n, a, b, N):
    """True iff the modules a = (gens, step) and b span the same lattice and
    it contains t^N R^n."""
    sa, sb = _spans(p, n, [a, b], N)
    step = max(a[1], b[1])
    if not (sa.ball(N, step) and sb.ball(N, step)):
        return False
    return sa.dim == sb.dim and sb.contains(sa)


def spans_ball(p, n, gens, N):
    """True iff the R-span of gens contains t^N R^n.  A span of rank below
    n contains no such ball, whatever N."""
    (span,) = _spans(p, n, [(gens, 1)], N)
    return span.ball(N, 1)


def _lattice_span(lattice):
    """The lattice's Span over the window of its claimed bound N, and N."""
    N = bound(lattice)
    return _spans(lattice.field.p, lattice.n, [(lattice_gens(lattice), 1)], N)[0], N


def member(lattice, vecs):
    """True iff every vector of Laurent elements in vecs lies in the
    lattice, by rank tests over k.  The lattice lies in t^lo R^n for the
    least exponent lo of its basis, so a vector with a term below t^lo is
    no member; its claimed bound N is verified (ValueError if t^N R^n is
    not in its span)."""
    span, N = _lattice_span(lattice)
    if not span.ball(N, 1):
        raise ValueError("the span does not contain t^%d R^%d" % (N, lattice.n))
    return all(span.has(jets(lattice.field.p, v)) for v in vecs)


def colength_holds(lattice):
    """True iff the claimed pivot exponents are the lattice's colength: the
    image in t^lo R^n / t^hi R^n has dimension n * hi - sum(diag)."""
    span, N = _lattice_span(lattice)
    return span.ball(N, 1) and span.dim == lattice.n * span.hi - sum(lattice.diag)
