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

Above the lattices, every point-level result is a k-linear fact about
jets.  A member of a direct image is a direct sum of restricted twisted
members (``pushed``); a morphism maps each generator of a source member
into the target member (``maps_into``); a weight multiplicity is a
difference of colengths, each read off a span's dimension (``colength``);
and a pairing is perfect when the Gram valuations bound F^T * E^a into
t^(1+g) * (E^b)^* and the colengths of the two sides agree (``perfect``).
No dual lattice is built.
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


def unit_times(p, c, u, b):
    """c * u^b for a nonzero field value u and any integer b."""
    return c * pow(u, b, p) % p if p else c * Fraction(u) ** b


def substitution(p, row, e, u):
    """A term dict with u * t^e substituted for t: each term c * t^b
    becomes c * u^b * t^(e*b)."""
    return {e * b: unit_times(p, c, u, b) for b, c in row.items()}


def component(p, row, e, u, rho):
    """Component rho of a term dict along w = u * t^e: each term c * t^d
    with d = q*e + rho becomes c * u^(-q) * w^q, and the others drop."""
    return {(d - rho) // e: unit_times(p, c, u, (rho - d) // e)
            for d, c in row.items() if (d - rho) % e == 0}


def substituted(p, v, e, u):
    """Base change of a vector along t_y = u * t_x^e (``substitution`` of
    every entry)."""
    return [substitution(p, terms(x, p), e, u) for x in v]


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
            inv = pow(c, -1, self.p) if self.p else 1 / Fraction(c)
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


def lattice_gens(lattice):
    """The basis columns of a lattice as jet vectors, read off its stored
    form: column j is the pivot t^diag[j] at row j and its stored pairs
    (i, x).  The oracle reads every lattice through here, so each has its
    stored form checked to be canonical (ValueError if not): the pairs are
    nonzero, in increasing row order, above the pivot (i < j), and of
    degree below their row's pivot exponent diag[i].  Span equality cannot
    see an entry left unreduced; ``==`` compares stored forms, so such an
    entry makes equal lattices unequal."""
    p, n, diag = lattice.field.p, lattice.n, lattice.diag
    out = []
    for j, ent in enumerate(lattice.entries):
        col = [{} for _ in range(n)]
        col[j] = {diag[j]: 1}
        last = -1
        for i, x in ent:
            col[i] = terms(x, p)
            if not (last < i < j and col[i] and max(col[i]) < diag[i]):
                raise ValueError("the stored form of %r is not canonical" % (lattice,))
            last = i
        out.append(col)
    return out


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


def module_colength(p, n, gens, N):
    """The colength of the R-span S of gens, n * hi minus the dimension of
    its image in t^lo R^n / t^hi R^n, hi = N + 1, if S contains t^N R^n;
    else None.  A span of rank below n contains no such ball, whatever N."""
    (span,) = _spans(p, n, [(gens, 1)], N)
    return n * span.hi - span.dim if span.ball(N, 1) else None


def colength(lattice):
    """The lattice's colength delta(L), read off its span at its claimed
    bound; None if that bound fails."""
    return module_colength(lattice.field.p, lattice.n, lattice_gens(lattice), bound(lattice))


def colength_holds(lattice):
    """True iff the claimed pivot exponents are the lattice's colength."""
    return colength(lattice) == sum(lattice.diag)


def spans(lattice, gens, step=1):
    """True iff the lattice is the span of the jet vectors gens (their
    R_Y-span for step e, see the module docstring), by ``same`` at the
    lattice's claimed bound."""
    return same(lattice.field.p, lattice.n, (gens, step), (lattice_gens(lattice), 1),
                bound(lattice))


def member(lattice, vecs):
    """True iff every jet vector in vecs lies in the lattice, by rank tests
    over k.  The lattice lies in t^lo R^n for the least exponent lo of its
    basis, so a vector with a term below t^lo is no member; its claimed
    bound N is verified (ValueError if t^N R^n is not in its span)."""
    N = bound(lattice)
    (span,) = _spans(lattice.field.p, lattice.n, [(lattice_gens(lattice), 1)], N)
    if not span.ball(N, 1):
        raise ValueError("the span does not contain t^%d R^%d" % (N, lattice.n))
    return all(span.has(v) for v in vecs)


# -- points, morphisms and pairings -------------------------------------------


def _reduced(p, row):
    """A term dict without its zero values, reduced mod p on GF(p)."""
    return {d: c % p if p else c for d, c in row.items() if (c % p if p else c)}


def product(p, rows, vec):
    """rows * vec for a matrix of term dicts (a list of rows) and a jet
    vector: each entry a sum of convolutions."""
    out = []
    for row in rows:
        acc = {}
        for x, y in zip(row, vec):
            for a, c in x.items():
                for b, d in y.items():
                    acc[a + b] = acc.get(a + b, 0) + c * d
        out.append(_reduced(p, acc))
    return out


def restricted(p, vec, e, u):
    """The K_Y-vector of rank n * e of a K_X-vector of rank n, w = u * t^e,
    the inverse of ``unrestricted``: a term c * t^d at row i goes to row
    i*e + d mod e as c * u^(-q) * w^q, q = d div e (``component``)."""
    return [component(p, row, e, u, rho) for row in vec for rho in range(e)]


def pushed(blocks):
    """R_Y-generators of the direct sum of res(t^l * E) over the blocks
    (E, l, e, u), E a lattice over R_X: the R_X-span of a generator g is
    the R_Y-span of t^rho * g, rho < e, as R_X is free over R_Y on
    1, t, ..., t^(e-1)."""
    total = sum(lattice.n * e for lattice, _, e, _ in blocks)
    out, off = [], 0
    for lattice, l, e, u in blocks:
        p, size = lattice.field.p, lattice.n * e
        out += [padded(restricted(p, shifted(g, l + rho), e, u), off, total - off - size)
                for g in lattice_gens(lattice) for rho in range(e)]
        off += size
    return out


def from_lines(p, lifts, twists, jumps, j):
    """Member j of the point of an adapted basis: the span of the lines
    t^(twists[b] + [j > jumps[b]]) * lifts[b]."""
    return [shifted(jets(p, v), g + (j > jb)) for v, g, jb in zip(lifts, twists, jumps)]


def is_lines_chain(chain, lifts, twists, jumps):
    """True iff every member j of chain is ``from_lines`` member j: by
    ``spans`` where the jump pattern changes, and elsewhere by the stored
    form of the member before it, as one pattern spans one lattice and
    its canonical form is unique."""
    p = chain[0].field.p
    for j, lattice in enumerate(chain):
        if j and all((j > jb) == (j - 1 > jb) for jb in jumps):
            if lattice_gens(lattice) != lattice_gens(chain[j - 1]):
                return False
        elif not spans(lattice, from_lines(p, lifts, twists, jumps, j)):
            return False
    return True


def maps_into(rows, src, dst):
    """True iff the matrix of Laurent elements rows maps the lattice src
    into dst: the image of each generator of src is a member of dst."""
    p = src.field.p
    mat = [jets(p, row) for row in rows]
    return member(dst, [product(p, mat, g) for g in lattice_gens(src)])


def _datum(line, r):
    """(g, c) of a rank-1 chain of order r, E^0 = t^g * R jumping after
    member c: E^j = E^0 for j <= c; (0, 0) where the line is unmarked.  A
    member spanned by x is t^val(x) * R."""
    if line is None:
        return 0, 0
    vals = [min(lattice_gens(m)[0][0]) for m in line.chain[:r]]
    return vals[0], vals.count(vals[0]) - 1


def perfect(pairing, bundle):
    """check_pairing by its definition: F^T = +-F (with a zero diagonal for
    the antisymmetric kind), and at every point and level a < r, with
    (g, c) the value line's datum there, v = 1 + g and b = r + c - a,
    F^T * E^a = t^v * (E^b)^*.  Containment is every Gram value x^T * F * y,
    x in E^a and y in E^b, of valuation >= v.  Given it, equality is
    delta(F^T * E^a) + delta(E^b) = n * v, where F^T * E^a must contain
    t^(v - lo_b) * R^n, lo_b the least exponent of E^b, as the dual of E^b
    contains t^(-lo_b) * R^n."""
    n, points = bundle.rank, bundle.points
    p = next(iter(points.values())).field.p
    form = [jets(p, row) for row in pairing.form]
    sign = -1 if pairing.kind == "antisymmetric" else 1
    if any(form[j][i] != _reduced(p, {d: sign * c for d, c in form[i][j].items()})
           for i in range(n) for j in range(i, n)):
        return False
    if sign < 0 and any(form[i][i] for i in range(n)):
        return False
    ft = [list(col) for col in zip(*form)]
    for label, pt in points.items():
        r = pt.order
        g, c = _datum(pairing.value_line.points.get(label), r)
        v = 1 + g
        gens = [lattice_gens(m) for m in pt.chain[:r]]
        for a in range(r):
            l, k = divmod(r + c - a, r)
            fy = [shifted(product(p, form, y), l) for y in gens[k]]
            if any(min(gram, default=v) < v for x in gens[a] for gram in product(p, fy, x)):
                return False
            image = [product(p, ft, x) for x in gens[a]]
            delta = module_colength(p, n, image, v - lowest(gens[k]) - l)
            if delta is None or delta + colength(pt.chain[k]) + n * l != n * v:
                return False
    return True
