"""Full-rank lattices over R = k[t]_(t) inside a generic fiber K^n.

A lattice is stored canonicalized: upper triangular column basis, pivot of
column j at row j equal to a pure power t^{a_j}, and every off-diagonal
entry in row i reduced modulo t^{a_i}.  This form is unique, and so is the
integer form of each entry (localring: integer coefficients over one
positive denominator in lowest terms on Q, reduced residues on GF(p), no
zero at either end).

Storage.  A lattice keeps the pivot exponents ``diag`` = (a_0, ..., a_{n-1})
and, for each column j, ``entries[j]``: the pairs (i, x) of its nonzero
entries above the pivot.  The pivot t^{a_j} is implied, never stored, so a
pivot-only column t^{a_j} * e_j is ``()`` and a diagonal lattice is its
``diag`` alone.  The stored form satisfies, and ``_canonical_shape``
checks:

* the entries of a column are nonzero, in increasing row order, and above
  its pivot (i < j);
* an entry in row i has degree below its row's pivot exponent a_i.

Equality and hashing compare (n, diag, entries): integer tuples and pairs
of a row index and an entry.  The dense columns (``column``, ``cols``) are
built on demand for readers off the hot paths and never stored.

All algorithms run on Laurent-polynomial matrices, whose integer
arithmetic reduces once per operation.  Canonicalization is
``triangularize`` followed by normalization.  Triangularization uses only
exact column operations (scale by a polynomial unit of R, subtract an
R-multiple) and raises SingularBasis on a span of rank below n, so a
caller that needs only the rank test (``pairing.check_pairing`` at level
0) calls it alone.  Normalization of the triangular form uses power
series truncated at a precision P with t^P R^n inside the lattice (the
proof is at the bound), and the result is re-verified exactly by
back-substitution.

Six constructors build canonical forms without canonicalizing:

* ``from_columns`` keeps a generating set that is already a canonical
  basis: exactly n dense columns of length n whose pivots are exactly
  t^{a_j}, with zeros below them (``stored_column``) and reduced entries
  above them (``_canonical_shape``, shared with ``from_canonical``).  This
  is exact, because the canonical basis of a lattice is unique (the proof
  is at ``from_columns``).  Any other input goes through ``_canonicalize``.
* ``scale`` shifts ``diag`` and every stored entry by d.  Each row's
  degree bound moves with its pivot, so the form is canonical by
  construction and needs no guard; a diagonal lattice keeps its entries
  tuple.  A lattice keeps t * L once built, so ``scale(1)`` builds it once
  per lattice and undoes ``scale(-1)``.
* ``direct_sum`` concatenates the blocks' ``diag`` and moves their stored
  entries down by the block offsets, so it needs no guard either.
* restriction of scalars (``functors.restrict_scalars``) reads the
  canonical basis of res(L) off L's in one pass over the columns j and
  steps rho < e.  The working column is its stored entries, and its pivot
  is implied by (q, s) = divmod(a_j + rho, e); a step moves the entries
  down their e-blocks and reduces them by constant multiples of the lower
  blocks' seeds, so a pivot-only column stays empty and becomes e
  ``diag`` entries.  It is guarded: ``Lattice.from_canonical`` checks the
  shape with ``_canonical_shape``, and the restriction checks that the
  component of t^{a_j} at each implied pivot is exactly the unit times
  the power of w it claims, with one call of the component kernel per
  distinct exponent and step, compared with a pivot built without it (an
  equality, which sees a wrong unit where a member test cannot); that
  every reduction quotient is a constant; that the colength is L's; and
  that every generator of a column with entries is a member.  Each
  failure raises AssertionError("internal: ...").
* the twist of a restriction (``functors.twist_restricted``) reads
  res(t^l * L) off the stored form of res(L): t acts on restricted
  coordinates by moving each e-block down one row, and the rows' degree
  bounds move with their pivots; the factor w^q of l = q*e + l0 shifts
  the moved entries in the same pass.  Only stored entries move.  Its
  guard is the shape check of ``Lattice.from_canonical``; it runs no
  member test.
* a member of a parabolic chain (``parabolic._flag_member``) is read off
  the canonical basis of E^0 and a reduced echelon basis of its flag in
  the fibre E^0 / t * E^0.  It is guarded: each computed pivot is checked
  by ``stored_column``, the shape by ``Lattice.from_canonical``, and the
  colength and a member test of each line that spans it modulo t * E^0
  by the member itself.

Inner loops visit only the support of their sparse operand: the stored
entries of a column and the nonzero coordinates of a vector, tested by
the truthiness of ``coeffs``.  No kernel multiplies by a zero entry.
Back-substitution is right-looking: once x_j is known, x_j times column
j's stored entries is subtracted from the rows above, so it costs one
product per stored entry of a column with a nonzero coordinate.
``contains`` decides a column from the pivot exponents alone when both
columns are pivot-only, and accepts a column equal to the container's
own column j (neighbouring chain members share most of their columns)
without solving for it.
"""

from __future__ import annotations

from .errors import AmbientMismatch, SingularBasis
from .linalg import identity_matrix, mat_vec, transpose
from .localring import LocalElement

_Z = LocalElement.zero()


class Lattice:
    __slots__ = ("field", "n", "entries", "diag", "_up")

    def __init__(self, field, n, entries, diag, _trusted=False):
        """Internal constructor; use from_columns or from_canonical."""
        if not _trusted:
            raise TypeError("use Lattice.from_columns")
        self.field = field
        self.n = n
        self.entries = entries
        self.diag = diag
        self._up = None  # t * self, once scale has built it

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(cls, field, n, columns):
        """Canonicalize a generating set (list of length-n entry lists).

        A set of exactly n columns that already has the canonical shape
        (``stored_column`` and ``_canonical_shape``) is kept, in the stored
        form.  Such a basis B is the canonical basis of its span L, because
        a canonical basis is unique.  Let B' be another one.  The pivots
        agree: t^{a_j} R is the row-j projection of the vectors of L that
        vanish below row j, for B and B' alike.  So column j of B minus
        column j of B' lies in L and vanishes from row j on.  If it is
        nonzero, let i be its last nonzero row.  It vanishes below row i, so
        its row-i entry lies in t^{a_i} R; yet that entry is a difference of
        two entries of degree below a_i.  A nonzero element cannot have
        both, so the columns are equal.
        """
        if len(columns) == n and all(len(c) == n for c in columns):
            diag = tuple(c[j].ord for j, c in enumerate(columns))
            entries = tuple(stored_column(field, c, j, a)
                            for j, (c, a) in enumerate(zip(columns, diag)))
            if None not in entries and _canonical_shape(entries, diag):
                return cls(field, n, entries, diag, _trusted=True)
        return _canonicalize(field, n, columns)

    @classmethod
    def from_canonical(cls, field, entries, diag):
        """Wrap a stored form built canonical, after checking its shape
        (``_canonical_shape``).  A form that fails is a library bug."""
        if not _canonical_shape(entries, diag):
            raise AssertionError("internal: columns not in canonical form")
        return cls(field, len(diag), entries, diag, _trusted=True)

    # -- dense views -------------------------------------------------------

    def column(self, j):
        """Basis column j as a dense tuple of n entries."""
        col = [_Z] * self.n
        for i, x in self.entries[j]:
            col[i] = x
        col[j] = LocalElement.t_power(self.field, self.diag[j])
        return tuple(col)

    @property
    def cols(self):
        """The basis columns as dense tuples, built on each access."""
        return tuple(self.column(j) for j in range(self.n))

    # -- operations --------------------------------------------------------

    def scale(self, d):
        """The lattice t^d * self; ``diag`` and the stored entries shift.

        t * self is built once per lattice: ``scale(1)`` keeps it in the
        slot ``_up`` and returns it from then on, and ``scale(-1)`` stores
        self in its result's slot, since t * (t^{-1} * L) = L.  A link runs
        from L to t * L, whose determinant valuation is n more than L's, so
        no chain of links returns to its start: the slots make no reference
        cycle, and a lattice lives no longer than the lattices below it.
        """
        if d == 0:
            return self
        if d == 1 and self._up is not None:
            return self._up
        entries = self.entries
        if any(entries):
            entries = tuple(tuple([(i, x.shift(d)) for i, x in ent]) if ent else ent
                            for ent in entries)
        out = Lattice(self.field, self.n, entries, tuple(a + d for a in self.diag),
                      _trusted=True)
        if d == 1:
            self._up = out
        elif d == -1:
            out._up = self
        return out

    def solve(self, w):
        """Coordinates x with basis * x = w (``back_substitute``); w is a
        member iff every coordinate has valuation >= 0."""
        return back_substitute(self.entries, self.diag, w)

    def member(self, w):
        for x in self.solve(w):
            if x.ord < 0:  # zero has ord 0
                return False
        return True

    def contains(self, other):
        """True iff other is a sublattice of self, that is, iff every basis
        column c' of other is a member.  Let c be column j of self, with
        pivots t^a and t^{a'}.  Column j is decided without solving when:

        * a' < a: reject.  c' is zero below row j, so back-substitution
          starts at row j and returns x_j = t^{a'-a}, of negative valuation;
        * both columns are pivot-only: accept, since a' >= a and so
          c' = t^{a'-a} * c;
        * c' == c: accept.

        Every other column goes through ``member``.
        """
        if not isinstance(other, Lattice):
            raise TypeError(other)
        if other.n != self.n or other.field != self.field:
            raise AmbientMismatch("ambient rank %d over %s vs %d over %s"
                                  % (self.n, self.field.name, other.n, other.field.name))
        for j, (b, a, ent, own) in enumerate(zip(other.diag, self.diag, other.entries,
                                                 self.entries)):
            if b < a:
                return False
            if (not ent and not own) or (b == a and ent == own):
                continue
            if not self.member(other.column(j)):
                return False
        return True

    def dual(self):
        """The dual lattice {v : <v, self> in R} w.r.t. the standard pairing."""
        # rows of basis^{-1} are the dual basis vectors
        return Lattice.from_columns(self.field, self.n,
                                    triangular_inverse(self.field, self.entries, self.diag))

    def det_valuation(self):
        return sum(self.diag)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        # distinct nested lattices differ in colength, so diag decides first
        return (self.n == other.n and self.diag == other.diag
                and self.entries == other.entries and self.field == other.field)

    def __hash__(self):
        return hash((self.n, self.diag, self.entries))

    def __repr__(self):
        return "Lattice(n=%d, diag=%r)" % (self.n, list(self.diag))


def stored_column(field, col, j, a):
    """The stored entries of the dense column ``col`` with its pivot at row
    j: the pairs (i, x) of its nonzero entries above row j.  None unless
    that pivot is exactly t^a over ``field`` and every entry below it is
    zero.  The entries above are checked by ``_canonical_shape``."""
    piv = col[j]
    if piv.ord != a or piv.coeffs != (1,) or piv.den != 1 or piv.p != field.p:
        return None
    for x in col[j + 1:]:
        if x.coeffs:
            return None
    return tuple([(i, x) for i, x in enumerate(col[:j]) if x.coeffs])


def entries_above(cols):
    """The nonzero entries above the diagonal of a square upper-triangular
    column basis, per column, in the form ``back_substitute`` reads."""
    return [tuple([(i, x) for i, x in enumerate(col[:j]) if x.coeffs])
            for j, col in enumerate(cols)]


def _canonical_shape(entries, diag):
    """True iff ``entries`` is a stored form over the pivot exponents
    ``diag``: in each column, nonzero entries in increasing row order above
    the pivot, each of degree below the pivot exponent of its row."""
    for j, ent in enumerate(entries):
        last = -1
        for i, x in ent:
            if not last < i < j or not x.coeffs or x.ord + len(x.coeffs) > diag[i]:
                return False
            last = i
    return True


def back_substitute(entries, diag, w):
    """Coordinates x with B * x = w for an upper-triangular basis B with
    pivots t^{diag[j]} and, above them, the entries ``entries[j]`` of column
    j as (row, entry) pairs, which need not be reduced.  Right-looking:
    from the last row up, x_j is what is left of row j over t^{diag[j]},
    and x_j times column j's entries is subtracted from the rows above.
    It divides only by t-powers, so x always exists over K."""
    x = list(w)
    for j in range(len(x) - 1, -1, -1):
        r = x[j]
        if r.coeffs:
            x[j] = xj = r.shift(-diag[j])
            for i, c in entries[j]:
                x[i] = x[i] - c * xj
    return x


def triangular_inverse(field, entries, diag):
    """The inverse of the basis of ``back_substitute``, row-major; its rows
    pair the basis columns to the standard basis under the standard pairing."""
    return transpose([back_substitute(entries, diag, e)
                      for e in identity_matrix(field, len(diag))])


# -- canonicalization -----------------------------------------------------


def triangularize(n, columns):
    """An upper-triangular basis of the R-span of ``columns`` (length-n
    entry lists), as its list of columns, by exact column operations only:
    scale by a polynomial unit of R, subtract an R-multiple.  Rows are
    eliminated bottom-up, and row i takes the remaining column of least
    valuation there as its pivot.  Raises SingularBasis when the span has
    rank below n, so the call alone is a rank test."""
    work = []
    for c in columns:
        col = list(c)
        if len(col) != n:
            raise AmbientMismatch("column length %d != ambient %d" % (len(col), n))
        if any(e.coeffs for e in col):
            work.append(col)
    if len(work) < n:
        raise SingularBasis("%d independent generators needed, got %d" % (n, len(work)))
    avail = list(range(len(work)))
    pivot_col = [None] * n
    for i in range(n - 1, -1, -1):
        cands = [(work[c][i].ord, c) for c in avail if work[c][i].coeffs]
        if not cands:
            raise SingularBasis("rank deficiency at row %d" % i)
        vp, cp = min(cands)
        avail.remove(cp)
        pivot_col[i] = cp
        piv = work[cp]
        ptilde = piv[i].unit_poly()
        for c in avail:
            q = work[c][i]
            if not q.coeffs:
                continue
            f = q.shift(-vp)  # t^{vq-vp} * unit part of q
            col = work[c]
            for r in range(i + 1):
                a, b = col[r], piv[r]
                if a.coeffs:
                    col[r] = ptilde * a - f * b if b.coeffs else ptilde * a
                elif b.coeffs:
                    col[r] = -(f * b)
            if col[i].coeffs:
                raise AssertionError("internal: elimination left row %d nonzero" % i)
    return [work[pivot_col[i]] for i in range(n)]


def _canonicalize(field, n, columns):
    """The canonical lattice of the R-span: the triangular basis of
    ``triangularize``, normalized and verified."""
    tri = triangularize(n, columns)
    diag = tuple(tri[i][i].ord for i in range(n))

    # Precision for the unit-normalization phase.  Every triangular entry
    # has valuation >= m, so L lies in t^m R^n.  R^n / t^{-m}L has length
    # delta - n*m (delta = sum(diag)), and t to that power kills it, so
    # t^{delta-(n-1)m} R^n lies in L.  Truncating an entry at that precision
    # changes its column by a vector of L.  Each column built below lies in L
    # and has the canonical shape, so it is the unique canonical column.
    m = min(0, min(e.ord for col in tri for e in col if e.coeffs))
    prec = sum(diag) - (n - 1) * m

    entries = []
    for j in range(n):
        uinv = tri[j][j].unit_poly().inv_series(prec - m + 1)
        w = [(x * uinv).truncate(prec) if x.coeffs else _Z for x in tri[j][:j]]
        for i in range(j - 1, -1, -1):
            lam = w[i].high_div(diag[i])
            if lam.coeffs:
                if lam.ord < 0:
                    raise AssertionError("internal: negative reduction quotient")
                for r, cir in entries[i]:
                    w[r] = (w[r] - lam * cir).truncate(prec)
                w[i] = w[i].truncate(diag[i])
        entries.append(tuple([(i, x) for i, x in enumerate(w) if x.coeffs]))

    out = Lattice(field, n, tuple(entries), diag, _trusted=True)
    # exact a-posteriori check: the triangular basis lies in the canonical
    # span; with equal determinant valuations this forces span equality.
    for col in tri:
        if not out.member(col):
            raise AssertionError("internal: canonical form verification failed")
    return out


# -- module-level operations ----------------------------------------------


def direct_sum(lattices):
    """Block direct sum; canonical blocks assemble to a canonical form."""
    if len(lattices) == 1:
        return lattices[0]
    entries, diag, off = [], [], 0
    for l in lattices:
        entries.extend(tuple([(i + off, x) for i, x in ent]) if ent and off else ent
                       for ent in l.entries)
        diag.extend(l.diag)
        off += l.n
    return Lattice(lattices[0].field, off, tuple(entries), tuple(diag), _trusted=True)


def apply_matrix(rows, lattice):
    """Lattice spanned by A * (basis columns); requires A injective."""
    return Lattice.from_columns(lattice.field, len(rows),
                                [mat_vec(rows, col) for col in lattice.cols])


def map_runs(fn, items):
    """[fn(x) for x in items], calling fn once per run of equal neighbours.

    The equal members of a lattice chain are neighbours, so on a chain fn
    runs once per distinct member.
    """
    out = []
    for k, x in enumerate(items):
        out.append(out[-1] if k and x == items[k - 1] else fn(x))
    return out
