"""Full-rank lattices over R = k[t]_(t) inside a generic fiber K^n.

A lattice is stored canonicalized: upper triangular column basis, pivot of
column j at row j equal to a pure power t^{a_j}, and every off-diagonal
entry in row i reduced modulo t^{a_i}.  This form is unique, and so is the
integer form of each entry (localring: integer coefficients over one
positive denominator in lowest terms on Q, reduced residues on GF(p), no
zero at either end).  Lattice equality and hashing are therefore
comparisons of integer tuples.

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
  basis: exactly n columns of length n with the canonical shape (the
  predicate ``_canonical_shape``, shared with ``from_canonical``).  This is
  exact, because the canonical basis of a lattice is unique (the proof is
  at ``from_columns``).  Any other input goes through ``_canonicalize``.
* ``scale`` shifts every entry by t^d.  Pivots stay pure powers and each
  row's degree bound moves with its pivot, so the form is canonical by
  construction and needs no guard.  A lattice keeps t * L once built, so
  ``scale(1)`` builds it once per lattice and undoes ``scale(-1)``.
* ``direct_sum`` places canonical blocks on the diagonal.  Each column
  keeps its pivot and its reduced entries, and the rows of the other
  blocks are zero, so it needs no guard either.
* restriction of scalars (``functors.restrict_scalars``) reads the
  canonical basis of res(L) off L's.  A pivot-only column t^a * e_j
  restricts in closed form to e columns that hold one power of w each;
  every other column takes one constant reduction per block and step.
  It is guarded: ``Lattice.from_canonical`` checks the shape with
  ``_canonical_shape``, and the restriction checks that the colength is
  L's; that each component of a pivot-only column is exactly the unit
  times the power of w it claims (an equality, which sees a wrong unit
  where a member test cannot); and, for every other column, that every
  reduction quotient is a constant and every generator is a member.
  Each failure raises AssertionError("internal: ...").
* the twist of a restriction (``functors.twist_restricted``) reads
  res(t^l * L) off the canonical basis of res(L): t acts on restricted
  coordinates by moving each e-block down one row, and the rows' degree
  bounds move with their pivots; the factor w^q of l = q*e + l0 shifts
  the moved entries in the same pass.  Its guard is the shape check of
  ``Lattice.from_canonical``; it runs no member test.
* a member of a parabolic chain (``parabolic._flag_member``) is read off
  the canonical basis of E^0 and a reduced echelon basis of its flag in
  the fibre E^0 / t * E^0.  It is guarded: the shape check of
  ``Lattice.from_canonical``, the colength, and a member test of each
  line that spans it modulo t * E^0.

Inner loops visit only the support of their sparse operand: the nonzero
entries of a vector, of a column or of a pivot column, tested by the
truthiness of ``coeffs``.  No kernel multiplies by a zero entry.  Bases
here are triangular and restricted scalars are mostly zero, so this
decides the cost: back-substitution for a vector whose last nonzero entry
is row k takes about k^2/2 steps, not n^2/2.

Most columns of a restricted basis are pivot-only: their one nonzero
entry is the pivot.  Zero is one shared object, so ``col.count(_Z) == n -
1`` tells such a column in C, with one element comparison, and the kernels
handle it with tuple operations instead of a loop over its n entries:
``_canonical_shape`` checks only its pivot, ``contains`` decides it from
the pivot exponents alone, ``functors.twist_restricted`` moves only
its pivot, and ``functors.restrict_scalars`` writes its restriction down
in closed form.  Neighbouring chain members share most of their columns, so
``contains`` also accepts a column equal to the container's own column j
without solving for it.
"""

from __future__ import annotations

from .errors import AmbientMismatch, SingularBasis
from .linalg import identity_matrix, mat_vec, transpose
from .localring import LocalElement

_Z = LocalElement.zero()


class Lattice:
    __slots__ = ("field", "n", "cols", "diag", "_up")

    def __init__(self, field, n, cols, diag, _trusted=False):
        """Internal constructor; use from_columns or from_canonical."""
        if not _trusted:
            raise TypeError("use Lattice.from_columns")
        self.field = field
        self.n = n
        self.cols = cols
        self.diag = diag
        self._up = None  # t * self, once scale has built it

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_columns(cls, field, n, columns):
        """Canonicalize a generating set (list of length-n entry lists).

        A set of exactly n columns that already has the canonical shape
        (``_canonical_shape``) is kept as it is.  Such a basis B is the
        canonical basis of its span L, because a canonical basis is unique.
        Let B' be another one.  The pivots agree: t^{a_j} R is the row-j
        projection of the vectors of L that vanish below row j, for B and B'
        alike.  So column j of B minus column j of B' lies in L and vanishes
        from row j on.  If it is nonzero, let i be its last nonzero row.  It
        vanishes below row i, so its row-i entry lies in t^{a_i} R; yet that
        entry is a difference of two entries of degree below a_i.  A nonzero
        element cannot have both, so the columns are equal.
        """
        if len(columns) == n and all(len(c) == n for c in columns):
            diag = tuple(columns[j][j].ord for j in range(n))
            if _canonical_shape(field, columns, diag):
                return cls(field, n, tuple(tuple(c) for c in columns), diag,
                           _trusted=True)
        cols, diag = _canonicalize(field, n, columns)
        return cls(field, n, cols, diag, _trusted=True)

    @classmethod
    def from_canonical(cls, field, cols, diag):
        """Wrap a basis built in canonical form, after checking its shape
        (``_canonical_shape``).  A basis that fails is a library bug."""
        if not _canonical_shape(field, cols, diag):
            raise AssertionError("internal: columns not in canonical form")
        return cls(field, len(cols), cols, diag, _trusted=True)

    # -- operations --------------------------------------------------------

    def scale(self, d):
        """The lattice t^d * self; canonical form shifts entrywise.

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
        cols = tuple(tuple([e.shift(d) if e.coeffs else e for e in col]) for col in self.cols)
        diag = tuple(a + d for a in self.diag)
        out = Lattice(self.field, self.n, cols, diag, _trusted=True)
        if d == 1:
            self._up = out
        elif d == -1:
            out._up = self
        return out

    def solve(self, w):
        """Coordinates x with basis * x = w (``back_substitute``); w is a
        member iff every coordinate has valuation >= 0."""
        return back_substitute(self.cols, self.diag, w)

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
        * c' == c: accept;
        * both columns are pivot-only: accept, since a' >= a and so
          c' = t^{a'-a} * c.

        Every other column goes through ``member``.
        """
        if not isinstance(other, Lattice):
            raise TypeError(other)
        if other.n != self.n or other.field != self.field:
            raise AmbientMismatch("ambient rank %d over %s vs %d over %s"
                                  % (self.n, self.field.name, other.n, other.field.name))
        zeros = self.n - 1
        for c, b, a, own in zip(other.cols, other.diag, self.diag, self.cols):
            if b < a:
                return False
            if c == own or (c.count(_Z) == zeros and own.count(_Z) == zeros):
                continue
            if not self.member(c):
                return False
        return True

    def dual(self):
        """The dual lattice {v : <v, self> in R} w.r.t. the standard pairing."""
        # rows of basis^{-1} are the dual basis vectors
        return Lattice.from_columns(self.field, self.n,
                                    triangular_inverse(self.field, self.cols, self.diag))

    def det_valuation(self):
        return sum(self.diag)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        # distinct nested lattices differ in colength, so diag decides first
        return (self.n == other.n and self.field == other.field
                and self.diag == other.diag and self.cols == other.cols)

    def __hash__(self):
        return hash((self.n, self.cols))

    def __repr__(self):
        return "Lattice(n=%d, diag=%r)" % (self.n, list(self.diag))


def _canonical_shape(field, cols, diag):
    """True iff the n x n column basis ``cols`` has the canonical shape:
    the pivot of column j is exactly t^{diag[j]} over ``field``, column j is
    zero below row j, and each entry above a pivot has lower degree than
    the pivot of its row.  Every pivot is tested before any other entry,
    so most bases that are not canonical are rejected after n tests, and a
    pivot-only column needs no test beyond its pivot's."""
    n, p = len(cols), field.p
    for j in range(n):
        piv = cols[j][j]
        if piv.ord != diag[j] or piv.coeffs != (1,) or piv.den != 1 or piv.p != p:
            return False
    for j, col in enumerate(cols):
        if col.count(_Z) == n - 1:  # pivot-only: its pivot is checked
            continue
        for i in range(n):
            x = col[i]
            if x.coeffs and i != j and (i > j or x.ord + len(x.coeffs) > diag[i]):
                return False
    return True


def back_substitute(cols, diag, w):
    """Coordinates x with B * x = w for an upper-triangular basis B with
    columns ``cols`` and pivots t^{diag[j]}; the entries above the pivots
    need not be reduced.  The substitution starts at the last nonzero row
    of w and each row sums only over the nonzero coordinates solved so
    far.  It divides only by t-powers, so x always exists over K."""
    n = len(cols)
    x = [_Z] * n
    top = n - 1
    while top >= 0 and not w[top].coeffs:
        top -= 1
    solved = []  # (k, x[k]) for the nonzero coordinates so far
    for j in range(top, -1, -1):
        acc = w[j]
        for k, xk in solved:
            c = cols[k][j]
            if c.coeffs:
                acc = acc - c * xk
        if acc.coeffs:
            x[j] = xj = acc.shift(-diag[j])
            solved.append((j, xj))
    return x


def triangular_inverse(field, cols, diag):
    """The inverse of the basis of ``back_substitute``, row-major; its rows
    pair the basis columns to the standard basis under the standard pairing."""
    return transpose([back_substitute(cols, diag, e)
                      for e in identity_matrix(field, len(cols))])


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
    """Return (cols, diag) of the canonical basis of the R-span: the
    triangular basis of ``triangularize``, normalized and verified."""
    tri = triangularize(n, columns)
    diag = [tri[i][i].ord for i in range(n)]

    # Precision for the unit-normalization phase.  Every triangular entry
    # has valuation >= m, so L lies in t^m R^n.  R^n / t^{-m}L has length
    # delta - n*m (delta = sum(diag)), and t to that power kills it, so
    # t^{delta-(n-1)m} R^n lies in L.  Truncating an entry at that precision
    # changes its column by a vector of L.  Each column built below lies in L
    # and has the canonical shape, so it is the unique canonical column.
    m = min(0, min(e.ord for col in tri for e in col if e.coeffs))
    prec = sum(diag) - (n - 1) * m

    canon = [[_Z] * n for _ in range(n)]
    for j in range(n):
        uinv = tri[j][j].unit_poly().inv_series(prec - m + 1)
        w = [(x * uinv).truncate(prec) if x.coeffs else _Z for x in tri[j][:j]]
        for i in range(j - 1, -1, -1):
            lam = w[i].high_div(diag[i])
            if lam.coeffs:
                if lam.ord < 0:
                    raise AssertionError("internal: negative reduction quotient")
                for r in range(i):
                    cir = canon[i][r]
                    if cir.coeffs:
                        w[r] = (w[r] - lam * cir).truncate(prec)
                w[i] = w[i].truncate(diag[i])
        col = canon[j]
        for i in range(j):
            col[i] = w[i]
        col[j] = LocalElement.t_power(field, diag[j])

    out = Lattice(field, n, tuple(tuple(c) for c in canon), tuple(diag), _trusted=True)
    # exact a-posteriori check: the triangular basis lies in the canonical
    # span; with equal determinant valuations this forces span equality.
    for col in tri:
        if not out.member(col):
            raise AssertionError("internal: canonical form verification failed")
    return out.cols, out.diag


# -- module-level operations ----------------------------------------------


def direct_sum(lattices):
    """Block direct sum; canonical blocks assemble to a canonical basis."""
    if len(lattices) == 1:
        return lattices[0]
    field = lattices[0].field
    n = sum(l.n for l in lattices)
    cols = []
    diag = []
    off = 0
    for l in lattices:
        for c in l.cols:
            col = [_Z] * n
            col[off:off + l.n] = c
            cols.append(tuple(col))
        diag.extend(l.diag)
        off += l.n
    return Lattice(field, n, tuple(cols), tuple(diag), _trusted=True)


def image_columns(rows, lattice):
    """A * (basis columns) as raw vectors; A given as a list of rows."""
    return [mat_vec(rows, col) for col in lattice.cols]


def apply_matrix(rows, lattice):
    """Lattice spanned by A * (basis columns); requires A injective."""
    return Lattice.from_columns(lattice.field, len(rows), image_columns(rows, lattice))


def map_runs(fn, items):
    """[fn(x) for x in items], calling fn once per run of equal neighbours.

    The equal members of a lattice chain are neighbours, so on a chain fn
    runs once per distinct member.
    """
    out = []
    for k, x in enumerate(items):
        out.append(out[-1] if k and x == items[k - 1] else fn(x))
    return out
