"""Parabolic data at marked points: lattice chains, weights, morphisms.

A parabolic point of order r is a decreasing chain

    E^0 >= E^1 >= ... >= E^r = t * E^0

of lattices in a common K^n.  The weight a/r carries multiplicity
dim(E^a / E^{a+1}); multiplicities sum to n.  Chains are stored in full
(length r+1) even when consecutive members coincide, so E^m for every
m >= 0 (``ParabolicPoint.lattice``) is a pure index computation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidChain, ShapeMismatch
from .lattice import Lattice, back_substitute, entries_above, map_runs, stored_column
from .linalg import mat_vec
from .localring import LocalElement

_Z = LocalElement.zero()


class ParabolicPoint:
    """A lattice chain at one marked point."""

    __slots__ = ("order", "chain", "n", "field")

    def __init__(self, order, chain):
        chain = tuple(chain)
        if order < 1 or len(chain) != order + 1:
            raise InvalidChain("chain must have order+1 members")
        first = chain[0]
        self.order = order
        self.chain = chain
        self.n = first.n
        self.field = first.field
        # equal neighbours need no containment test
        for j in range(order):
            if chain[j] != chain[j + 1] and not chain[j].contains(chain[j + 1]):
                raise InvalidChain("chain member %d does not contain member %d" % (j, j + 1))
        if chain[order] != first.scale(1):
            raise InvalidChain("chain endpoint differs from t * E^0")

    @classmethod
    def _unchecked(cls, order, chain):
        """The point of a chain that is valid by construction, built
        without the containment tests.  Only the index maps of rootstack
        call it; every other construction is checked."""
        self = object.__new__(cls)
        self.order = order
        self.chain = chain = tuple(chain)
        self.n = chain[0].n
        self.field = chain[0].field
        return self

    @classmethod
    @functools.lru_cache(maxsize=256)
    def line(cls, field, order, jump, twist=0):
        """Rank-1 chain with weight jump/order, base lattice t^twist * R.

        Each line is built once per process and shared: points and their
        lattices are immutable, fields compare and hash by value, and the
        only slot a lattice fills in later is ``_up``, which holds t * L.
        The key is the arguments as given, so a caller passes all four of
        (field, order, jump, twist), the twist 0 too, and one line has one
        key.  The corollaries suite asks for at most 168 keys per field:
        order r <= 8, every jump, and the twists of the value data, which
        lie in [1 - 2e, e] for e = 8 // r (a target twist g in {-1, 0, 1},
        and a branch twist e * g - c // r with c < r * e); the balancing
        line (r, r - jump, 0) of each is one of them.  The bound keeps a
        caller that asks for lines of ever new orders or twists from
        growing the cache for the life of the process.  An InvalidChain is
        raised, not cached."""
        if not 0 <= jump < order:
            raise InvalidChain("jump %d outside [0, %d)" % (jump, order))
        return cls.from_lines(field, order, [[LocalElement.t_power(field, 0)]], [twist], [jump])

    @classmethod
    def from_lines(cls, field, order, lifts, twists, jumps):
        """The point of an adapted basis, the inverse of split_into_lines:
        member E^j is spanned by the lines t^{twists[b] + [j > jumps[b]]} *
        lifts[b], with ``lifts`` the list of the n columns that lift the
        lines.  Only E^0 is canonicalized.  Every member lies between
        E^0 and t * E^0, so it is E^0's canonical basis B0 applied to
        t * R^n plus the span of the unjumped lines' fibre vectors, the
        constant terms of their coordinates in B0 (``_flag_member``).  One
        member is built per run of equal jump patterns (map_runs): the
        patterns grow with j, the unjumped one is E^0 and the all-jumped
        one t * E^0."""
        lines = [[x.shift(g) for x in col] for col, g in zip(lifts, twists)]
        top = Lattice.from_columns(field, len(jumps), lines)
        # a line of least jump is jumped in every member strictly inside E^0
        lo = min(jumps, default=0)
        fibre = {b: [x.truncate(1) for x in back_substitute(top.entries, top.diag, v)]
                 for b, v in enumerate(lines) if jumps[b] > lo}

        def member(pattern):
            if not any(pattern):
                return top
            if all(pattern):
                return top.scale(1)
            return _flag_member(top, [(lines[b], fibre[b]) for b, jumped in enumerate(pattern)
                                      if not jumped])

        return cls(order, map_runs(member, [tuple(j > jb for jb in jumps)
                                            for j in range(order + 1)]))

    def lattice(self, m):
        """E^m for any m >= 0; past the chain, E^{r*l + k} = t^l * E^k."""
        if m <= self.order:
            return self.chain[m]
        l, k = divmod(m, self.order)
        return self.chain[k].scale(l)

    def weights(self):
        """Weight multiset as a sorted tuple of (Fraction, multiplicity).

        The chain was checked at construction, so each multiplicity
        dim(E^a / E^{a+1}) is a difference of determinant valuations.
        """
        out = []
        for a in range(self.order):
            m = self.chain[a + 1].det_valuation() - self.chain[a].det_valuation()
            if m:
                out.append((Fraction(a, self.order), m))
        return tuple(out)

    def weight_sum(self):
        """Sum of the weights with multiplicity, Fraction(sum_a a * m_a, r),
        from the integer jump counts m_a = delta(E^{a+1}) - delta(E^a) with
        delta the determinant valuation; weight 0 adds nothing."""
        delta = [lat.det_valuation() for lat in self.chain]
        return Fraction(sum(a * (delta[a + 1] - delta[a]) for a in range(1, self.order)),
                        self.order)

    def __eq__(self, other):
        if not isinstance(other, ParabolicPoint):
            return NotImplemented
        return self.order == other.order and self.chain == other.chain

    def __hash__(self):
        return hash((self.order, self.chain))

    def __repr__(self):
        return "ParabolicPoint(order=%d, n=%d, weights=%r)" % (
            self.order, self.n, [(str(w), m) for w, m in self.weights()])


@dataclass(frozen=True)
class ParabolicBundle:
    """Rank, global degree bookkeeping and the per-point chains."""

    rank: int
    underlying_degree: int
    points: dict

    def __post_init__(self):
        for label, pt in self.points.items():
            if pt.n != self.rank:
                raise ShapeMismatch("point %r has ambient rank %d, bundle rank %d"
                                    % (label, pt.n, self.rank))

    def labels(self):
        return sorted(self.points)


def parabolic_degree(bundle):
    """underlying degree + sum of all weights with multiplicity."""
    total = Fraction(bundle.underlying_degree)
    for label in bundle.labels():
        total += bundle.points[label].weight_sum()
    return total


def is_point_morphism(rows, src, dst):
    """True iff rows * src.chain[j] <= dst.chain[j] for every stage j, in
    line coordinates.  With the splittings (js, V) of src and (jd, W) of
    dst, stage j holds iff M = W^{-1} * rows * V has val(M_ik) >=
    [j > jd_i] - [j > js_k].  Over j < r that bound is 1 only if
    jd_i < j <= js_k, which j = js_k attains when js_k > jd_i.  So rows is
    a morphism iff val(M_ik) >= [js_k > jd_i], the rule that
    harness.gen_point_morphism draws by.  W is upper triangular with the
    pivots of dst's E^0, so each column of M is one back-substitution."""
    if src.order != dst.order:
        raise ShapeMismatch("orders %d vs %d" % (src.order, dst.order))
    if len(rows) != dst.n or (rows and len(rows[0]) != src.n):
        raise ShapeMismatch("matrix is %dx%d, expected %dx%d"
                            % (len(rows), len(rows[0]) if rows else 0, dst.n, src.n))
    src_jumps, src_lifts = split_into_lines(src)
    dst_jumps, dst_lifts = split_into_lines(dst)
    dst_entries, diag = entries_above(dst_lifts), dst.chain[0].diag
    for js, v in zip(src_jumps, src_lifts):
        m = back_substitute(dst_entries, diag, mat_vec(rows, v))
        if not all(x.ord >= (js > jd) for x, jd in zip(m, dst_jumps) if x.coeffs):
            return False
    return True


def _flag_member(top, unjumped):
    """The lattice B0 * (t * R^n + U) between E^0 = ``top`` and t * E^0,
    with B0 the canonical basis of E^0 (pivots t^{a_i}) and U the span over
    k of the fibre vectors of ``unjumped``, a list of (line, fibre vector).

    U gets a reduced echelon basis, each pivot the last nonzero row of its
    vector: u_p is 1 at row p, zero below it and at the other pivot rows.
    Then t * R^n + U has the canonical basis u_p on the pivot rows p and
    t * e_i on the others, and B0 times it is triangular with pivot
    exponents a_p on the pivot rows and a_i + 1 on the others.  On a pivot
    row the column is B0 * u_p, already reduced, since u_p vanishes at the
    other pivot rows and its constants keep every entry below its row's
    bound.  On another row i the column is t * B0[:, i], whose entries have
    degree at most their row's a_h; on the pivot rows h < i, bottom-up, its
    t^{a_h} term is removed with a constant multiple of the column of h.

    t * E^0 lies in the result by construction: t * B0[:, i] is column i
    plus multiples of pivot columns on a row that is not a pivot row, and
    t * B0 * u_p minus t times the columns of the rows below p on a pivot
    row p, by induction on p.  The columns are built as stored entries
    above implied pivots: B0 * u_p densely up to row p, where its computed
    pivot must be exactly t^{a_p} with zeros below (``stored_column``), and
    t * B0[:, i] from the stored entries of t * E^0, reduced only when one
    of them lies on a pivot row.  The guards make the result E^j: the
    pivot check, the shape check of ``Lattice.from_canonical``, the
    colength, which must be sum(a) + the number of jumped lines, and a
    member test of every unjumped line.  The lines span E^j, so E^j lies in the result, and a
    sublattice of equal colength is the whole lattice.  Each failure
    raises AssertionError("internal: ...").
    """
    n, field, entries, diag = top.n, top.field, top.entries, top.diag
    echelon = {}  # pivot row p -> u_p
    for _, f in unjumped:
        for p, u in echelon.items():
            c = f[p]
            if c.coeffs:
                f = [x - c * y if y.coeffs else x for x, y in zip(f, u)]
        q = n - 1
        while q >= 0 and not f[q].coeffs:
            q -= 1
        if q < 0:
            continue  # dependent: the colength guard below fails
        inv = f[q].inv_series(1)
        f = [x * inv if x.coeffs else x for x in f]
        for p, u in echelon.items():
            c = u[q]
            if c.coeffs:
                echelon[p] = [x - c * y if y.coeffs else x for x, y in zip(u, f)]
        echelon[q] = f
    out, out_diag = [None] * n, list(diag)
    for p, u in echelon.items():
        if not any(c.coeffs for c in u[:p]):  # u_p = e_p: column p of B0 itself
            out[p] = entries[p]
            continue
        col = [_Z] * (p + 1)
        for k, c in enumerate(u[:p + 1]):
            if c.coeffs:
                col[k] = col[k] + c.shift(diag[k])
                for i, x in entries[k]:
                    col[i] = col[i] + c * x
        out[p] = stored_column(field, col, p, diag[p])
        if out[p] is None:
            raise AssertionError("internal: columns not in canonical form")
    up = top.scale(1).entries
    for i in range(n):
        if i in echelon:
            continue
        out_diag[i] += 1
        out[i] = up[i]
        if not any(h in echelon for h, _ in up[i]):
            continue
        col = [_Z] * i
        for h, x in up[i]:
            col[h] = x
        for h in range(i - 1, -1, -1):
            c = col[h].high_div(diag[h]) if h in echelon else _Z
            if c.coeffs:
                col[h] = col[h] - c.shift(diag[h])
                for g, y in out[h]:
                    col[g] = col[g] - c * y
        out[i] = tuple([(h, x) for h, x in enumerate(col) if x.coeffs])
    lat = Lattice.from_canonical(field, tuple(out), tuple(out_diag))
    if sum(out_diag) != sum(diag) + n - len(unjumped):
        raise AssertionError("internal: flag member has the wrong colength")
    if not all(lat.member(v) for v, _ in unjumped):
        raise AssertionError("internal: an unjumped line is not in its flag member")
    return lat


def split_into_lines(point):
    """Adapted basis for the chain: ``(jumps, lifts)``, with lifts[b] the
    column that lifts line b, ParabolicPoint.line(field, order, jumps[b]),
    and ParabolicPoint.from_lines(field, order, lifts, [0] * n, jumps) the
    inverse operation.  The lifts are upper triangular with the pivots of
    E^0: lift b has its pivot in row b.  Mixed ones (harness.mix_lines)
    are not.

    The splitting is read off the members' canonical bases.  Write a_i(L)
    for the exponent of the pivot in row i of L's canonical basis.  Line i
    jumps at the largest j < r with a_i(E^j) = a_i(E^0) and lifts to column
    i of E^j's canonical basis.

    * a_i does not decrease as L shrinks: t^{a_i(L)} R is the row-i
      projection of the vectors of L that vanish below row i.  Since
      t*E^0 <= E^j <= E^0, a_i(E^j) is a_i(E^0) or a_i(E^0) + 1.
    * The lifts are upper triangular with pivots t^{a_i(E^0)}.  In the
      coordinates of E^0's canonical basis they are unitriangular over R,
      so they are a basis of E^0.
    * For each j, the lifts of the lines with jump >= j, together with t
      times the other lifts, lie in E^j.  Their span has colength
      sum_i (a_i(E^j) - a_i(E^0)) in E^0, which is E^j's colength, so
      they span E^j.
    * The jumps are those of the flag E^j / t*E^0 in the fibre
      E^0 / t*E^0: the fibre lattice B0^{-1} * E^j has pivot exponents
      a_i(E^j) - a_i(E^0).  The change of basis from B0 has entries in R,
      not only constants; the pullback does not depend on the splitting.
    """
    top = point.chain[0]
    jumps = [0] * point.n
    owners = [top] * point.n
    for j in range(1, point.order):
        lat = point.chain[j]
        for i, a in enumerate(top.diag):
            if lat.diag[i] == a:
                jumps[i], owners[i] = j, lat
    return jumps, [lat.column(i) for i, lat in enumerate(owners)]
