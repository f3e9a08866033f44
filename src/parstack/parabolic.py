"""Parabolic data at marked points: lattice chains, weights, morphisms.

A parabolic point of order r is a decreasing chain

    E^0 >= E^1 >= ... >= E^r = t * E^0

of lattices in a common K^n.  The weight a/r carries multiplicity
dim(E^a / E^{a+1}); multiplicities sum to n.  Chains are stored in full
(length r+1) even when consecutive members coincide, so E^m for every
m >= 0 (``ParabolicPoint.lattice``) is a pure index computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidChain, ShapeMismatch
from .lattice import Lattice, map_runs, maps_into
from .linalg import add_column_multiple, identity_matrix, mat_mul


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
    def line(cls, field, order, jump, twist=0):
        """Rank-1 chain with weight jump/order, base lattice t^twist * R."""
        if not 0 <= jump < order:
            raise InvalidChain("jump %d outside [0, %d)" % (jump, order))
        top = Lattice.diagonal(field, [twist])
        bot = top.scale(1)
        return cls(order, [top if j <= jump else bot for j in range(order + 1)])

    @classmethod
    def from_lines(cls, field, order, matrix, twists, jumps):
        """The point of an adapted basis, the inverse of split_into_lines:
        member E^j is spanned by the columns
        t^{twists[b] + [j > jumps[b]]} * matrix[:, b], canonicalized once per
        jump pattern.  A chain of order r has at most n+1 distinct members,
        and the all-jumped pattern is t * E^0."""
        n = len(jumps)

        def span(pattern):
            return Lattice.from_columns(field, n, [
                [row[b].shift(twists[b] + pattern[b]) for row in matrix] for b in range(n)])

        top = span((False,) * n)
        members = {(False,) * n: top, (True,) * n: top.scale(1)}
        chain = []
        for j in range(order + 1):
            pattern = tuple(j > jb for jb in jumps)
            if pattern not in members:
                members[pattern] = span(pattern)
            chain.append(members[pattern])
        return cls(order, chain)

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
        return sum((w * m for w, m in self.weights()), Fraction(0))

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
    """True iff rows * src.chain[j] <= dst.chain[j] for every stage j."""
    if src.order != dst.order:
        raise ShapeMismatch("orders %d vs %d" % (src.order, dst.order))
    return maps_into(rows, src.chain[:src.order], dst.chain[:dst.order])


@dataclass
class SplitLines:
    """Adapted-basis splitting of a parabolic point into rank-1 chains;
    line b is ParabolicPoint.line(order, jumps[b]).  The inverse is
    ParabolicPoint.from_lines(field, order, matrix, [0] * n, jumps)."""

    jumps: list          # jump index of each line (weight jump/order)
    matrix: list         # n x n over K: direct sum of lines -> point
    inverse: list        # exact inverse of matrix


def split_into_lines(point):
    """Adapted basis for the chain: the jump of each line plus change of basis.

    The flag is read off canonical forms.  In the coordinates of the
    canonical basis B0 of E^0, each member E^j (0 < j < r) is a lattice
    L_j with t*R^n <= L_j <= R^n, so its pivots are 1 or t, and a column
    with pivot 1 has constants only in rows whose pivot is t.  The pivot-1
    columns are therefore an echelon basis of the flag subspace
    E^j / tE^0 of the fibre E^0 / tE^0 = k^n, each with its last nonzero
    entry at its own row.  That row set is an invariant of the subspace
    and shrinks as the subspace does, so the pivot-1 rows nest as j grows.
    Line i takes the largest j with pivot 1 in row i (0 if there is none)
    and lifts to column i of that L_j (e_i for jump 0).  The change of
    basis V is unitriangular with constant entries, built together with
    its inverse by column operations; matrix = B0 * V and
    inverse = V^{-1} * B0^{-1}.
    """
    n, r, field = point.n, point.order, point.field
    top = point.chain[0]
    if n == 0:
        return SplitLines([], [], [])

    def fibre_lattice(lat):
        return Lattice.from_columns(field, n, [top.solve(col) for col in lat.cols])

    jumps = [0] * n
    lifts = [None] * n
    for j, lat in enumerate(map_runs(fibre_lattice, point.chain[1:r]), start=1):
        for i in range(n):
            if not lat.diag[i]:
                jumps[i], lifts[i] = j, lat.cols[i]

    # columns right to left, so each column k < i added is still e_k
    v, vinv = identity_matrix(field, n), identity_matrix(field, n)
    for i in range(n - 1, -1, -1):
        if lifts[i] is not None:
            for k in range(i):
                if lifts[i][k].coeffs:
                    add_column_multiple(v, vinv, i, k, lifts[i][k])

    # lift through B0: column b of the change of basis is B0 * v_b
    b0 = top.basis_columns()
    mat = mat_mul([[b0[c][i] for c in range(n)] for i in range(n)], v)
    return SplitLines(jumps, mat, mat_mul(vinv, top.basis_inverse()))
