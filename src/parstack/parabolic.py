"""Parabolic data at marked points: lattice chains, weights, morphisms.

A parabolic point of order r is a decreasing chain

    E^0 >= E^1 >= ... >= E^r = t * E^0

of lattices in a common K^n.  The weight a/r carries multiplicity
dim(E^a / E^{a+1}); multiplicities sum to n.  Chains are stored in full
(length r+1) even when consecutive members coincide, so refinement for the
direct image is a pure index computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidChain, ShapeMismatch
from .lattice import Lattice, map_runs, maps_into
from .linalg import EchelonTracker, k_inverse, mat_mul, rref
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
    def line(cls, field, order, jump, twist=0):
        """Rank-1 chain with weight jump/order, base lattice t^twist * R."""
        if not 0 <= jump < order:
            raise InvalidChain("jump %d outside [0, %d)" % (jump, order))
        top = Lattice.diagonal(field, [twist])
        bot = top.scale(1)
        return cls(order, [top if j <= jump else bot for j in range(order + 1)])

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
    if len(rows) != dst.n or (rows and len(rows[0]) != src.n):
        raise ShapeMismatch("matrix is %dx%d, expected %dx%d"
                            % (len(rows), len(rows[0]) if rows else 0, dst.n, src.n))
    return maps_into(rows, src.chain[:src.order], dst.chain[:dst.order])


@dataclass
class SplitLines:
    """Adapted-basis splitting of a parabolic point into rank-1 chains;
    line b is ParabolicPoint.line(order, jumps[b])."""

    jumps: list          # jump index of each line (weight jump/order)
    matrix: list         # n x n over K: direct sum of lines -> point
    inverse: list        # exact inverse of matrix


def split_into_lines(point, rng=None):
    """Adapted basis for the chain: the jump of each line plus change of basis.

    Works in the fiber V = E^0 / tE^0: the chain members map to a flag of
    subspaces; a basis adapted to the flag (echelon completion, pivots at
    the lowest row index) lifts to a splitting of the chain into lines.
    With rng given, the stagewise completion is randomized over valid
    choices (used for splitting-independence checks).
    """
    n, r, field = point.n, point.order, point.field
    top = point.chain[0]
    if n == 0:
        return SplitLines([], [], [])

    # fiber images of the chain members, as k-row-vectors in B0-coordinates
    def fiber_image(lat):
        return [[c.coefficient(0) if c.coeffs else field.zero
                 for c in top.solve(col)] for col in lat.cols]

    fiber = list(enumerate(map_runs(fiber_image, point.chain[1:r]), start=1))

    tracker = EchelonTracker()
    chosen = []  # (k-vector in B0 coordinates, jump)
    for j, vecs in reversed(fiber):
        stage = _stage_vectors(field, vecs, n, rng)
        for v in stage:
            red = tracker.try_add(v)
            if red is not None:
                chosen.append((red, j))
    # complete with the standard basis of the fiber (weight 0 lines)
    basis0 = _stage_vectors(field, [_k_unit(field, n, i) for i in range(n)], n, rng)
    for v in basis0:
        red = tracker.try_add(v)
        if red is not None:
            chosen.append((red, 0))
    if len(chosen) != n:
        raise AssertionError("internal: adapted basis has %d of %d vectors"
                             % (len(chosen), n))

    # lift through B0: column b of the change of basis is B0 * v_b
    vmat_cols = [v for v, _ in chosen]
    jumps = [j for _, j in chosen]
    b0 = point.chain[0].basis_columns()
    mat = [[_Z] * n for _ in range(n)]
    for b, v in enumerate(vmat_cols):
        for i in range(n):
            acc = _Z
            for c in range(n):
                if v[c] != 0 and b0[c][i].coeffs:
                    acc = acc + b0[c][i].scalar_mul(v[c])
            mat[i][b] = acc
    # inverse = V^{-1} * B0^{-1}, both exact
    vinv = k_inverse(field, [[vmat_cols[b][c] for b in range(n)] for c in range(n)])
    vinv_loc = [[LocalElement.const(field, e) for e in row] for row in vinv]
    inv = mat_mul(vinv_loc, top.basis_inverse())
    return SplitLines(jumps, mat, inv)


def _stage_vectors(field, vecs, n, rng):
    basis, _ = rref(vecs)
    if rng is None or not basis:
        return basis
    # random invertible recombination of the stage basis
    k = len(basis)
    while True:
        coeffs = [[field.of(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
        try:
            k_inverse(field, coeffs)
        except ZeroDivisionError:
            continue
        break
    return [[sum((coeffs[a][b] * basis[b][i] for b in range(k)), field.zero)
             for i in range(n)] for a in range(k)]


def _k_unit(field, n, i):
    return [field.one if j == i else field.zero for j in range(n)]
