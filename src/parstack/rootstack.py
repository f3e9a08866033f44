"""Equivariant graded modules on root-stack charts and the correspondence.

A graded module of order s is an ascending lattice chain

    M_0 <= M_1 <= ... <= M_{s-1} <= t^{-1} M_0

inside a common K^n; the inclusions model multiplication by the root T of
the uniformizer, and the wraparound composite is multiplication by t.  The
correspondence with parabolic chains is the index map E^0 = M_0,
E^j = t * M_{s-j}, which is exact in both directions on canonical forms.
Nothing here splits a module into lines: the graded functors work on the
pieces themselves, and the graded pullback is base change (functors).

The index maps build their result without testing it again, since they
map a valid object to a valid one, and scale each run of equal members
once (lattice.map_runs).  Scaling by t preserves inclusion, so
for 0 < j < s, E^j >= E^{j+1} holds exactly when M_{s-j} >= M_{s-j-1};
E^0 >= E^1 holds exactly when M_0 >= t * M_{s-1}, the wraparound; and
E^s = t * E^0 holds by construction.  Read backwards, the same
equivalences carry a valid chain to a valid module.  Every other
construction of a point or a module (functor outputs, generated points,
decoded objects) is checked.
"""

from __future__ import annotations

from .errors import InvalidGrading, ShapeMismatch
from .lattice import map_runs
from .linalg import mat_vec
from .parabolic import ParabolicPoint


class GradedModule:
    """Ascending lattice chain with t^{-1}-wraparound."""

    __slots__ = ("order", "pieces", "n", "field")

    def __init__(self, order, pieces):
        pieces = tuple(pieces)
        if order < 1 or len(pieces) != order:
            raise InvalidGrading("need exactly `order` graded pieces")
        first = pieces[0]
        self.order = order
        self.pieces = pieces
        self.n = first.n
        self.field = first.field
        # equal neighbours need no inclusion test
        for k in range(order - 1):
            if pieces[k + 1] != pieces[k] and not pieces[k + 1].contains(pieces[k]):
                raise InvalidGrading("piece %d does not include into piece %d" % (k, k + 1))
        if not pieces[0].scale(-1).contains(pieces[order - 1]):
            raise InvalidGrading("wraparound piece escapes t^{-1} M_0")

    @classmethod
    def _unchecked(cls, order, pieces):
        """The module of pieces that are valid by construction, built
        without the inclusion tests.  Only the index maps below call it;
        every other construction is checked."""
        self = object.__new__(cls)
        self.order = order
        self.pieces = pieces = tuple(pieces)
        self.n = pieces[0].n
        self.field = pieces[0].field
        return self

    def __eq__(self, other):
        if not isinstance(other, GradedModule):
            return NotImplemented
        return self.order == other.order and self.pieces == other.pieces

    def __hash__(self):
        return hash((self.order, self.pieces))

    def __repr__(self):
        return "GradedModule(order=%d, n=%d)" % (self.order, self.n)


def to_parabolic(module):
    """Index map M -> E: E^0 = M_0 and E^j = t * M_{s-j}; E^s = t * M_0."""
    pieces = module.pieces
    chain = map_runs(lambda lat: lat.scale(1), pieces[:0:-1] + pieces[:1])
    return ParabolicPoint._unchecked(module.order, [pieces[0], *chain])


def from_parabolic(point):
    """Inverse index map E -> M: M_0 = E^0 and M_k = t^{-1} E^{s-k}."""
    chain = point.chain
    pieces = map_runs(lambda lat: lat.scale(-1), chain[point.order - 1:0:-1])
    return GradedModule._unchecked(point.order, [chain[0], *pieces])


def is_graded_morphism(rows, src, dst):
    """True iff rows * src.pieces[k] <= dst.pieces[k] for every grade k.

    Modules of different orders are never related.  A matrix that is not
    dst.n x src.n raises ShapeMismatch.  Column j of M_k is tested only
    when k = 0 or it differs from column j of M_{k-1}: an equal column was
    proven, at grade k-1 or by this rule below it, to map into N_{k-1},
    which lies in N_k because the target's pieces ascend.  So a grade that
    repeats the previous source piece tests nothing.
    """
    if src.order != dst.order:
        return False
    if len(rows) != dst.n or (rows and len(rows[0]) != src.n):
        raise ShapeMismatch("matrix is %dx%d, expected %dx%d"
                            % (len(rows), len(rows[0]) if rows else 0, dst.n, src.n))
    prev = None
    for piece, tgt in zip(src.pieces, dst.pieces):
        for j, (a, ent) in enumerate(zip(piece.diag, piece.entries)):
            if prev is not None and a == prev.diag[j] and ent == prev.entries[j]:
                continue
            if not tgt.member(mat_vec(rows, piece.column(j))):
                return False
        prev = piece
    return True
