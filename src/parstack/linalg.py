"""Small matrix helpers over the Laurent-polynomial model of K.

Matrices are row-major lists of lists of LocalElement entries.  Linear
algebra over the residue field k runs on constant K-matrices through the
lattice kernel, so there are no matrices of bare field values.  Products
multiply only pairs of nonzero entries; ``mat_vec`` collects the support
of its vector once and each row sums over that support alone, which is
what ``lattice.image_columns`` and the pairing Gram matrices run on.
"""

from __future__ import annotations

from .localring import LocalElement

_Z = LocalElement.zero()


def identity_matrix(field, n):
    one = LocalElement.t_power(field, 0)
    return [[one if i == j else _Z for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m = len(a), len(b[0]) if b else 0
    inner = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = _Z
            for k in range(inner):
                e, f = a[i][k], b[k][j]
                if e.coeffs and f.coeffs:
                    acc = acc + e * f
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a, v):
    """a * v, summing each row over the nonzero entries of v only."""
    support = [(k, x) for k, x in enumerate(v) if x.coeffs]
    out = []
    for row in a:
        acc = _Z
        for k, x in support:
            e = row[k]
            if e.coeffs:
                acc = acc + e * x
        out.append(acc)
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def block_diag(blocks):
    """The K-matrix with the given (rectangular) blocks on its diagonal."""
    width = sum(len(b[0]) for b in blocks)
    out = []
    off = 0
    for b in blocks:
        k = len(b[0])
        for row in b:
            out.append([_Z] * off + row + [_Z] * (width - off - k))
        off += k
    return out


def add_column_multiple(m, minv, i, j, f):
    """Add f times column j of m to column i, and subtract f times row i of
    minv from row j, so that minv stays the inverse of m."""
    for row in m:
        row[i] = row[i] + f * row[j]
    src, dst = minv[i], minv[j]
    for c in range(len(dst)):
        dst[c] = dst[c] - f * src[c]
