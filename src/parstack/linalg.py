"""Small matrix helpers over the Laurent-polynomial model of K.

Matrices are row-major lists of lists of LocalElement entries.  Linear
algebra over the residue field k runs on constant K-matrices through the
lattice kernel, so there are no matrices of bare field values.  All
products run on ``mat_vec``, which multiplies only nonzero pairs: it
collects the support of its vector once and sums each row over it alone.
``mat_mul`` applies it to each row of a against the transpose of b.
"""

from __future__ import annotations

from .localring import LocalElement

_Z = LocalElement.zero()


def identity_matrix(field, n):
    one = LocalElement.t_power(field, 0)
    return [[one if i == j else _Z for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    bt = transpose(b)
    return [mat_vec(bt, row) for row in a]


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

