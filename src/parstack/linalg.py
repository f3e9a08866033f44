"""Small matrix helpers over the Laurent-polynomial model of K and over k.

Matrices are row-major lists of lists.  Entries are LocalElement for
K-matrices and bare field elements for k-matrices (fiber computations).
"""

from __future__ import annotations

from .localring import LocalElement

_Z = LocalElement.zero()


# -- K-matrices (LocalElement entries) ------------------------------------


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
    out = []
    for row in a:
        acc = _Z
        for e, x in zip(row, v):
            if e.coeffs and x.coeffs:
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


# -- k-matrices (field-element entries) -----------------------------------


def rref(rows):
    """Reduced row echelon form; returns (rref_rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = None
        for r in range(rank, len(m)):
            if m[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [inv * e for e in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [e - f * g for e, g in zip(m[r], m[rank])]
        pivots.append(c)
        rank += 1
        if rank == len(m):
            break
    return m[:rank], pivots


def k_inverse(field, rows):
    """Inverse of a square k-matrix via Gauss-Jordan."""
    n = len(rows)
    aug = [list(r) + [field.one if i == j else field.zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if len(red) != n or pivots != list(range(n)):
        raise ZeroDivisionError("matrix not invertible over k")
    return [row[n:] for row in red]


class EchelonTracker:
    """Incremental independence test over k with deterministic reduction."""

    def __init__(self):
        self.rows = []    # reduced vectors, each with a distinct pivot
        self.pivots = []  # pivot index of each row

    def reduce(self, vec):
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [e - f * g for e, g in zip(v, row)]
        return v

    def try_add(self, vec):
        """Reduce vec against the current rows; add and return the reduced
        vector if independent, else None."""
        v = self.reduce(vec)
        p = None
        for i, e in enumerate(v):
            if e != 0:
                p = i
                break
        if p is None:
            return None
        inv = 1 / v[p]
        v = [inv * e for e in v]
        self.rows.append(v)
        self.pivots.append(p)
        return v
