"""Dense exact linear algebra over a field object from :mod:`.fields`.

Matrices are lists of row lists of scalars.  A :class:`Matrix` only holds
and transposes them; the library needs row reduction (``rref``, ``rank``,
``kernel``) and ``det``, not matrix products.  Pivoting is
deterministic (first nonzero entry, columns left to right, rows top
down), so all outputs are reproducible.

Every row operation (a scaled pivot row, an elimination step) is
computed with the plain ``+ - *`` operators on the scalars and then
passed once through ``field.reduce_row``: one field reduction per row,
not a field-method call per entry.  The code is the same for F_p and Q;
only ``reduce_row`` and ``inv`` differ between them.
"""

from __future__ import annotations

from .errors import NotSquare


class Matrix:
    def __init__(self, field, entries):
        self.field = field
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, [[field.zero] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        m = cls.zero(field, n, n)
        for i in range(n):
            m.entries[i][i] = field.one
        return m

    def transpose(self):
        return Matrix(self.field, [[self.entries[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.entries!r})"


def rref(m: Matrix):
    """Reduced row-echelon form; returns (R, rank, pivot_columns)."""
    F = m.field
    red = F.reduce_row
    a = [list(row) for row in m.entries]
    rows, cols = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = F.inv(a[r][c])
        prow = a[r] = red([inv * e for e in a[r]])
        for i in range(rows):
            f = a[i][c]
            if f and i != r:
                a[i] = red([e - f * pe for e, pe in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return Matrix(F, a), r, pivots


def rank(m: Matrix) -> int:
    return rref(m)[1]


def kernel(m: Matrix):
    """Basis of the right null space, echelon-normalized, deterministic."""
    F = m.field
    R, rk, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F.zero] * m.cols
        v[fc] = F.one
        for i, pc in enumerate(pivots):
            v[pc] = F.neg(R.entries[i][fc])
        basis.append(v)
    return basis


def det(m: Matrix):
    """Determinant by ordinary Gaussian elimination."""
    if m.rows != m.cols:
        raise NotSquare("determinant needs a square matrix")
    F = m.field
    red = F.reduce_row
    a = [list(row) for row in m.entries]
    n = m.rows
    d = F.one
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return F.zero
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            d = F.neg(d)
        prow = a[c]
        d = F.mul(d, prow[c])
        inv = F.inv(prow[c])
        for i in range(c + 1, n):
            if a[i][c]:
                f = F.mul(a[i][c], inv)
                a[i] = red([e - f * pe for e, pe in zip(a[i], prow)])
    return d

