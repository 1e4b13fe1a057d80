"""Dense exact linear algebra over a field object from :mod:`.fields`.

A matrix is a list of row lists (or tuples) of scalars, and every
function takes ``(field, rows)``; a transpose is ``zip(*rows)``.  The
library needs row reduction (``rref``, ``rank``, ``kernel``) and
``det``, not matrix products.  Pivoting is deterministic (first nonzero
entry, columns left to right, rows top down), so all outputs are
reproducible.  The input rows are never modified.

Every row operation (a scaled pivot row, an elimination step, a kernel
vector) is computed with the plain ``+ - *`` operators on the scalars and
then passed once through ``field.reduce_row``: one field reduction per
row.  The determinant's running product is reduced once per column with
``field.of``.  The code is the same for F_p and Q; only ``reduce_row``,
``of`` and ``inv`` differ between them.
"""

from __future__ import annotations

from .errors import NotSquare


def rref(field, rows):
    """Reduced row-echelon form; returns (echelon_rows, pivot_columns):
    the nonzero rows only, one per pivot column."""
    red = field.reduce_row
    a = list(rows)
    n = len(a)
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        pr = next((i for i in range(r, n) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.inv(a[r][c])
        prow = a[r] = red([inv * e for e in a[r]])
        for i in range(n):
            f = a[i][c]
            if f and i != r:
                a[i] = red([e - f * pe for e, pe in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == n:
            break
    return a[:r], pivots


def rank(field, rows) -> int:
    return len(rref(field, rows)[1])


def kernel(field, rows):
    """Basis of the right null space, echelon-normalized, deterministic."""
    cols = len(rows[0]) if rows else 0
    echelon, pivots = rref(field, rows)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [field.zero] * cols
        v[fc] = field.one
        for row, pc in zip(echelon, pivots):
            v[pc] = -row[fc]
        basis.append(field.reduce_row(v))
    return basis


def det(field, rows):
    """Determinant by ordinary Gaussian elimination."""
    n = len(rows)
    if rows and len(rows[0]) != n:
        raise NotSquare("determinant needs a square matrix")
    F = field
    red = F.reduce_row
    a = list(rows)
    d = F.one
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return F.zero
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            d = -d
        prow = a[c]
        d = F.of(d * prow[c])
        inv = F.inv(prow[c])
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = red([e - f * pe for e, pe in zip(a[i], prow)])
    return d
