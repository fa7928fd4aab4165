"""Dense exact linear algebra over a coefficient field (raw-level).

Matrices are lists of equal-length lists of raw field elements.  Nothing
here is tuned for size: callers are zero-dimensional quotients and Gram
matrices, which stay small.
"""

from __future__ import annotations


def rref(field, rows):
    """Reduced row echelon form; returns (new_rows, pivot_column_list)."""
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and not field.is_zero(rows[i][c]):
                factor = rows[i][c]
                rows[i] = [
                    field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[r])
                ]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel, one vector per free column (canonical)."""
    reduced, pivots = rref(field, rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = field.neg(reduced[r][fc])
        basis.append(vec)
    return basis


def det(field, rows):
    """Determinant by Gaussian elimination with exact division."""
    n = len(rows)
    rows = [list(r) for r in rows]
    sign = 1
    acc = field.one
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not field.is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            return field.zero
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            sign = -sign
        acc = field.mul(acc, rows[c][c])
        inv = field.inv(rows[c][c])
        for i in range(c + 1, n):
            if field.is_zero(rows[i][c]):
                continue
            factor = field.mul(rows[i][c], inv)
            rows[i] = [
                field.sub(v, field.mul(factor, w)) for v, w in zip(rows[i], rows[c])
            ]
    if sign < 0:
        acc = field.neg(acc)
    return acc

