"""Dense exact linear algebra over a coefficient field (raw-level).

Matrices are lists of equal-length lists of raw field elements.  One
forward elimination, `_echelon`, serves everything: `det` reads its
signed pivot product and `rref` adds back substitution.  Nothing here is
tuned for size: callers are zero-dimensional quotients and Gram
matrices, which stay small.  `integer_kernel` is the one routine over Z
instead of a field.
"""

from __future__ import annotations


def _clear(field, rows, r, c, others):
    """Subtract multiples of the pivot row r, which has a one in column c
    and zeros left of it, from each row in `others` so that column c of
    those rows is zero; columns left of c are left as they are."""
    pivot_tail = rows[r][c:]
    for i in others:
        row = rows[i]
        factor = row[c]
        if not field.is_zero(factor):
            row[c:] = [field.sub(v, field.mul(factor, w)) for v, w in zip(row[c:], pivot_tail)]


def _echelon(field, rows):
    """Forward elimination on a copy of `rows`: (rows, pivots, signed), the
    rows in echelon form with each pivot row scaled to lead with one, the
    pivot columns, and (-1)^(row swaps) times the product of the pivots
    before scaling."""
    rows = [list(r) for r in rows]
    pivots = []
    signed = field.one
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if not field.is_zero(rows[i][c])), None)
        if pivot is None:
            continue
        if pivot != r:
            rows[r], rows[pivot] = rows[pivot], rows[r]
            signed = field.neg(signed)
        lead = rows[r][c]
        signed = field.mul(signed, lead)
        inv = field.inv(lead)
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        _clear(field, rows, r, c, range(r + 1, len(rows)))
        pivots.append(c)
    return rows, pivots, signed


def rref(field, rows):
    """Reduced row echelon form; returns (new_rows, pivot_column_list)."""
    rows, pivots, _ = _echelon(field, rows)
    for r in reversed(range(len(pivots))):
        _clear(field, rows, r, pivots[r], range(r))
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
    """Determinant of a square matrix: the signed pivot product, or zero
    when the elimination finds fewer pivots than rows."""
    _, pivots, signed = _echelon(field, rows)
    return signed if len(pivots) == len(rows) else field.zero


def integer_kernel(rows, ncols: int) -> list:
    """A Z-basis of {a in Z^ncols : r . a = 0 for every row r}, for rows of
    integers.

    Unimodular column operations (Euclid on one row at a time) bring the
    rows to rows * U = [H | 0] with the k columns of H independent; as U
    is invertible over Z, its last ncols - k columns span the kernel over
    Z, not only over Q.  So the lattice they span is saturated: it holds a
    whenever it holds d*a for some d != 0, which clearing the denominators
    of a rational basis does not give (for the row (2, 1, 1) it misses
    (0, 1, -1))."""
    m = len(rows)
    # column j of rows, then column j of U
    cols = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    k = 0
    for r in range(m):
        while live := [j for j in range(k, ncols) if cols[j][r]]:
            j = min(live, key=lambda i: abs(cols[i][r]))
            cols[k], cols[j] = cols[j], cols[k]
            if len(live) == 1:
                k += 1
                break
            pivot = cols[k]
            for j in range(k + 1, ncols):
                if f := cols[j][r] // pivot[r]:
                    cols[j] = [a - f * b for a, b in zip(cols[j], pivot)]
    return [tuple(col[m:]) for col in cols[k:]]
