"""Exact dense linear algebra over the integers.

Matrices here are small (at most a few dozen rows), so everything is done
with big ints, fraction-free in the style of Bareiss; no floating point
anywhere.
"""

from __future__ import annotations


def symmetric_signature_nullity(mat) -> tuple[int, int]:
    """(signature, nullity) of a symmetric integer matrix, by fraction-free
    symmetric elimination.

    Each pivot is a nonzero diagonal entry ``d``. The remaining entries
    become ``(d * a[j][k] - a[j][p] * a[p][k]) // prev``, the principal
    minors of Bareiss elimination, so every division is exact, and the pivot
    adds an eigenvalue of the sign of ``d / prev``. When every remaining
    diagonal entry is zero but some ``a[i][j]`` is not, the congruence
    row_i += row_j, col_i += col_j makes ``a[i][i] = 2 * a[i][j]``.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    a = [[int(mat[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if a[i][j] != mat[i][j]:
                raise ValueError("matrix entries must be integers")
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    pos = neg = 0
    prev = 1
    while a:
        p = next((i for i, row in enumerate(a) if row[i]), None)
        if p is None:
            hyp = next(((i, j) for i, row in enumerate(a)
                        for j, x in enumerate(row) if x), None)
            if hyp is None:
                break  # remaining block is zero
            p, j = hyp
            a[p] = [x + y for x, y in zip(a[p], a[j])]
            for row in a:
                row[p] += row[j]
        # Move the pivot last, then drop its row and column.
        a[p], a[-1] = a[-1], a[p]
        for row in a:
            row[p], row[-1] = row[-1], row[p]
        rp = a.pop()
        d = rp.pop()
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i, row in enumerate(a):
            f = row.pop()
            if f:
                a[i] = [(d * x - f * y) // prev for x, y in zip(row, rp)]
            elif d != prev:  # most rows of a sparse form: a scaling only
                a[i] = [d * x // prev for x in row]
        prev = d
    return pos - neg, n - pos - neg


def det_bareiss(mat) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
