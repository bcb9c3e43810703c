"""Small dense exact-rational linear algebra: rank, solve, inverse.

Everything is Gaussian elimination over Fraction; no floating point anywhere.
Matrices are lists of lists of Fraction, rows first.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import UsageError

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    if not a or not b:
        return []
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            c = a[i][k]
            if c == 0:
                continue
            brow = b[k]
            orow = out[i]
            for j in range(cols):
                if brow[j] != 0:
                    orow[j] += c * brow[j]
    return out


def _eliminate(matrix):
    """Row-reduce a copy; returns (rref, pivot column list)."""
    m = [row[:] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    if not matrix or not matrix[0]:
        return 0
    return len(_eliminate(matrix)[1])


def solve(matrix, rhs):
    """One exact solution of matrix @ x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    rows = len(matrix)
    if rows == 0:
        return [] if all(v == 0 for v in rhs) else None
    cols = len(matrix[0])
    aug = [matrix[i][:] + [Fraction(rhs[i])] for i in range(rows)]
    red, pivots = _eliminate(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise UsageError("inverse needs a square matrix")
    aug = [matrix[i][:] + identity(n)[i] for i in range(n)]
    red, pivots = _eliminate(aug)
    if pivots != list(range(n)):
        raise UsageError("matrix is singular")
    return [row[n:] for row in red]
