"""Exact-rational linear algebra: rank, solve, inverse.

The production entry points take sparse rows (dicts from column index to
nonzero int or Fraction entries): `rank_rows` and `solve_rows`.  The dense
wrappers `rank`, `solve` and `inverse` take lists of rows and convert them
to sparse rows; `rank` and `solve` serve the tests and the benchmark, and
`inverse` the small linear parts in `darboux`.  A float entry raises
UsageError.  Every operation shares one kernel: fraction-free forward
elimination on sparse integer rows.  Each row is scaled by the lcm of its
denominators, and every elimination step replaces a row r by
(a r - b pivot) / content, where a and b are the pivot-column entries of
the pivot and of r and the content is the gcd of the result.  So the
arithmetic stays on Python ints, and a mostly-zero block costs what its
nonzeros cost.  Back-substitution divides by each pivot entry into
Fraction.  No floating point and no modular arithmetic anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import UsageError
from .sparse import accumulate, as_fraction, integral

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _sparse_row(row, extra=()):
    """The nonzero entries of a dense row (then `extra`) as col -> value."""
    out = {j: v for j, v in enumerate(row) if v}
    out.update((len(row) + j, v) for j, v in enumerate(extra) if v)
    return out


def _eliminate(rows, cols):
    """Fraction-free forward elimination of sparse rows on columns
    0..cols-1, in order, each row first scaled to int entries.

    The pivot of a column is the shortest remaining row that is nonzero
    there.  Every other remaining row r nonzero there becomes
    (a r - b pivot) / content, with a = pivot[c] and b = r[c] divided by
    their gcd and the content the gcd of the new entries; it is a nonzero
    multiple of the row that rational elimination would give, so it has
    the same support.  Rows above a pivot are never cleared.  Returns
    {pivot column: pivot row}, ascending, and the remaining rows, which are
    nonzero only in columns >= cols.  The pivot columns are the
    lexicographically first independent columns, as in Gauss-Jordan.
    """
    for row in rows:
        for v in row.values():
            if not isinstance(v, (int, Fraction)):
                raise UsageError(f"not an exact rational: {v!r}")
    live = {i: integral(row)[1] for i, row in enumerate(rows) if row}
    holders: dict[int, set] = {}  # column -> live rows nonzero there
    for i, row in live.items():
        for col in row:
            holders.setdefault(col, set()).add(i)
    pivots = {}
    for c in range(cols):
        ids = holders.pop(c, None)
        if not ids:
            continue
        p = min(ids, key=lambda i: (len(live[i]), i))
        ids.discard(p)
        pivot = live.pop(p)
        for col in pivot:
            if col != c:
                holders[col].discard(p)
        pivots[c] = pivot
        lead = pivot[c]
        for i in ids:
            row = live[i]
            g = gcd(lead, row[c])
            a, b = lead // g, row[c] // g
            new = accumulate(
                chain(
                    ((col, a * v) for col, v in row.items()),
                    ((col, -b * v) for col, v in pivot.items()),
                )
            )
            for col in row:
                if col != c and col not in new:
                    holders[col].discard(i)
            for col in new:
                if col not in row:
                    holders.setdefault(col, set()).add(i)
            if new:
                content = gcd(*new.values())
                if content != 1:
                    new = {col: v // content for col, v in new.items()}
                live[i] = new
            else:
                del live[i]
    return pivots, list(live.values())


def _back_substitute(pivots, cols, rhs_col):
    """The solution with free variables zero, reading the right-hand side
    from column `rhs_col` of the pivot rows.  Each pivot row is an int row,
    so x[c] is built as a Fraction, never by int division."""
    x = [ZERO] * cols
    for c in reversed(pivots):
        row = pivots[c]
        known = sum(v * x[col] for col, v in row.items() if c < col < cols)
        rhs = row.get(rhs_col, 0)
        x[c] = Fraction(rhs - known, row[c])
    return x


def rank_rows(rows, cols: int) -> int:
    """The rank of a matrix given as sparse rows: dicts from column index
    (below `cols`) to nonzero int or Fraction entries."""
    return len(_eliminate(rows, cols)[0])


def solve_rows(rows, cols: int, rhs):
    """One exact solution x of rows @ x = rhs, or None if inconsistent.

    `rows` are sparse rows as for `rank_rows`; the right-hand side goes in
    as column `cols`.  Free variables are set to zero.
    """
    if len(rhs) != len(rows):
        raise UsageError(f"{len(rows)} rows but a right-hand side of length {len(rhs)}")
    augmented = [
        {**row, cols: v} if v else row
        for row, v in zip(rows, map(as_fraction, rhs))
    ]
    pivots, rest = _eliminate(augmented, cols)
    if rest:
        return None
    return _back_substitute(pivots, cols, cols)


def rank(matrix) -> int:
    """Dense entry point of `rank_rows`, for the tests and the benchmark."""
    if not matrix or not matrix[0]:
        return 0
    return rank_rows([_sparse_row(row) for row in matrix], len(matrix[0]))


def solve(matrix, rhs):
    """Dense entry point of `solve_rows`, for the tests and the benchmark."""
    cols = len(matrix[0]) if matrix else 0
    return solve_rows([_sparse_row(row) for row in matrix], cols, rhs)


def inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise UsageError("inverse needs a square matrix")
    pivots, _ = _eliminate(
        [_sparse_row(row, unit) for row, unit in zip(matrix, identity(n))], n
    )
    if len(pivots) != n:
        raise UsageError("matrix is singular")
    columns = [_back_substitute(pivots, n, n + j) for j in range(n)]
    return [[column[i] for column in columns] for i in range(n)]
