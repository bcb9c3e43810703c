"""The fraction-free sparse elimination kernel of `linalg` against dense
Gauss-Jordan over Fraction, and the rule that production code reaches it
through sparse rows only."""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc import linalg
from formaldisc.errors import UsageError

ZERO = Fraction(0)
ONE = Fraction(1)
SRC = Path(__file__).resolve().parents[1] / "src" / "formaldisc"


# ---------------------------------------------------------------------------
# reference: dense Gauss-Jordan over Fraction
# ---------------------------------------------------------------------------


def dense_eliminate(matrix):
    """Row-reduce a copy; returns (rref, pivot column list).

    Every row operation runs over the full width; an entry is only left
    alone where the pivot row is zero, since a - f * 0 = a.
    """
    m = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank(matrix):
    if not matrix or not matrix[0]:
        return 0
    return len(dense_eliminate(matrix)[1])


def dense_solve(matrix, rhs):
    rows = len(matrix)
    if rows == 0:
        return [] if all(v == 0 for v in rhs) else None
    cols = len(matrix[0])
    red, pivots = dense_eliminate([matrix[i] + [rhs[i]] for i in range(rows)])
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def dense_mat_mul(a, b):
    """a @ b over Fraction, entry by entry."""
    columns = list(zip(*b))
    return [
        [sum((x * y for x, y in zip(row, col)), ZERO) for col in columns] for row in a
    ]


def dense_map_block(linear_map, weight):
    """The dense matrix of a LinearMap restricted to one source and target
    weight: (block, source indices, target indices)."""
    src = linear_map.source.basis_indices_of_weight(weight)
    tgt = linear_map.target.basis_indices_of_weight(weight)
    tgt_pos = {k: r for r, k in enumerate(tgt)}
    block = [[ZERO] * len(src) for _ in tgt]
    for c, i in enumerate(src):
        for k, val in linear_map.column(i).items():
            block[tgt_pos[k]][c] = val
    return block, src, tgt


def dense_inverse(matrix):
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise UsageError("inverse needs a square matrix")
    red, pivots = dense_eliminate(
        [matrix[i] + linalg.identity(n)[i] for i in range(n)]
    )
    if pivots != list(range(n)):
        raise UsageError("matrix is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# random matrices: shapes 0x0 .. 8x8, density 0-60 %, denominators 1-6 (or
# up to 10^6), with forced zero rows, zero columns and duplicated rows
# ---------------------------------------------------------------------------

entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
wide_entries = st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6))


@st.composite
def matrices(draw, entries=entries):
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8)) if rows else 0
    density = draw(st.integers(0, 60))
    matrix = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            nonzero = draw(st.integers(1, 100)) <= density
            row.append(draw(entries) if nonzero else ZERO)
        matrix.append(row)
    if rows:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            matrix[i] = [ZERO] * cols
    if cols:
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in matrix:
                row[j] = ZERO
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            src, dst = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            matrix[dst] = matrix[src][:]
    return matrix


@st.composite
def systems(draw, entries=entries):
    """A matrix and a right-hand side, consistent (matrix @ x) or arbitrary."""
    matrix = draw(matrices(entries))
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    if draw(st.booleans()):
        x = [draw(entries) for _ in range(cols)]
        rhs = [sum((a * b for a, b in zip(row, x)), ZERO) for row in matrix]
    else:
        rhs = [draw(entries) for _ in range(rows)]
    return matrix, rhs


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rank_matches_dense(matrix):
    assert linalg.rank(matrix) == dense_rank(matrix)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_matches_dense(system):
    matrix, rhs = system
    got = linalg.solve(matrix, rhs)
    assert got == dense_solve(matrix, rhs)
    if got is not None:
        assert all(type(v) is Fraction for v in got)


@settings(max_examples=400, deadline=None)
@given(matrices(), st.booleans())
def test_inverse_matches_dense(matrix, corner):
    # the top-left corner is square more often than the drawn shape
    square = [row[: len(matrix)] for row in matrix] if corner else matrix
    try:
        expected = dense_inverse(square)
    except UsageError as exc:
        with pytest.raises(UsageError, match=str(exc)):
            linalg.inverse(square)
        return
    got = linalg.inverse(square)
    assert got == expected
    assert all(type(v) is Fraction for row in got for v in row)
    assert dense_mat_mul(square, got) == linalg.identity(len(square))


@st.composite
def regular_matrices(draw, entries=entries):
    """Row-permuted L @ U with nonzero diagonals: square and invertible."""
    n = draw(st.integers(1, 8))
    nonzero = entries.filter(bool)
    lower = [
        [draw(nonzero) if i == j else draw(entries) if j < i else ZERO for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [draw(nonzero) if i == j else draw(entries) if j > i else ZERO for j in range(n)]
        for i in range(n)
    ]
    return draw(st.permutations(dense_mat_mul(lower, upper)))


@settings(max_examples=200, deadline=None)
@given(regular_matrices())
def test_inverse_of_regular_matrices(matrix):
    got = linalg.inverse(matrix)
    assert got == dense_inverse(matrix)
    assert dense_mat_mul(matrix, got) == linalg.identity(len(matrix))
    assert linalg.rank(matrix) == len(matrix)


def test_solve_picks_the_gauss_jordan_solution():
    # free variables are zero and the pivots are the first independent columns
    matrix = [[1, 2, 3], [2, 4, 7]]
    assert linalg.solve(matrix, [1, 3]) == [Fraction(-2), ZERO, ONE]
    assert linalg.solve([[1, 1], [1, 1]], [1, 2]) is None


@settings(max_examples=300, deadline=None)
@given(matrices(), st.booleans())
def test_rank_rows_matches_dense(matrix, integral):
    # the sparse entry point, on Fraction rows or on int rows of the same rank
    if integral:
        matrix = [[int(v * 720) for v in row] for row in matrix]
    cols = len(matrix[0]) if matrix else 0
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    assert linalg.rank_rows(rows, cols) == dense_rank(matrix)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_elimination_stays_on_integers(matrix):
    cols = len(matrix[0]) if matrix else 0
    rows = [linalg._sparse_row(row) for row in matrix]
    pivots, rest = linalg._eliminate(rows, cols)
    assert list(pivots) == dense_eliminate(matrix)[1]
    assert not rest
    assert all(type(v) is int for row in pivots.values() for v in row.values())


def sparse_rows(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


class TestSolveRows:
    """The sparse entry point that `cohomology.is_coboundary` uses."""

    @settings(max_examples=300, deadline=None)
    @given(systems(wide_entries))
    def test_matches_dense_with_large_denominators(self, system):
        matrix, rhs = system
        cols = len(matrix[0]) if matrix else 0
        got = linalg.solve_rows(sparse_rows(matrix), cols, rhs)
        assert got == dense_solve(matrix, rhs)
        if got is not None:
            assert all(type(v) is Fraction for v in got)

    def test_rows_are_not_changed(self):
        rows = [{0: 1, 2: Fraction(1, 2)}, {1: 3}]
        linalg.solve_rows(rows, 3, [1, 2])
        assert rows == [{0: 1, 2: Fraction(1, 2)}, {1: 3}]

    def test_rejects_a_float_entry_or_rhs(self):
        with pytest.raises(UsageError):
            linalg.solve_rows([{0: 1}, {1: 0.5}], 2, [1, 1])
        with pytest.raises(UsageError):
            linalg.solve_rows([{0: 1}, {1: 1}], 2, [1, 0.5])

    def test_rhs_length_must_match_the_rows(self):
        with pytest.raises(UsageError, match="2 rows but a right-hand side of length 3"):
            linalg.solve_rows([{0: 1}, {1: 1}], 2, [1, 1, 1])
        with pytest.raises(UsageError, match="length 1"):
            linalg.solve([[1, 0], [0, 1]], [1])


class TestExactOutputs:
    """Every entry `solve` and `inverse` return, and every value read off a
    pivot row, is a Fraction.  Equality alone cannot show it: a float 0.5
    compares equal to Fraction(1, 2)."""

    @settings(max_examples=300, deadline=None)
    @given(systems(wide_entries))
    def test_solve_with_large_denominators(self, system):
        matrix, rhs = system
        got = linalg.solve(matrix, rhs)
        assert got == dense_solve(matrix, rhs)
        if got is not None:
            assert all(type(v) is Fraction for v in got)

    @settings(max_examples=150, deadline=None)
    @given(regular_matrices(wide_entries))
    def test_inverse_with_large_denominators(self, matrix):
        got = linalg.inverse(matrix)
        assert got == dense_inverse(matrix)
        assert all(type(v) is Fraction for row in got for v in row)

    def test_int_input_gives_fraction_output(self):
        # every pivot entry and right-hand side is an int here, so an int
        # division in back-substitution would hand back floats
        got = linalg.solve([[2, 1], [0, 4]], [1, 1])
        assert got == [Fraction(3, 8), Fraction(1, 4)]
        assert all(type(v) is Fraction for v in got)
        inv = linalg.inverse([[2, 0], [0, 4]])
        assert inv == [[Fraction(1, 2), ZERO], [ZERO, Fraction(1, 4)]]
        assert all(type(v) is Fraction for row in inv for v in row)

    @settings(max_examples=200, deadline=None)
    @given(systems(wide_entries))
    def test_back_substitution_reads_fractions(self, system):
        # consistent or not, every value read off the pivot rows
        matrix, rhs = system
        cols = len(matrix[0]) if matrix else 0
        rows = [linalg._sparse_row(row, (v,)) for row, v in zip(matrix, rhs)]
        pivots, _ = linalg._eliminate(rows, cols)
        x = linalg._back_substitute(pivots, cols, cols)
        assert all(type(v) is Fraction for v in x)


class TestFloatGuard:
    def test_rank_rejects_a_float_entry(self):
        with pytest.raises(UsageError):
            linalg.rank([[1, 0], [0, 0.5]])

    def test_solve_rejects_a_float_entry_or_rhs(self):
        with pytest.raises(UsageError):
            linalg.solve([[1, 0], [0, 0.5]], [1, 1])
        with pytest.raises(UsageError):
            linalg.solve([[1, 0], [0, 1]], [1, 0.5])

    def test_inverse_rejects_a_float_entry(self):
        with pytest.raises(UsageError):
            linalg.inverse([[2.0, 0], [0, 1]])

    def test_rank_rows_rejects_a_float_entry(self):
        with pytest.raises(UsageError):
            linalg.rank_rows([{0: 1}, {1: 0.5}], 2)


# a call of a dense entry point: `linalg.rank(`, `differential_block(`, ...
DENSE_CALL = re.compile(
    r"(?<!def )\b(?:linalg\.rank|linalg\.solve|differential_block|matrix_block|mat_mul)\("
)


def test_production_linear_algebra_is_sparse():
    # outside linalg, src reaches the elimination kernel through sparse rows
    # only; the dense views serve the tests and the benchmark
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "linalg.py"]
    assert len(modules) > 10
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in modules
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if DENSE_CALL.search(line) or "from .linalg import" in line
    ]
    assert hits == []
    # the pattern is not vacuous: it finds the dense oracle calls of the tests
    tests = Path(__file__).resolve().parent
    assert DENSE_CALL.search((tests / "test_cohomology.py").read_text())
    assert not DENSE_CALL.search("linalg.rank_rows(rows) linalg.solve_rows(rows)")
