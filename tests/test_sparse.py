"""The sparse-coefficient kernel and the rule that every term map sums through it."""

import ast
import re
from fractions import Fraction
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc import sparse
from formaldisc.errors import UsageError
from formaldisc.liealg import GradedLieAlgebra, LinearMap

SRC = Path(__file__).resolve().parents[1] / "src" / "formaldisc"

# a term map summed by hand: `x.get(k, Fraction(0)) +` or `x.get(k, 0) -`, ...
HAND_SUM = re.compile(r"\.get\([^()]*,\s*(?:Fraction\(0\)|0)\)\s*[-+]")

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=6)
pair_lists = st.lists(st.tuples(st.integers(0, 9), coeffs), max_size=30)


def naive_sum(pairs, start):
    order, total = [], {}
    for key, coeff in list(start.items()) + pairs:
        if key not in total:
            order.append(key)
            total[key] = Fraction(0)
        total[key] += coeff
    return [(key, total[key]) for key in order if total[key] != 0]


@settings(max_examples=300, deadline=None)
@given(
    pair_lists,
    st.lists(st.booleans(), max_size=30),
    st.dictionaries(st.integers(0, 9), coeffs.filter(bool), max_size=5),
)
def test_accumulate_matches_naive_sum(pairs, cancel, start):
    # every flagged pair is undone later in the list, so keys cancel
    pairs = pairs + [(key, -coeff) for (key, coeff), flag in zip(pairs, cancel) if flag]
    got = sparse.accumulate(iter(pairs), start)
    assert list(got.items()) == naive_sum(pairs, start)
    assert all(type(c) is Fraction and c != 0 for c in got.values())
    assert sparse.sub(got, got) == {}
    assert sparse.add(start, dict(pairs[:1])) == sparse.accumulate(pairs[:1], start)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(
        st.integers(0, 9),
        st.fractions(max_denominator=2**61 - 1).filter(bool),
        max_size=8,
    ),
)
def test_integral_and_rational_round_trip(terms):
    den, ints = sparse.integral(terms)
    assert all(type(n) is int for n in ints.values())
    assert all(den % c.denominator == 0 for c in terms.values())
    assert list(sparse.rational(ints.items(), den).items()) == list(terms.items())
    assert sparse.check_exact_vectors({0: terms, 1: {}}, "vector") == den


def test_rational_drops_what_cancels():
    assert sparse.integral({}) == (1, {})
    assert sparse.integral({"a": Fraction(1, 2), "b": Fraction(-2, 3)}) == (
        6,
        {"a": 3, "b": -4},
    )
    got = sparse.rational([("a", 3), ("b", 2), ("a", -3), ("c", 4)], 6)
    assert list(got.items()) == [("b", Fraction(1, 3)), ("c", Fraction(2, 3))]
    assert all(type(c) is Fraction for c in got.values())


def _signed(brackets, a, b):
    """[e_a, e_b] as a dict, read off a table stored on pairs a < b."""
    if a < b:
        return dict(brackets.get((a, b), {}))
    if a > b:
        return {t: -c for t, c in brackets.get((b, a), {}).items()}
    return {}


def _ordered_sum(terms):
    """The nonzero sums of (key, value) terms, added in the order given."""
    total = {}
    for key, value in terms:
        total[key] = total.get(key, 0) + value
    return {key: value for key, value in total.items() if value}


# brackets on pairs a < b of a small basis, with rational structure
# constants; a zero coefficient or an empty vector is kept out of the store
def bracket_maps(dim):
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    vectors = st.dictionaries(st.integers(0, dim - 1), coeffs, max_size=3)
    return st.dictionaries(st.sampled_from(pairs), vectors, max_size=len(pairs))


def algebra(dim, brackets):
    """The algebra on `dim` basis elements of weight 0 with `brackets`."""
    return GradedLieAlgebra("g", tuple(map(str, range(dim))), (0,) * dim, brackets, 0)


@st.composite
def jacobi_cases(draw):
    dim = draw(st.integers(3, 7))
    brackets = draw(bracket_maps(dim))
    i = draw(st.integers(0, dim - 3))
    j = draw(st.integers(i + 1, dim - 2))
    ks = sorted(draw(st.sets(st.integers(j + 1, dim - 1))))
    return dim, brackets, i, j, ks


@settings(max_examples=150, deadline=None)
@given(jacobi_cases())
def test_jacobi_sums_match_an_ordered_sum(case):
    dim, brackets, i, j, ks = case
    g = algebra(dim, brackets)
    assert g.den == sparse.check_exact_vectors(brackets, "bracket")
    scaled = {key: {t: c * g.den for t, c in vec.items()} for key, vec in brackets.items()}
    # [[e_a,e_b],e_c] for the three cyclic orders, term by term, keyed k*n + t
    expected = _ordered_sum(
        (k * dim + t, x * y)
        for k in ks
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
        for m, x in _signed(scaled, a, b).items()
        for t, y in _signed(scaled, m, c).items()
    )
    got = sparse.jacobi_sums(g._rows, i, j, ks)
    assert got == expected
    assert all(type(v) is int and v for v in got.values())


@st.composite
def map_cases(draw):
    src_dim, tgt_dim = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    source, target = draw(bracket_maps(src_dim)), draw(bracket_maps(tgt_dim))
    column = st.dictionaries(st.integers(0, tgt_dim - 1), coeffs, max_size=3)
    columns = draw(st.lists(column, min_size=src_dim, max_size=src_dim))
    i = draw(st.integers(0, src_dim - 2))
    j = draw(st.integers(i + 1, src_dim - 1))
    return src_dim, tgt_dim, source, target, columns, i, j


@settings(max_examples=150, deadline=None)
@given(map_cases())
def test_map_defects_match_an_ordered_sum(case):
    src_dim, tgt_dim, source, target, columns, i, j = case
    f = LinearMap(algebra(src_dim, source), algebra(tgt_dim, target), dict(enumerate(columns)))
    ls, lc, lt = f.source.den, f.den, f.target.den
    assert lc == sparse.check_exact_vectors(dict(enumerate(columns)), "column")
    got = sparse.map_defects(
        f.source._rows,
        f.target._rows,
        [f.columns.get(k, ()) for k in range(src_dim)],
        i,
        j,
        lc * lt,
        ls,
    )
    # f([e_i, e_j]) - [f e_i, f e_j], both at Ls Lc^2 Lt, term by term
    scale = ls * lc * lc * lt
    lhs = (
        (t, c * v * scale)
        for k, c in _signed(source, i, j).items()
        for t, v in columns[k].items()
    )
    rhs = (
        (t, -ca * cb * v * scale)
        for a, ca in columns[i].items()
        for b, cb in columns[j].items()
        for t, v in _signed(target, a, b).items()
    )
    expected = _ordered_sum(chain(lhs, rhs))
    assert got == expected
    assert all(type(v) is int and v for v in got.values())


def test_bracket_reads_both_orientations():
    # one tuple per nonzero pair, ints over den, no zeros: the zero
    # coefficient on (0, 1) and the empty (1, 2) leave nothing stored
    brackets = {
        (0, 2): {1: Fraction(1, 2), 0: Fraction(-3)},
        (0, 1): {2: Fraction(2, 3), 1: 0},
        (1, 2): {},
        (2, 3): {0: Fraction(0)},
    }
    g = algebra(4, brackets)
    assert g.den == 6
    assert dict(g.brackets) == {(0, 2): ((1, 3), (0, -18)), (0, 1): ((2, 4),)}
    for i in range(4):
        for j in range(4):
            expected = {t: -c for t, c in g.bracket(i, j).items()}
            assert g.bracket(j, i) == expected
            assert all(type(c) is Fraction and c for c in g.bracket(i, j).values())
            if (i, j) in g.brackets:
                assert g._rows[i][j] is g._rows[j][i] is g.brackets[(i, j)]
    assert g.bracket(2, 0) == {1: Fraction(-1, 2), 0: Fraction(3)}
    assert g.bracket(1, 2) == g.bracket(3, 2) == g.bracket(1, 1) == {}


def test_a_bracket_component_off_the_basis_is_refused():
    # this built, then verify_graded raised IndexError and verify_jacobi passed
    with pytest.raises(UsageError, match=r"bracket \(0, 1\): index 5 is off the basis 0..1"):
        algebra(2, {(0, 1): {5: 1}})


def test_a_map_index_off_the_target_basis_is_refused():
    g = algebra(2, {(0, 1): {1: 1}})
    with pytest.raises(UsageError, match=r"column 0: index 7 is off the basis 0..1"):
        LinearMap(g, g, {0: {7: 1}})


def test_a_map_column_off_the_source_basis_is_refused():
    g = algebra(2, {(0, 1): {1: 1}})
    with pytest.raises(UsageError, match=r"column 9 is off the source basis 0..1"):
        LinearMap(g, g, {9: {0: 1}})


def _hand_sums(path):
    """Lines of one module that sum a term map by hand.

    `normal_order_random_strategy` keeps its own loop on purpose: it is the
    independent oracle for the product kernel.
    """
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if getattr(node, "name", None) == "normal_order_random_strategy":
            for pos in range(node.lineno - 1, node.end_lineno):
                lines[pos] = ""
    return [
        f"{path.name}:{n}: {line.strip()}"
        for n, line in enumerate(lines, 1)
        if HAND_SUM.search(line)
    ]


def test_only_the_kernel_sums_term_maps():
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "sparse.py"]
    assert len(modules) > 10
    assert [hit for path in modules for hit in _hand_sums(path)] == []
    # the pattern is not vacuous: it finds the oracle's own loop
    assert HAND_SUM.search((SRC / "weyl.py").read_text())
