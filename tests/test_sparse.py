"""The sparse-coefficient kernel and the rule that every term map sums through it."""

import ast
import re
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc import sparse

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
    st.integers(1, 5),
)
def test_integral_and_rational_round_trip(terms, factor):
    den, ints = sparse.integral(terms)
    assert all(type(n) is int for n in ints.values())
    assert all(den % c.denominator == 0 for c in terms.values())
    assert list(sparse.rational(ints.items(), den).items()) == list(terms.items())
    # a given multiple of the lcm scales the same support
    _, wider = sparse.integral(terms, den * factor)
    assert wider == {key: n * factor for key, n in ints.items()}
    assert sparse.common_denominator([terms, {}]) == den


def test_rational_drops_what_cancels():
    assert sparse.integral({}) == (1, {})
    assert sparse.integral({"a": Fraction(1, 2), "b": Fraction(-2, 3)}) == (
        6,
        {"a": 3, "b": -4},
    )
    got = sparse.rational([("a", 3), ("b", 2), ("a", -3), ("c", 4)], 6)
    assert list(got.items()) == [("b", Fraction(1, 3)), ("c", Fraction(2, 3))]
    assert all(type(c) is Fraction for c in got.values())


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
