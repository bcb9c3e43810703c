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
