"""The integer-first product kernels against their Fraction routes.

`star`, `commutator`, `TruncatedPoly.__mul__` and `Substitution.apply`
scale their operands to ints, sum on ints and divide once per output term.
The reference functions here are the routes they replaced: a `Fraction`
product for every pair of terms, summed through `accumulate`.  They are
compared on seeded inputs with denominators 1, 2, 3, 7 and 2^61 - 1, with
h-terms, with terms that cancel, with an empty operand and with operands
whose every pair is over the cutoff.  Every output must also keep the
contract of the unchecked `_trusted` wrappers: nonzero `Fraction`s on
monomials of the right dimension inside the truncation.
"""

import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formaldisc import tower
from formaldisc.series import Monomial, Substitution, TruncatedPoly, all_monomials
from formaldisc.sparse import accumulate
from formaldisc.weyl import (
    TruncationSpec,
    WeylElement,
    _contracted,
    _contractions,
    _normal_commutator,
    _normal_product,
    commutator,
    star,
)

DENOMINATORS = (1, 2, 3, 7, 2**61 - 1)
SPECS = [TruncationSpec(1, 2, 6), TruncationSpec(2, 1, 5), TruncationSpec(1, 3, 9)]


def reference_bilinear(kernel, a, b):
    """A Fraction product ca * cb for every pair the kernel keeps."""
    spec = a.spec
    return accumulate(
        (mono, coeff * k)
        for ma, ca in a.terms.items()
        for mb, cb in b.terms.items()
        for out in (kernel(ma, mb, spec),)
        if out
        for coeff in (ca * cb,)
        for mono, k in out
    )


def reference_mul(p, q):
    """The truncated product with a Fraction c1 * c2 for every kept pair."""
    return accumulate(
        (m1.mul(m2), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
        if m1.weight + m2.weight <= p.cutoff
    )


def reference_apply(images, terms):
    """Each monomial's image multiplied out of the images by `reference_mul`,
    then scaled by its Fraction coefficient and truncated."""
    d, cutoff = images[0].d, images[0].cutoff
    pairs = []
    for mono, coeff in terms.items():
        image = TruncatedPoly.one(d, cutoff)
        for v, e in enumerate(mono.xexp + mono.yexp):
            for _ in range(e):
                image = TruncatedPoly(d, cutoff, reference_mul(image, images[v]))
        room = cutoff - 2 * mono.hexp
        pairs.extend(
            (Monomial(m.xexp, m.yexp, mono.hexp), coeff * c)
            for m, c in image.terms.items()
            if m.weight <= room
        )
    return accumulate(pairs)


def assert_clean(terms, d, cutoff, h_order=None):
    """The `_trusted` contract: nonzero Fractions, in the truncation."""
    for mono, coeff in terms.items():
        assert type(coeff) is Fraction and coeff != 0, (mono, coeff)
        assert mono.dimension == d == len(mono.yexp)
        assert mono.weight <= cutoff, mono
        if h_order is not None:
            assert mono.hexp <= h_order, mono


def true_weight(mono):
    return sum(mono.xexp) + sum(mono.yexp) + 2 * mono.hexp


@st.composite
def monomial_pairs(draw):
    """d, then two monomials of dimension d with h-terms."""
    d = draw(st.sampled_from([1, 2]))
    exponents = st.tuples(*[st.integers(0, 3)] * d)
    pair = [
        Monomial(draw(exponents), draw(exponents), draw(st.integers(0, 2)))
        for _ in range(2)
    ]
    return d, *pair


@settings(max_examples=60, deadline=None)
@given(monomial_pairs())
def test_every_built_monomial_carries_its_true_weight(pair):
    """The kernels that build monomials from other monomials' exponents keep
    the stored weight equal to |a| + |b| + 2c."""
    d, m1, m2 = pair
    room = 4
    built = [m1.mul(m2)]
    for first, second in ((m1, m2), (m2, m1)):
        contractions = _contractions(first.yexp, second.xexp, room)
        built += [m for m, _ in _contracted(m1, m2, contractions)]
    built += [m for m, _ in tower._transported_bracket(m1, m2, d, 2)]
    cutoff = 8
    images = [
        TruncatedPoly.coordinate(v, d, cutoff) + TruncatedPoly.coordinate(v, d, cutoff) ** 2
        for v in range(2 * d)
    ]
    built += [m for m, _ in Substitution(images)._image(m1)[1]]
    for mono in built:
        assert mono.weight == true_weight(mono), mono


def monomials(spec, min_weight=0):
    """Every monomial of the truncation, h-terms included, from `min_weight`."""
    return [
        Monomial(m.xexp, m.yexp, c)
        for m in all_monomials(spec.d, spec.cutoff)
        for c in range(spec.h_order + 1)
        if min_weight <= m.weight + 2 * c <= spec.cutoff
    ]


def random_coeff(rng):
    return Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4, 6]), rng.choice(DENOMINATORS))


def random_terms(rng, pool, count):
    return {m: random_coeff(rng) for m in rng.sample(pool, min(count, len(pool)))}


def weyl_cases(spec, seed):
    """Seeded operand pairs, then the edge cases."""
    rng = random.Random(seed)
    pool = monomials(spec)
    element = lambda terms: WeylElement(spec, terms)  # noqa: E731
    cases = [
        (element(random_terms(rng, pool, rng.randint(1, 9))),
         element(random_terms(rng, pool, rng.randint(1, 9))))
        for _ in range(25)
    ]
    some = element(random_terms(rng, pool, 6))
    cases.append((some, WeylElement.zero(spec)))
    cases.append((WeylElement.zero(spec), some))
    # every pair over the cutoff: both sides above half of it
    heavy = monomials(spec, min_weight=spec.cutoff // 2 + 1)
    cases.append((element(random_terms(rng, heavy, 4)), element(random_terms(rng, heavy, 4))))
    # terms that cancel: (x1 + 1/7 y1) (x1 - 1/7 y1) loses its x1 y1 term
    x = WeylElement.generator("x1", spec)
    y = WeylElement.generator("y1", spec).scaled(Fraction(1, 7))
    cases.append((x + y, x - y))
    cases.append((some, some))  # the commutator cancels to zero
    return cases


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize(
    "kernel, product", [(_normal_product, star), (_normal_commutator, commutator)]
)
def test_weyl_products_match_the_fraction_route(spec, kernel, product):
    for a, b in weyl_cases(spec, seed=spec.cutoff):
        got = product(a, b)
        expected = reference_bilinear(kernel, a, b)
        # same pairs in the same order, so the same terms in the same order
        assert list(got.terms.items()) == list(expected.items()), (a, b)
        assert_clean(got.terms, spec.d, spec.cutoff, spec.h_order)


def test_weyl_edge_cases_behave():
    spec = SPECS[0]
    cases = weyl_cases(spec, seed=1)
    some = cases[-1][0]
    assert star(some, WeylElement.zero(spec)).is_zero()
    assert commutator(some, some).is_zero()
    assert star(*cases[-3]).is_zero()  # every pair over the cutoff
    x_plus, x_minus = cases[-2]
    product = star(x_plus, x_minus)
    assert Monomial((1,), (1,), 0) not in product.terms
    assert product.terms[Monomial((0,), (0,), 1)] == Fraction(-1, 7)


def poly_cases(d, cutoff, seed):
    rng = random.Random(seed)
    spec = TruncationSpec(d, cutoff // 2, cutoff)
    pool = monomials(spec)
    poly = lambda terms: TruncatedPoly(d, cutoff, terms)  # noqa: E731
    cases = [
        (poly(random_terms(rng, pool, rng.randint(1, 8))),
         poly(random_terms(rng, pool, rng.randint(1, 8))))
        for _ in range(25)
    ]
    some = poly(random_terms(rng, pool, 5))
    heavy = monomials(spec, min_weight=cutoff // 2 + 1)
    x = TruncatedPoly.x(0, d, cutoff)
    y = TruncatedPoly.y(0, d, cutoff).scaled(Fraction(1, 2**61 - 1))
    return cases + [
        (some, TruncatedPoly.zero(d, cutoff)),
        (TruncatedPoly.zero(d, cutoff), some),
        (poly(random_terms(rng, heavy, 4)), poly(random_terms(rng, heavy, 4))),
        (x + y, x - y),
    ]


@pytest.mark.parametrize("d, cutoff", [(1, 8), (2, 6)])
def test_poly_product_matches_the_fraction_route(d, cutoff):
    cases = poly_cases(d, cutoff, seed=10 * d + cutoff)
    for p, q in cases:
        got = p * q
        assert list(got.terms.items()) == list(reference_mul(p, q).items()), (p, q)
        assert_clean(got.terms, d, cutoff)
    x_plus, x_minus = cases[-1]
    assert Monomial((1,) + (0,) * (d - 1), (1,) + (0,) * (d - 1), 0) not in (
        (x_plus * x_minus).terms
    )
    assert (cases[-2][0] * cases[-2][1]).is_zero()


def random_images(rng, d, cutoff):
    """Origin-preserving h-free images: each coordinate plus higher terms."""
    spec = TruncationSpec(d, 0, cutoff)
    higher = monomials(spec, min_weight=2)
    return [
        TruncatedPoly.coordinate(v, d, cutoff)
        + TruncatedPoly(d, cutoff, random_terms(rng, higher, 3))
        for v in range(2 * d)
    ]


@pytest.mark.parametrize("d, cutoff", [(1, 8), (2, 6)])
def test_substitution_matches_the_fraction_route(d, cutoff):
    rng = random.Random(d * cutoff)
    images = random_images(rng, d, cutoff)
    sub = Substitution(images)
    spec = TruncationSpec(d, 2, cutoff)
    pool = monomials(spec)
    inputs = [random_terms(rng, pool, rng.randint(1, 8)) for _ in range(20)]
    heavy = monomials(spec, min_weight=cutoff - 1)
    inputs += [{}, random_terms(rng, heavy, 4)]
    # u_0 - c m, for a term c m of u_0's image: the images' m terms cancel
    u0 = Monomial((1,) + (0,) * (d - 1), (0,) * d, 0)
    m, c = next((m, c) for m, c in images[0].terms.items() if m != u0)
    cancelling = {u0: Fraction(1), m: -c, Monomial((0,) * d, (0,) * d, 0): Fraction(2)}
    assert m not in sub.apply(cancelling)
    inputs.append(cancelling)
    for terms in inputs * 2:  # the second pass reads the cached images
        got = sub.apply(terms)
        assert got == reference_apply(images, terms), terms
        assert_clean(got, d, cutoff)
        got.clear()  # a returned dict is the caller's own
    assert sub.apply({}) == {}


SRC = Path(__file__).resolve().parents[1] / "src" / "formaldisc"
# a call of the integer bridge of `sparse`: `integral(...)` or `rational(...)`
BRIDGE_CALL = re.compile(r"\b(?:integral|rational)\(")


def test_weyl_and_darboux_use_the_series_pair_loop():
    """The integer-first pair loop is `series._pair_sum` alone: `weyl` and
    `darboux` hand it term maps and never scale or divide on their own."""
    for name in ("weyl.py", "darboux.py"):
        text = (SRC / name).read_text()
        assert not BRIDGE_CALL.search(text), name
        defined = {getattr(node, "name", None) for node in ast.walk(ast.parse(text))}
        assert "_bilinear" not in defined, name
    # the pattern is not vacuous: it finds the calls of the pair loop itself
    assert BRIDGE_CALL.search((SRC / "series.py").read_text())
