"""The packed integer kernels against the routes they replaced.

`star`, `commutator`, `iota`, `TruncatedPoly.__mul__`, both Poisson
brackets and `Substitution.apply` take their operands as ints over one
denominator, sum on packed int keys, decode each output key through one
table per (base, d), tested below against the divmod loop it caches, and
return the canonical int form.  Two references stand here.  The
Fraction references take a `Fraction` product for every pair of terms,
summed through `accumulate`.  The Monomial-keyed references are the integer
route before packed keys: the same pair loop and substitution, summed on
`Monomial` keys, with the kernels `_normal_product`, `_normal_commutator`
and `_contracted` that build a monomial per contraction.  Both are compared
on seeded inputs with denominators 1, 2, 3, 7 and 2^61 - 1, with h-terms,
with terms that cancel, with an empty operand and with operands whose every
pair is over the cutoff; the Monomial-keyed one also on d = 1, 2, 3 up to
N = 1000, where a key of d = 3 is past 2^63.  Every output must also keep
the contract of the unchecked `_trusted` wrappers: nonzero ints over a den
they share no factor with, on monomials of the right dimension inside the
truncation, read back as nonzero `Fraction`s.
"""

import ast
import random
import re
from fractions import Fraction
from functools import partial
from math import comb, gcd, lcm, perm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reference_sweeps import reference_transported_bracket

from formaldisc import tower
from formaldisc.series import (
    Monomial,
    PoissonBivector,
    Substitution,
    TruncatedPoly,
    _decoded,
    _key,
    _lowered,
    _unpacked,
    all_monomials,
    monomial_poisson,
    poisson_bracket,
    standard_poisson,
)
from formaldisc.sparse import accumulate, add, integral, rational, scale, sub
from formaldisc.weyl import TruncationSpec, WeylElement, commutator, iota, star

DENOMINATORS = (1, 2, 3, 7, 2**61 - 1)
SPECS = [TruncationSpec(1, 2, 6), TruncationSpec(2, 1, 5), TruncationSpec(1, 3, 9)]


# -- the Monomial-keyed route ------------------------------------------------


def contractions(ys, xs, room):
    """(ks, total k, coefficient) per way to contract y^ys before x^xs, total
    k <= room; the coefficient is prod_i (-1)^k_i k_i! C(b_i, k_i) C(a_i, k_i)
    and the uncontracted choice comes first."""
    out = [((), 0, 1)]
    for b, a in zip(ys, xs):
        out = [
            (ks + (k,), used + k, coeff * (-1) ** k * perm(b, k) * comb(a, k))
            for ks, used, coeff in out
            for k in range(min(a, b, room - used) + 1)
        ]
    return out


def _contracted(m1, m2, ways, sign=1):
    """sign times the terms x^(a1+a2-ks) y^(b1+b2-ks) h^(c1+c2+k) of the
    given contractions of m1 and m2 (in either order)."""
    xs = tuple(map(int.__add__, m1.xexp, m2.xexp))
    ys = tuple(map(int.__add__, m1.yexp, m2.yexp))
    return [
        (
            Monomial(
                tuple(map(int.__sub__, xs, ks)),
                tuple(map(int.__sub__, ys, ks)),
                m1.hexp + m2.hexp + used,
            ),
            sign * coeff,
        )
        for ks, used, coeff in ways
    ]


def _normal_product(m1, m2, spec):
    """The normal form of the word m1 m2 as (monomial, int) pairs, truncated."""
    room = spec.h_order - m1.hexp - m2.hexp
    if room < 0 or m1.weight + m2.weight > spec.cutoff:
        return []
    return _contracted(m1, m2, contractions(m1.yexp, m2.xexp, room))


def _normal_commutator(m1, m2, spec):
    """m1 m2 - m2 m1 in normal form: the contractions of total k >= 1 of
    m1 m2, then those of m2 m1 negated."""
    room = spec.h_order - m1.hexp - m2.hexp
    if room < 1 or m1.weight + m2.weight > spec.cutoff:
        return []
    forward = contractions(m1.yexp, m2.xexp, room)[1:]
    backward = contractions(m2.yexp, m1.xexp, room)[1:]
    return _contracted(m1, m2, forward) + _contracted(m1, m2, backward, -1)


def monomial_product(m1, m2):
    return [(m1.mul(m2), 1)]


def monomial_pair_sum(left, right, room, product):
    """The sum of n1 * n2 * product(m1, m2) over the term pairs whose weights
    sum to at most `room`, on ints over the product of the lcm
    denominators, keyed by `Monomial`."""
    la, left = integral(left)
    lb, right = integral(right)
    return rational(
        (
            (m, n1 * n2 * k)
            for m1, n1 in left.items()
            for m2, n2 in right.items()
            if m1.weight + m2.weight <= room
            for m, k in product(m1, m2)
        ),
        la * lb,
    )


def monomial_iota(a):
    """(-1)^c times the normal form of (y^b h^c)(x^a), per term x^a y^b h^c."""
    spec, zeros = a.spec, (0,) * a.spec.d
    return accumulate(
        (m, (-coeff if mono.hexp % 2 else coeff) * k)
        for mono, coeff in a.terms.items()
        for m, k in _normal_product(
            Monomial(zeros, mono.yexp, mono.hexp), Monomial(mono.xexp, zeros, 0), spec
        )
    )


def monomial_apply(sub, terms):
    """`sub` applied to a term map on ints, each monomial's image keyed by
    `Monomial` and raised to the lcm of the image denominators it uses."""
    den, ints = integral(terms)
    images = []
    for mono, n in ints.items():
        free = sub._free_image(Monomial(mono.xexp, mono.yexp, 0))
        room = sub.cutoff - 2 * mono.hexp
        image = {
            Monomial(m.xexp, m.yexp, mono.hexp): c
            for m, c in free.terms.items()
            if m.weight <= room
        }
        images.append((n, integral(image)))
    scale = lcm(*[image_den for _, (image_den, _) in images])
    return rational(
        (
            (m, n * (scale // image_den) * k)
            for n, (image_den, image) in images
            for m, k in image.items()
        ),
        den * scale,
    )


# -- the Fraction route ------------------------------------------------------


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


def assert_canonical(den, ints):
    """The stored form: den >= 1, no zero int, gcd(den, *ints) == 1."""
    assert den >= 1 and all(type(n) is int and n for n in ints.values()), (den, ints)
    assert gcd(den, *ints.values()) == 1, (den, ints)


def applied(sub, terms):
    """`sub` applied to the int form of a Fraction term map, checked
    canonical and read back as Fractions."""
    den, ints = sub.apply(integral(terms))
    assert_canonical(den, ints)
    return {m: Fraction(n, den) for m, n in ints.items()}


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
    d = draw(st.sampled_from([1, 2, 3]))
    exponents = st.tuples(*[st.integers(0, 3)] * d)
    pair = [
        Monomial(draw(exponents), draw(exponents), draw(st.integers(0, 2)))
        for _ in range(2)
    ]
    return d, *pair


@settings(max_examples=60, deadline=None)
@given(monomial_pairs())
def test_every_built_monomial_carries_its_true_weight(pair):
    """The monomials that the kernels build from other monomials' exponents,
    the keys they decode among them, keep the stored weight equal to
    |a| + |b| + 2c."""
    d, m1, m2 = pair
    built = [m1.mul(m2)]
    built += [m for m, _ in reference_transported_bracket(m1, m2, d, 2)]
    # the tower's route: lifts into one truncation wider than the pair
    level = TruncationSpec(d, 3, m1.weight + m2.weight + 3)
    lifts = [WeylElement._trusted(level, 1, {m: 1}) for m in (m1, m2)]
    built += [m for m, _ in tower._transported_bracket(*lifts)]
    spec = TruncationSpec(d, 4, m1.weight + m2.weight)
    a, b = WeylElement(spec, {m1: 1}), WeylElement(spec, {m2: 1, m1: Fraction(1, 3)})
    for element in (star(a, b), star(b, a), commutator(a, b), iota(a), iota(b)):
        built += element.terms
    f, g = TruncatedPoly(d, spec.cutoff, a.terms), TruncatedPoly(d, spec.cutoff, b.terms)
    built += (f * g).terms
    h_free = [TruncatedPoly(d, spec.cutoff, {Monomial(m.xexp, m.yexp, 0): 1}) for m in (m1, m2)]
    built += standard_poisson(*h_free).terms
    cutoff = 8
    images = [
        TruncatedPoly.coordinate(v, d, cutoff) + TruncatedPoly.coordinate(v, d, cutoff) ** 2
        for v in range(2 * d)
    ]
    built += applied(Substitution(images), {m1: Fraction(1), m2: Fraction(-2)})
    assert len(built) > 1
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


@st.composite
def packed_cases(draw):
    """A truncation of d = 1, 2 or 3 and two term maps on it, with h-terms
    and denominators from DENOMINATORS.  One side may be empty, both may lie
    over half the cutoff (every pair over it), or they may be x1 + c y1 and
    x1 - c y1, whose x1 y1 terms cancel.  At N = 1000 the exponents reach
    150 and h^12, so the keys of d = 3, in base 1001 or 1003, pass 2^63."""
    d = draw(st.sampled_from([1, 2, 3]))
    cutoff = draw(st.sampled_from([2, 5, 8, 1000]))
    # at N = 1000 an h-order of 12 lets h^10 B^6 > 2^63 into a key
    h_orders = st.sampled_from([1, 12]) if cutoff == 1000 else st.integers(0, 3)
    spec = TruncationSpec(d, draw(h_orders), cutoff)
    top = 150 if cutoff == 1000 else 3
    shape = draw(st.sampled_from(["random", "random", "empty", "heavy", "cancel"]))
    low = cutoff // 2 + 1 if shape == "heavy" else 0
    coeff = st.builds(
        Fraction, st.sampled_from([-3, -1, 1, 2, 5]), st.sampled_from(DENOMINATORS)
    )
    exponents = st.tuples(*[st.integers(0, top)] * d)
    monomial = st.builds(Monomial, exponents, exponents, st.integers(0, spec.h_order))

    def side():
        terms = draw(st.dictionaries(monomial, coeff, max_size=5))
        return {m: c for m, c in terms.items() if low <= m.weight <= cutoff}

    left, right = side(), side()
    if shape == "empty":
        left = {}
    if shape == "cancel":
        x1 = Monomial((1,) + (0,) * (d - 1), (0,) * d)
        y1 = Monomial((0,) * d, (1,) + (0,) * (d - 1))
        c = draw(coeff)
        left, right = {x1: Fraction(1), y1: c}, {x1: Fraction(1), y1: -c}
    if draw(st.booleans()):
        left, right = right, left
    return spec, left, right


def terms_in_order(element):
    return list(getattr(element, "terms", element).items())


@settings(max_examples=150, deadline=None)
@given(packed_cases())
def test_packed_route_matches_the_monomial_route(case):
    """Every packed kernel gives the terms of the Monomial-keyed route, in the
    same order, on d = 1, 2, 3 up to N = 1000."""
    spec, left, right = case
    d, cutoff = spec.d, spec.cutoff
    a, b = WeylElement(spec, left), WeylElement(spec, right)
    for product, kernel in ((star, _normal_product), (commutator, _normal_commutator)):
        expected = monomial_pair_sum(a.terms, b.terms, cutoff, partial(kernel, spec=spec))
        got = product(a, b)
        assert terms_in_order(got) == terms_in_order(expected), (product, a, b)
        assert_clean(got.terms, d, cutoff, spec.h_order)
    assert terms_in_order(iota(a)) == terms_in_order(monomial_iota(a))
    p, q = TruncatedPoly(d, cutoff, left), TruncatedPoly(d, cutoff, right)
    expected = monomial_pair_sum(p.terms, q.terms, cutoff, monomial_product)
    assert terms_in_order(p * q) == terms_in_order(expected)
    f, g = ({m: c for m, c in t.items() if not m.hexp} for t in (left, right))
    f, g = TruncatedPoly(d, cutoff, f), TruncatedPoly(d, cutoff, g)
    expected = monomial_pair_sum(f.terms, g.terms, cutoff + 2, monomial_poisson)
    assert terms_in_order(standard_poisson(f, g)) == terms_in_order(expected)
    # one-term images at N = 1000, where the powers of a longer one blow up
    scales = [Fraction(v + 2, 3) for v in range(2 * d)]
    images = [TruncatedPoly.coordinate(v, d, cutoff).scaled(scales[v]) for v in range(2 * d)]
    if cutoff < 1000:
        images = [u + u * u.scaled(scales[v]) for v, u in enumerate(images)]
    sub = Substitution(images)
    for terms in (p.terms, q.terms, p.terms):  # the last reads cached images
        got = applied(sub, terms)
        assert terms_in_order(got) == terms_in_order(monomial_apply(sub, terms))
        assert_clean(got, d, cutoff)


def test_the_packed_cases_reach_their_edges():
    """The cases of `packed_cases` do hold keys past 2^63 and cancelling
    terms, and the routes agree on them."""
    spec = TruncationSpec(3, 12, 1000)
    m1 = Monomial((150, 0, 40), (3, 150, 2), 5)
    m2 = Monomial((0, 150, 5), (149, 0, 140), 5)
    a, b = WeylElement(spec, {m1: Fraction(1, 7)}), WeylElement(spec, {m2: Fraction(3)})
    got = star(a, b)
    top = max(got.terms, key=Monomial.sort_key)
    assert top.hexp == 12 and _key(top, spec.cutoff + 1) > 2**63
    expected = monomial_pair_sum(a.terms, b.terms, 1000, partial(_normal_product, spec=spec))
    assert terms_in_order(got) == terms_in_order(expected)
    # the x1 y1 terms of (x1 + 2/7 y1)(x1 - 2/7 y1) cancel, -2/7 h is left
    x1, y1 = Monomial((1, 0, 0), (0, 0, 0)), Monomial((0, 0, 0), (1, 0, 0))
    a = WeylElement(spec, {x1: 1, y1: Fraction(2, 7)})
    b = WeylElement(spec, {x1: 1, y1: Fraction(-2, 7)})
    assert Monomial((1, 0, 0), (1, 0, 0)) not in star(a, b).terms
    assert star(a, b).terms[Monomial((0,) * 3, (0,) * 3, 1)] == Fraction(-2, 7)


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
    assert m not in applied(sub, cancelling)
    inputs.append(cancelling)
    for terms in inputs * 2:  # the second pass reads the cached images
        den, ints = sub.apply(integral(terms))
        got = {m: Fraction(n, den) for m, n in ints.items()}
        assert got == reference_apply(images, terms), terms
        assert_clean(got, d, cutoff)
        assert_canonical(den, ints)
        ints.clear()  # a returned dict is the caller's own
    assert sub.apply((1, {})) == (1, {})


def reference_decode(key, base, d):
    """The divmod loop: the monomial of a packed key in base `base`."""
    fields = []
    for _ in range(2 * d):
        key, e = divmod(key, base)
        fields.append(e)
    return Monomial(tuple(fields[:d]), tuple(fields[d:]), key)


@pytest.mark.parametrize(
    "order", [[(5, 1), (5, 2)], [(5, 2), (5, 1)]], ids=["d1-first", "d2-first"]
)
def test_a_decoded_key_belongs_to_its_base_and_dimension(order):
    """The decode tables are keyed by (base, d): key 5 in base 5 is y1 at
    d = 1 and x2 at d = 2, whichever is decoded first, on a miss and on a
    hit alike."""
    _decoded.cache_clear()
    names = {1: "y1", 2: "x2"}
    rng = random.Random(30)
    for base, d in order:
        for _ in range(2):
            den, ints = _unpacked({5: 3}, base, d, 2)
            ((mono, n),) = ints.items()
            assert mono == reference_decode(5, base, d) and str(mono) == names[d]
            assert mono.weight == true_weight(mono) and (n, den) == (3, 2)
        sums = dict.fromkeys(rng.sample(range(base ** (2 * d + 1)), 40), 1)
        expected = [reference_decode(k, base, d) for k in sums]
        decoded = [list(_unpacked(sums, base, d)[1]) for _ in range(2)]
        assert decoded == [expected, expected]
        assert all(m.weight == true_weight(m) for m in _decoded(base, d).values())


def test_a_truncation_table_holds_only_the_monomials_returned():
    """After a star and a substitution sweep at one truncation, its table
    holds the distinct monomials the sweeps returned, each the one object
    every output shares, and no more."""
    spec = TruncationSpec(2, 2, 7)
    base = spec.cutoff + 1
    rng = random.Random(31)
    sub = Substitution(random_images(rng, spec.d, spec.cutoff))
    pool = monomials(spec)
    inputs = [random_terms(rng, pool, rng.randint(1, 8)) for _ in range(10)]
    inputs = [integral(terms) for terms in inputs]
    for store in inputs:
        sub.apply(store)  # builds the images' powers before the sweeps
    pairs = [
        [WeylElement(spec, random_terms(rng, pool, rng.randint(1, 8))) for _ in range(2)]
        for _ in range(10)
    ]
    table = _decoded(base, spec.d)
    table.clear()
    outputs = [star(a, b).ints for a, b in pairs] + [sub.apply(store)[1] for store in inputs]
    returned = {m for terms in outputs for m in terms}
    assert len(table) == len(returned) < sum(map(len, outputs))
    assert all(table[_key(m, base)] is m for terms in outputs for m in terms)


BIG = 2**61 - 1  # a Mersenne prime, so no lcm with it is small


def fraction_product(left, right, room):
    """The truncated product of two Fraction term maps, c1 * c2 per pair."""
    return accumulate(
        (m1.mul(m2), c1 * c2)
        for m1, c1 in left.items()
        for m2, c2 in right.items()
        if m1.weight + m2.weight <= room
    )


def reference_standard_poisson(f, g):
    """{f, g} with a Fraction c1 * c2 for every pair under cutoff + 2."""
    return accumulate(
        (m, c1 * c2 * k)
        for m1, c1 in f.terms.items()
        for m2, c2 in g.terms.items()
        if m1.weight + m2.weight <= f.cutoff + 2
        for m, k in monomial_poisson(m1, m2)
    )


def reference_poisson(f, g, theta):
    """sum over Theta's upper entries of entry (d_i f d_j g - d_j f d_i g),
    every product and sum on Fraction term maps."""
    df, dg = ([_lowered(p.terms, v) for v in range(2 * f.d)] for p in (f, g))
    n = f.cutoff
    return accumulate(
        term
        for (i, j), entry in theta.entries.items()
        for diff in (sub(fraction_product(df[i], dg[j], n), fraction_product(df[j], dg[i], n)),)
        for term in fraction_product(entry.terms, diff, n).items()
    )


@st.composite
def stored_cases(draw):
    """A truncation of d = 1, 2 or 3, two term maps on it with h-terms, zero
    coefficients and denominators up to 2^61 - 1 (the first may be empty,
    or the second may cancel some of its terms), and a scalar."""
    d = draw(st.sampled_from([1, 2, 3]))
    spec = TruncationSpec(d, draw(st.integers(0, 2)), draw(st.sampled_from([2, 4, 6])))
    dens = st.sampled_from([1, 2, 3, 4, 6, 7, BIG, 2 * BIG])
    coeff = st.builds(Fraction, st.integers(-6, 6), dens)
    exponents = st.tuples(*[st.integers(0, 2)] * d)
    monomial = st.builds(Monomial, exponents, exponents, st.integers(0, 2))
    left, right = (draw(st.dictionaries(monomial, coeff, max_size=5)) for _ in range(2))
    shape = draw(st.sampled_from(["random", "empty", "cancel"]))
    if shape == "empty":
        left = {}
    if shape == "cancel":
        right.update({m: -c for m, c in left.items() if draw(st.booleans())})
    scalars = [0, 1, -1, 2, 6, Fraction(-3, 4), Fraction(1, BIG), Fraction(BIG, 2)]
    return spec, left, right, draw(st.sampled_from(scalars))


@settings(max_examples=120, deadline=None)
@given(stored_cases())
def test_every_output_is_stored_canonical(case):
    """Every polynomial and Weyl element that a checked constructor or a
    kernel returns holds den >= 1 and nonzero ints with gcd(den, *ints) ==
    1, reads back the terms of the Fraction oracle in its order, and
    compares and hashes as those terms do."""
    spec, left, right, value = case
    d, n = spec.d, spec.cutoff

    def kept(terms, h_order):
        return {m: c for m, c in terms.items() if c and m.weight <= n and m.hexp <= h_order}

    a, b = WeylElement(spec, left), WeylElement(spec, right)
    p, q = TruncatedPoly(d, n, left), TruncatedPoly(d, n, right)
    f, g = (TruncatedPoly(d, n, kept(t, 0)) for t in (left, right))
    x1 = TruncatedPoly.x(0, d, n)
    images = [
        TruncatedPoly.coordinate(v, d, n) + (x1 * x1).scaled(Fraction(v + 1, BIG))
        for v in range(2 * d)
    ]
    substitution = Substitution(images)
    upper = {(i, d + i): TruncatedPoly.one(d, n) for i in range(d)}
    upper[(0, d)] = upper[(0, d)] + x1.scaled(Fraction(2, 7))
    theta = PoissonBivector(d, n, upper)
    weyl = [
        (a, kept(left, spec.h_order)),
        (b, kept(right, spec.h_order)),
        (a + b, add(a.terms, b.terms)),
        (a - b, sub(a.terms, b.terms)),
        (a.scaled(value), scale(a.terms, Fraction(value))),
        (star(a, b), reference_bilinear(_normal_product, a, b)),
        (commutator(a, b), reference_bilinear(_normal_commutator, a, b)),
        (iota(a), monomial_iota(a)),
    ]
    polys = [
        (p, kept(left, n)),
        (q, kept(right, n)),
        (p + q, add(p.terms, q.terms)),
        (p - q, sub(p.terms, q.terms)),
        (p.scaled(value), scale(p.terms, Fraction(value))),
        (p * q, reference_mul(p, q)),
        (p.substitute(substitution), monomial_apply(substitution, p.terms)),
        (standard_poisson(f, g), reference_standard_poisson(f, g)),
        (poisson_bracket(f, g, theta), reference_poisson(f, g, theta)),
    ]
    for outputs in (weyl, polys):
        for element, oracle in outputs:
            assert_canonical(element.den, element.ints)
            assert terms_in_order(element) == terms_in_order(oracle), element
        for e1, o1 in outputs:
            for e2, o2 in outputs:
                assert (e1 == e2) == (o1 == o2)
                assert hash(e1) == hash(e2) or o1 != o2


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
