"""The cached substitution operator against the uncached substitution.

`reference_substitute` multiplies every term out from the images, with no
state kept between calls.  Every composition that reads a change's cached
`series.Substitution` (apply_poly, compose, inverse, pullback and the two
transport maps) is compared with it on seeded random changes, on inputs with
h-terms and with terms whose images overflow the cutoff, in shuffled call
order, and after a returned result has been changed in place.
"""

import random
from fractions import Fraction

import pytest

from formaldisc.darboux import (
    FormalCoordChange,
    _lift_through,
    _symbol_through,
    pullback,
)
from formaldisc.errors import UsageError
from formaldisc.series import (
    DifferentialForm,
    Monomial,
    Substitution,
    TruncatedPoly,
    wedge,
)
from formaldisc.weyl import TruncationSpec, WeylElement

CASES = [(1, 8), (1, 11), (2, 6)]
H_ORDER = 2


def reference_substitute(p, images):
    """p with coordinate v replaced by images[v], multiplied out term by term."""
    d, cutoff = p.d, p.cutoff
    one = TruncatedPoly.one(d, cutoff)
    hp = TruncatedPoly.h(d, cutoff)
    power_cache = {}

    def power(v, e):
        key = (v, e)
        if key not in power_cache:
            power_cache[key] = one if e == 0 else power(v, e - 1) * images[v]
        return power_cache[key]

    total = TruncatedPoly.zero(d, cutoff)
    for mono, coeff in p.terms.items():
        acc = one.scaled(coeff)
        for i, e in enumerate(mono.xexp):
            if e:
                acc = acc * power(i, e)
        for i, e in enumerate(mono.yexp):
            if e:
                acc = acc * power(d + i, e)
        if mono.hexp:
            acc = acc * hp**mono.hexp
        total = total + acc
    return total


def h_slices(terms, d, cutoff):
    """h-power -> the h-free polynomial of that power's coefficients."""
    slices = {}
    for mono, coeff in terms.items():
        slices.setdefault(mono.hexp, {})[Monomial(mono.xexp, mono.yexp, 0)] = coeff
    return {c: TruncatedPoly(d, cutoff, raw) for c, raw in slices.items()}


def reference_lift(phi, p, spec):
    """sigma(f) one h-slice at a time."""
    terms = {}
    for c, raw in h_slices(p.terms, p.d, p.cutoff).items():
        if c <= spec.h_order:
            for m, coeff in reference_substitute(raw, phi.components).terms.items():
                terms[Monomial(m.xexp, m.yexp, c)] = coeff
    return WeylElement(spec, terms)


def reference_symbol(phi_inv, w):
    """sigma^{-1}(w) one h-slice at a time."""
    d, cutoff = phi_inv.d, phi_inv.cutoff
    terms = {}
    for c, raw in h_slices(w.terms, d, cutoff).items():
        for m, coeff in reference_substitute(raw, phi_inv.components).terms.items():
            terms[Monomial(m.xexp, m.yexp, c)] = coeff
    return TruncatedPoly(d, cutoff, terms)


def reference_compose(outer, inner):
    return [reference_substitute(c, inner.components) for c in outer.components]


def reference_pullback(form, phi):
    d, cutoff = form.d, form.cutoff
    dphi = [
        DifferentialForm(
            d,
            cutoff,
            1,
            {(w,): phi.components[v].partial(w) for w in range(2 * d)},
        )
        for v in range(2 * d)
    ]
    out = DifferentialForm.zero(d, cutoff, form.degree)
    for idx, poly in form.terms.items():
        piece = DifferentialForm.from_poly(reference_substitute(poly, phi.components))
        for v in idx:
            piece = wedge(piece, dphi[v])
        out = out + piece
    return out


def random_monomial(rng, d, min_weight, max_weight, max_h=0):
    while True:
        mono = Monomial(
            tuple(rng.randrange(0, max_weight + 1) for _ in range(d)),
            tuple(rng.randrange(0, max_weight + 1) for _ in range(d)),
            rng.randrange(0, max_h + 1),
        )
        if min_weight <= mono.weight <= max_weight:
            return mono


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


def random_change(rng, d, n):
    """An invertible linear part plus a few terms of weight 2..4."""
    while True:
        comps = []
        for v in range(2 * d):
            terms = {
                random_monomial(rng, d, 1, 1): random_coeff(rng)
                for _ in range(rng.randrange(1, 3))
            }
            for _ in range(rng.randrange(1, 4)):
                terms[random_monomial(rng, d, 2, 4)] = random_coeff(rng)
            comps.append(TruncatedPoly(d, n, terms))
        try:
            return FormalCoordChange(comps)
        except UsageError:  # singular linear part; draw again
            continue


def random_poly(rng, d, n, max_h=H_ORDER + 1):
    """Terms up to the cutoff, so their images overflow it, some with h."""
    terms = {
        random_monomial(rng, d, 0, n, max_h): random_coeff(rng)
        for _ in range(rng.randrange(3, 7))
    }
    terms[random_monomial(rng, d, 2, n, 0)] = random_coeff(rng)
    terms[Monomial((0,) * d, (1,) + (0,) * (d - 1), 1)] = random_coeff(rng)
    return TruncatedPoly(d, n, terms)


def cases(seed, polys=6):
    for d, n in CASES:
        rng = random.Random(seed * 100 + 10 * d + n)
        phi = random_change(rng, d, n)
        yield phi, [random_poly(rng, d, n) for _ in range(polys)], rng


@pytest.mark.parametrize("seed", [1, 2])
def test_apply_poly_matches_reference(seed):
    for phi, inputs, _ in cases(seed):
        for p in inputs:
            expected = reference_substitute(p, phi.components)
            assert phi.apply_poly(p) == expected
            assert p.substitute(Substitution(phi.components)) == expected


def test_inputs_reach_h_terms_and_overflow():
    # the oracle cases would prove little if no image were truncated
    for phi, inputs, _ in cases(1):
        assert any(p.depends_on_h() for p in inputs)
        n = phi.cutoff
        images = [TruncatedPoly(phi.d, n + 4, c.terms) for c in phi.components]
        deep = [TruncatedPoly(phi.d, n + 4, p.terms) for p in inputs]
        full = [reference_substitute(p, images) for p in deep]
        assert any(image.truncated(n) != image for image in full)


def test_compose_matches_reference():
    for phi, _, rng in cases(3, polys=0):
        psi = random_change(rng, phi.d, phi.cutoff)
        assert list(phi.compose(psi).components) == reference_compose(phi, psi)
        assert list(psi.compose(phi).components) == reference_compose(psi, phi)


def test_inverse_matches_reference():
    for phi, _, _ in cases(4, polys=0):
        inv = phi.inverse()
        ident = list(FormalCoordChange.identity(phi.d, phi.cutoff).components)
        assert reference_compose(phi, inv) == ident
        assert reference_compose(inv, phi) == ident


def test_pullback_matches_reference():
    for phi, inputs, _ in cases(5, polys=4):
        d, n = phi.d, phi.cutoff
        one_form = DifferentialForm(
            d, n, 1, {(0,): inputs[0], (2 * d - 1,): inputs[1]}
        )
        two_form = DifferentialForm(
            d, n, 2, {(0, d): inputs[2], (d - 1, 2 * d - 1): inputs[3]}
        )
        for form in (one_form, two_form):
            assert pullback(form, phi) == reference_pullback(form, phi)


def test_transport_maps_match_reference():
    for phi, inputs, rng in cases(6):
        spec = TruncationSpec(phi.d, H_ORDER, phi.cutoff)
        for p in inputs:
            assert _lift_through(phi, p, spec) == reference_lift(phi, p, spec)
            w = WeylElement(spec, random_poly(rng, phi.d, phi.cutoff).terms)
            assert _symbol_through(phi, w) == reference_symbol(phi, w)


def _tasks(phi, inputs):
    """(name, call on a change, expected) for every composition through phi."""
    spec = TruncationSpec(phi.d, H_ORDER, phi.cutoff)
    form = DifferentialForm(phi.d, phi.cutoff, 1, {(0,): inputs[0]})
    tasks = [("pullback", lambda ch: pullback(form, ch), reference_pullback(form, phi))]
    for k, p in enumerate(inputs):
        w = WeylElement(spec, p.terms)
        expected = reference_substitute(p, phi.components)
        tasks.append((f"apply {k}", lambda ch, p=p: ch.apply_poly(p), expected))
        expected = reference_lift(phi, p, spec)
        tasks.append((f"lift {k}", lambda ch, p=p: _lift_through(ch, p, spec), expected))
        expected = reference_symbol(phi, w)
        tasks.append((f"symbol {k}", lambda ch, w=w: _symbol_through(ch, w), expected))
    return tasks


def test_results_do_not_depend_on_call_order():
    for phi, inputs, rng in cases(7, polys=4):
        tasks = _tasks(phi, inputs)
        shared = FormalCoordChange(phi.components)
        for _ in range(3):
            fresh = FormalCoordChange(phi.components)
            rng.shuffle(tasks)
            for name, call, expected in tasks:
                assert call(fresh) == expected, name
                assert call(shared) == expected, name


def test_changing_a_result_in_place_does_not_change_the_next():
    for phi, inputs, rng in cases(8, polys=3):
        psi = random_change(rng, phi.d, phi.cutoff)
        for name, call, expected in _tasks(phi, inputs):
            first = call(phi)
            # the stored ints are the one map a result holds (its terms are
            # a read-only view of them)
            if isinstance(first, DifferentialForm):
                stores = [poly.ints for poly in first.terms.values()]
            else:
                stores = [first.ints]
            for ints in stores:
                for key in list(ints)[:2]:
                    ints[key] = 99
                ints[Monomial((0,) * phi.d, (0,) * phi.d, 0)] = 7
            assert call(phi) == expected, name
        composed = psi.compose(phi)
        for comp in composed.components:
            comp.ints.clear()
        assert list(psi.compose(phi).components) == reference_compose(psi, phi)


def test_images_checked_once_with_their_messages():
    d, n = 1, 5
    x, y = TruncatedPoly.x(0, d, n), TruncatedPoly.y(0, d, n)
    with pytest.raises(UsageError, match="need 2 images, got 1"):
        Substitution([x])
    with pytest.raises(UsageError, match="need 2 images, got 3"):
        Substitution([x, y, y])
    with pytest.raises(UsageError, match="need a Substitution"):
        x.substitute([x, y])
    with pytest.raises(UsageError, match="h-free"):
        Substitution([x, y + TruncatedPoly.h(d, n)])
    with pytest.raises(UsageError, match="vanish at the origin"):
        Substitution([x, y + 1])
    with pytest.raises(UsageError, match="cutoff mismatch"):
        Substitution([x, TruncatedPoly.y(0, d, n + 1)])
    with pytest.raises(UsageError, match="cutoff mismatch"):
        TruncatedPoly.x(0, d, n + 1).substitute(Substitution([x, y]))
