"""Darboux normalization, form/bivector duality, transported products."""

import random
from fractions import Fraction

import pytest

from formaldisc import darboux
from formaldisc.darboux import (
    DegenerateError,
    FormalCoordChange,
    NotClosedError,
    check_symplectic,
    darboux_normalize,
    form_to_bivector,
    bivector_to_form,
    pullback,
    pullback_residual,
    standard_form,
    transported_induced_poisson,
    transported_product_symbol,
)
from formaldisc.errors import UsageError
from formaldisc.series import (
    DifferentialForm,
    Monomial,
    TruncatedPoly,
    de_rham_d,
    poisson_bracket,
)
from formaldisc.suites import run_suite
from formaldisc.weyl import TruncationSpec, WeylElement, star


def one(d, n):
    return TruncatedPoly.one(d, n)


def coord(v, d, n):
    return TruncatedPoly.coordinate(v, d, n)


def one_plus_x_form(d=1, n=8):
    return DifferentialForm(d, n, 2, {(0, d): one(d, n) + coord(0, d, n)})


def transported_star(phi, a, b, spec, phi_inv=None):
    """transported_product_symbol, re-lifted to a canonical Weyl element."""
    sym = transported_product_symbol(phi, a, b, spec, phi_inv)
    return WeylElement(spec, dict(sym.terms))


def closed_d2_form(n=6):
    # std + x2 dx1/\dy1 + x1 dx2/\dy1 = std + d(x1 x2 dy1): closed, standard
    # at the origin
    d = 2
    return DifferentialForm(
        d,
        n,
        2,
        {
            (0, 2): one(d, n) + coord(1, d, n),
            (1, 2): coord(0, d, n),
            (1, 3): one(d, n),
        },
    )


class TestCheckSymplectic:
    def test_standard_accepted(self):
        check_symplectic(standard_form(2, 6))

    def test_one_plus_x_accepted_top_degree(self):
        check_symplectic(one_plus_x_form())

    def test_degenerate_rejected(self):
        form = DifferentialForm(1, 6, 2, {(0, 1): coord(0, 1, 6)})
        with pytest.raises(DegenerateError):
            check_symplectic(form)

    def test_not_closed_rejected_with_witness(self):
        d, n = 2, 6
        form = standard_form(d, n) + DifferentialForm(
            d, n, 2, {(0, 2): coord(1, d, n)}
        )
        with pytest.raises(NotClosedError) as err:
            check_symplectic(form)
        assert not err.value.witness.is_zero()

    def test_wrong_degree(self):
        with pytest.raises(UsageError):
            check_symplectic(DifferentialForm.d_coordinate(0, 1, 6))


class TestFormBivector:
    def test_standard_to_standard(self):
        from formaldisc.series import PoissonBivector

        theta = form_to_bivector(check_symplectic(standard_form(2, 6)))
        assert theta == PoissonBivector.standard(2, 6)
        assert bivector_to_form(theta) == standard_form(2, 6)

    def test_geometric_series_entry(self):
        theta = form_to_bivector(check_symplectic(one_plus_x_form()))
        # (1+x)^{-1} by the alternating geometric series, checked by
        # multiplying back
        entry = theta.entries[(0, 1)]
        product = entry * (one(1, 8) + coord(0, 1, 8))
        assert product == one(1, 8)
        expected = TruncatedPoly.zero(1, 8)
        for k in range(9):
            expected = expected + (coord(0, 1, 8) ** k).scaled(Fraction((-1) ** k))
        assert entry == expected

    def test_roundtrip_random(self):
        rng = random.Random(12)
        d, n = 2, 6
        for _ in range(5):
            comps = {}
            for v in range(2 * d):
                terms = {}
                for _ in range(2):
                    mono = Monomial(
                        tuple(rng.randrange(0, 2) for _ in range(d)),
                        tuple(rng.randrange(0, 2) for _ in range(d)),
                        0,
                    )
                    if 2 <= mono.weight <= 3:
                        terms[mono] = Fraction(rng.randrange(1, 4))
                if terms:
                    comps[(v,)] = TruncatedPoly(d, n, terms)
            form = standard_form(d, n) + de_rham_d(DifferentialForm(d, n, 1, comps))
            fs = check_symplectic(form)
            assert bivector_to_form(form_to_bivector(fs)) == form


class TestPullback:
    def test_identity(self):
        form = one_plus_x_form()
        assert pullback(form, FormalCoordChange.identity(1, 8)) == form

    def test_shear_preserves_area(self):
        # (x1, y1 + x1^2) pulls the standard form back to itself
        d, n = 1, 8
        phi = FormalCoordChange(
            [coord(0, d, n), coord(1, d, n) + coord(0, d, n) ** 2]
        )
        assert pullback(standard_form(d, n), phi) == standard_form(d, n)

    def _random_change(self, rng, d, n, max_extra):
        comps = []
        for v in range(2 * d):
            extra_mono = Monomial(
                tuple(rng.randrange(0, max_extra + 1) for _ in range(d)),
                tuple(rng.randrange(0, 2) for _ in range(d)),
                0,
            )
            comp = coord(v, d, n)
            if 2 <= extra_mono.weight <= max_extra:
                comp = comp + TruncatedPoly(
                    d, n, {extra_mono: Fraction(rng.randrange(1, 3))}
                )
            comps.append(comp)
        return FormalCoordChange(comps)

    def test_functorial_exact_when_composite_fits(self):
        # quadratic perturbations: the composite has weight <= 4 <= N, so no
        # truncation occurs anywhere and functoriality is exact
        rng = random.Random(13)
        d, n = 1, 7
        form = one_plus_x_form(d, n)
        for _ in range(8):
            phi = self._random_change(rng, d, n, 2)
            psi = self._random_change(rng, d, n, 2)
            assert pullback(form, phi.compose(psi)) == pullback(
                pullback(form, phi), psi
            )

    def test_functorial_below_top_weight_in_general(self):
        # when the composite overflows the cutoff, composing first loses the
        # derivative of the dropped weight-(N+1) terms, which re-enters at
        # weight N; the two routes still agree through weight N-1
        rng = random.Random(14)
        d, n = 1, 6
        form = one_plus_x_form(d, n)
        for _ in range(8):
            phi = self._random_change(rng, d, n, 4)
            psi = self._random_change(rng, d, n, 4)
            lhs = pullback(form, phi.compose(psi))
            rhs = pullback(pullback(form, phi), psi)
            assert darboux.truncate_form(lhs, n - 1) == darboux.truncate_form(
                rhs, n - 1
            )


class TestCoordChangeGroup:
    def test_inverse_and_composition(self):
        d, n = 2, 6
        rng = random.Random(14)
        for _ in range(5):
            comps = []
            for v in range(2 * d):
                comp = coord(v, d, n)
                mono = Monomial(
                    tuple(rng.randrange(0, 2) for _ in range(d)),
                    tuple(rng.randrange(0, 2) for _ in range(d)),
                    0,
                )
                if mono.weight >= 2:
                    comp = comp + TruncatedPoly(d, n, {mono: Fraction(1)})
                comps.append(comp)
            phi = FormalCoordChange(comps)
            ident = FormalCoordChange.identity(d, n)
            inv = phi.inverse()
            assert phi.compose(inv) == ident
            assert inv.compose(phi) == ident

    def test_singular_linear_part_rejected(self):
        d, n = 1, 5
        with pytest.raises(UsageError):
            FormalCoordChange([coord(0, d, n), coord(0, d, n)])

    def test_origin_must_be_fixed(self):
        d, n = 1, 5
        with pytest.raises(UsageError):
            FormalCoordChange([coord(0, d, n) + 1, coord(1, d, n)])


class TestNormalize:
    def test_standard_form_normalizes_trivially(self):
        fs = check_symplectic(standard_form(2, 6))
        phi = darboux_normalize(fs)
        assert pullback_residual(fs, phi).is_zero()
        assert phi.components == FormalCoordChange.identity(2, 7).components

    def test_one_plus_x_weight_8(self):
        fs = check_symplectic(one_plus_x_form(1, 8))
        phi = darboux_normalize(fs)
        assert pullback_residual(fs, phi).is_zero()

    def test_witness_change_agrees_with_contract(self):
        # the inverse-direction witness (x + x^2/2, y) satisfies
        # pullback(std, witness) = (1+x) dx/\dy; our contract normalizes the
        # other way, so the two compose to a standard-form symmetry
        d, n = 1, 8
        witness = FormalCoordChange(
            [
                coord(0, d, n) + (coord(0, d, n) ** 2).scaled(Fraction(1, 2)),
                coord(1, d, n),
            ]
        )
        assert pullback(standard_form(d, n), witness) == one_plus_x_form(d, n)

    def test_closed_d2_variant_weight_6(self):
        fs = check_symplectic(closed_d2_form(6))
        phi = darboux_normalize(fs)
        assert pullback_residual(fs, phi).is_zero()

    def test_linear_normalization_step(self):
        # a constant non-standard symplectic form is fixed by the linear step
        d, n = 1, 5
        form = DifferentialForm(d, n, 2, {(0, 1): TruncatedPoly.constant(3, d, n)})
        fs = check_symplectic(form)
        phi = darboux_normalize(fs)
        assert pullback_residual(fs, phi).is_zero()


class TestTransportedStar:
    def test_identity_change_is_plain_star(self):
        d, n = 1, 6
        spec = TruncationSpec(d, 2, n)
        ident = FormalCoordChange.identity(d, n)
        rng = random.Random(15)
        for _ in range(10):
            a = TruncatedPoly(
                d,
                n,
                {
                    Monomial((rng.randrange(0, 3),), (rng.randrange(0, 3),), 0): Fraction(
                        rng.randrange(1, 4)
                    )
                },
            )
            b = TruncatedPoly(
                d, n, {Monomial((1,), (rng.randrange(0, 2),), 0): Fraction(1)}
            )
            assert transported_star(ident, a, b, spec) == star(
                WeylElement.from_poly(a, spec), WeylElement.from_poly(b, spec)
            )

    def test_transport_properties(self):
        d, n = 1, 6
        base = one_plus_x_form(d, n)
        fs_deep = check_symplectic(darboux.lift_form(base, n + 2))
        phi = darboux_normalize(fs_deep)  # cutoff n + 3
        phi_inv = phi.inverse()
        spec = TruncationSpec(d, 2, phi.cutoff)
        theta = form_to_bivector(check_symplectic(base))
        rng = random.Random(16)

        def rand_poly():
            terms = {}
            for _ in range(2):
                mono = Monomial((rng.randrange(0, 3),), (rng.randrange(0, 3),), 0)
                if mono.weight <= 4:
                    terms[mono] = Fraction(rng.randrange(1, 5))
            return TruncatedPoly(d, n, terms)

        unit = one(d, phi.cutoff)
        for _ in range(8):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            a2, b2, c2 = (p.lifted(phi.cutoff) for p in (a, b, c))
            ab = transported_product_symbol(phi, a2, b2, spec, phi_inv)
            # unital
            assert transported_product_symbol(phi, a2, unit, spec, phi_inv) == a2
            # commutative mod h
            ba = transported_product_symbol(phi, b2, a2, spec, phi_inv)
            assert all(m.hexp >= 1 for m in (ab - ba).terms)
            # associative
            bc = transported_product_symbol(phi, b2, c2, spec, phi_inv)
            assert transported_product_symbol(
                phi, ab, c2, spec, phi_inv
            ) == transported_product_symbol(phi, a2, bc, spec, phi_inv)
            # induced bracket equals the form's Poisson bracket
            assert transported_induced_poisson(phi, a, b, phi_inv) == poisson_bracket(
                a, b, theta
            )

    def test_shallow_phi_rejected_for_bracket(self):
        d, n = 1, 6
        ident = FormalCoordChange.identity(d, n)
        a = coord(0, d, n)
        with pytest.raises(UsageError):
            transported_induced_poisson(ident, a, a)


def test_darboux_suite_transports_at_the_requested_h_order(monkeypatch):
    # the suite's own products must use h-order p, even p = 0; the bracket
    # check computes its products at h-order 1 by design, so those are skipped
    product = darboux.transported_product_symbol
    bracket = darboux.transported_induced_poisson
    orders, in_bracket = [], []

    def recording_product(phi, a, b, spec, phi_inv=None):
        if not in_bracket:
            orders.append(spec.h_order)
        return product(phi, a, b, spec, phi_inv)

    def marked_bracket(*args):
        in_bracket.append(True)
        try:
            return bracket(*args)
        finally:
            in_bracket.pop()

    monkeypatch.setattr(darboux, "transported_product_symbol", recording_product)
    monkeypatch.setattr(darboux, "transported_induced_poisson", marked_bracket)
    report = run_suite("darboux", d=1, p=0, n=6)
    assert all(check.passed for check in report.checks)
    assert orders and set(orders) == {0}
