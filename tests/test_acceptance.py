"""Acceptance gate: one test per criterion, exact equality throughout.

Every check is an exact identity over the rationals (tolerance zero).  Each
test prints a PASS/FAIL line (visible with -s or on failure).  Two
sub-criteria are expected failures, marked xfail(strict): the pinned d=2
Darboux input dx1^dy1 + dx2^dy2 + x2 dx1^dy1 is not closed (its exterior
derivative is dx2^dx1^dy1 != 0), so no coordinate change can pull it to the
standard form and no star product can be transported along one; the tests
assert the stated property anyway and fail at the closedness gate.
"""

import random
from fractions import Fraction

import pytest

from formaldisc import tower
from formaldisc.cohomology import (
    Cochain,
    ce_differential,
    cohomology_dim,
    extension_cocycle,
    is_coboundary,
    is_cocycle,
    module_from_extension,
    omega_class,
    trivial_module,
)
from formaldisc.darboux import (
    NotClosedError,
    check_symplectic,
    darboux_normalize,
    form_to_bivector,
    lift_form,
    pullback_residual,
    transported_induced_poisson,
    transported_product_symbol,
)
from formaldisc.liealg import ExtensionData, LinearMap
from formaldisc.series import (
    DifferentialForm,
    Monomial,
    PoissonBivector,
    TruncatedPoly,
    all_monomials,
    de_rham_d,
    poisson_bracket,
)
from formaldisc.weyl import (
    D1Element,
    TruncationSpec,
    WeylElement,
    commutator,
    d1_product,
    induced_poisson,
    iota,
    star,
)
from test_tower import almost_inner_action
from test_weyl import d1_from_function, d1_from_weyl, d1_to_weyl

SEED = 20260808


def _line(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")


def _random_weyl(rng, spec, terms, max_weight):
    data = {}
    for _ in range(terms):
        while True:
            mono = Monomial(
                tuple(rng.randrange(0, 3) for _ in range(spec.d)),
                tuple(rng.randrange(0, 3) for _ in range(spec.d)),
                rng.randrange(0, 2),
            )
            if mono.weight <= max_weight and mono.hexp <= spec.h_order:
                break
        data[mono] = Fraction(rng.randrange(-4, 5) or 1, rng.choice([1, 1, 2, 3]))
    return WeylElement(spec, data)


def test_criterion_01_weyl_relations_and_associativity():
    """d=2, p=3, N=8: defining relations on all generator pairs; star
    associative on 200 seeded random triples, exactly."""
    spec = TruncationSpec(2, 3, 8)
    h = WeylElement.generator("h", spec)
    xs = [WeylElement.generator(f"x{i + 1}", spec) for i in range(2)]
    ys = [WeylElement.generator(f"y{i + 1}", spec) for i in range(2)]
    try:
        for i in range(2):
            for j in range(2):
                assert commutator(xs[i], ys[j]) == (
                    h if i == j else WeylElement.zero(spec)
                )
                assert commutator(xs[i], xs[j]).is_zero()
                assert commutator(ys[i], ys[j]).is_zero()
            assert commutator(xs[i], h).is_zero()
            assert commutator(ys[i], h).is_zero()
        rng = random.Random(SEED)
        for _ in range(200):
            a, b, c = (_random_weyl(rng, spec, 4, 6) for _ in range(3))
            assert star(star(a, b), c) == star(a, star(b, c))
    except AssertionError:
        _line("criterion 1: Weyl relations + associativity", False)
        raise
    _line("criterion 1: Weyl relations + associativity", True, "200 triples")


def test_criterion_02_antiinvolution():
    """d=1, p=2, N=6: iota o iota = id and iota(a*b) = iota(b)*iota(a) on
    200 seeded random pairs, exactly."""
    spec = TruncationSpec(1, 2, 6)
    rng = random.Random(SEED + 1)
    try:
        for _ in range(200):
            a, b = _random_weyl(rng, spec, 3, 6), _random_weyl(rng, spec, 3, 6)
            assert iota(iota(a)) == a
            assert iota(iota(b)) == b
            assert iota(star(a, b)) == star(iota(b), iota(a))
    except AssertionError:
        _line("criterion 2: antiinvolution", False)
        raise
    _line("criterion 2: antiinvolution", True, "200 pairs")


# -- criterion 3: the raw integer oracle on exponent tuples ------------------
# d=2 monomials are (a1, a2, b1, b2); the standard bracket of two monomials
# expands by the product rule into at most four integer-coefficient terms.
# This oracle shares no code with the library.


def _raw_bracket_into(m, vec, acc, sign=1):
    a11, a12, b11, b12 = m
    for (a21, a22, b21, b22), c in vec.items():
        if a11 and b21:
            k = (a11 + a21 - 1, a12 + a22, b11 + b21 - 1, b12 + b22)
            acc[k] = acc.get(k, 0) + sign * c * a11 * b21
        if b11 and a21:
            k = (a11 + a21 - 1, a12 + a22, b11 + b21 - 1, b12 + b22)
            acc[k] = acc.get(k, 0) - sign * c * b11 * a21
        if a12 and b22:
            k = (a11 + a21, a12 + a22 - 1, b11 + b21, b12 + b22 - 1)
            acc[k] = acc.get(k, 0) + sign * c * a12 * b22
        if b12 and a22:
            k = (a11 + a21, a12 + a22 - 1, b11 + b21, b12 + b22 - 1)
            acc[k] = acc.get(k, 0) - sign * c * b12 * a22


def _raw_bracket(m1, m2):
    acc = {}
    _raw_bracket_into(m1, {m2: 1}, acc)
    return {k: v for k, v in acc.items() if v}


def _tuples_up_to(weight):
    out = []
    for a1 in range(weight + 1):
        for a2 in range(weight + 1 - a1):
            for b1 in range(weight + 1 - a1 - a2):
                for b2 in range(weight + 1 - a1 - a2 - b1):
                    out.append((a1, a2, b1, b2))
    return out


def _poly_of(exps, cutoff):
    return TruncatedPoly(
        2, cutoff, {Monomial(exps[:2], exps[2:], 0): Fraction(1)}
    )


def test_criterion_03_bracket_compatibility():
    """d=2: inducedPoisson == poissonBracket on all pairs of monomials of
    weight <= 6 (and both equal an independent integer oracle); Leibniz and
    Jacobi hold exhaustively over the same monomial set."""
    monos = _tuples_up_to(6)
    assert len(monos) == 210
    cutoff = 10  # pair brackets have weight <= 10: nothing truncates
    theta = PoissonBivector.standard(2, cutoff)
    polys = {m: _poly_of(m, cutoff) for m in monos}

    def as_poly(raw):
        return TruncatedPoly(
            2,
            cutoff,
            {Monomial(k[:2], k[2:], 0): Fraction(v) for k, v in raw.items()},
        )

    try:
        # equality of the three routes on all unordered pairs, plus
        # antisymmetry (which extends the statement to ordered pairs)
        pair_brackets = {}
        for i, m1 in enumerate(monos):
            for j in range(i + 1, len(monos)):
                m2 = monos[j]
                raw = _raw_bracket(m1, m2)
                pair_brackets[(i, j)] = raw
                series_value = poisson_bracket(polys[m1], polys[m2], theta)
                assert induced_poisson(polys[m1], polys[m2]) == series_value
                assert as_poly(raw) == series_value
                back = _raw_bracket(m2, m1)
                assert back == {k: -v for k, v in raw.items()}

        # Leibniz in each slot: {f, g k} = {f, g} k + g {f, k} for every
        # monomial f of weight <= 6 and every product g k of weight <= 6
        factor_pairs = [
            (g, k)
            for a, g in enumerate(monos)
            for k in monos[a:]
            if sum(g) + sum(k) <= 6
        ]
        for f in monos:
            for g, k in factor_pairs:
                gk = tuple(u + v for u, v in zip(g, k))
                lhs = _raw_bracket(f, gk)
                acc = {}
                for key, c in _raw_bracket(f, g).items():
                    shifted = tuple(u + v for u, v in zip(key, k))
                    acc[shifted] = acc.get(shifted, 0) + c
                for key, c in _raw_bracket(f, k).items():
                    shifted = tuple(u + v for u, v in zip(key, g))
                    acc[shifted] = acc.get(shifted, 0) + c
                assert lhs == {k2: v for k2, v in acc.items() if v}, (f, g, k)

        # Jacobi: exhaustive over all unordered triples of distinct
        # monomials from the same set (repeats vanish by antisymmetry)
        n = len(monos)
        for i in range(n):
            mi = monos[i]
            for j in range(i + 1, n):
                mj = monos[j]
                bij = pair_brackets.get((i, j))
                for k in range(j + 1, n):
                    acc = {}
                    bjk = pair_brackets.get((j, k))
                    if bjk:
                        _raw_bracket_into(mi, bjk, acc)
                    bik = pair_brackets.get((i, k))
                    if bik:
                        _raw_bracket_into(mj, bik, acc, sign=-1)
                    if bij:
                        _raw_bracket_into(monos[k], bij, acc)
                    assert not any(acc.values()), (mi, mj, monos[k])
    except AssertionError:
        _line("criterion 3: bracket compatibility", False)
        raise
    _line(
        "criterion 3: bracket compatibility",
        True,
        f"{len(monos) * (len(monos) - 1) // 2} pairs, "
        f"{len(monos) * len(factor_pairs)} Leibniz, "
        f"{len(monos) * (len(monos) - 1) * (len(monos) - 2) // 6} Jacobi",
    )


@pytest.mark.parametrize("p", [1, 2])
def test_criterion_04_commu_diagram(p):
    """d=1, p in {1,2}, N=6: rows/columns exact, first column trivial and
    central, all squares commute, kernels match functions and Hamiltonian
    fields weight by weight."""
    report = tower.commu_diagram_check(1, p, 6)
    failed = [c for c in report.checks if not c.passed]
    _line(
        f"criterion 4 (p={p}): commutative ladder",
        not failed,
        f"{len(report.checks)} checks",
    )
    assert not failed, [c.name for c in failed]


def test_criterion_05_d1_semidirect():
    """d=1, N=6: the section DerD_0 -> DerD_1 is bracket-preserving on all
    in-cutoff basis pairs, and its image action preserves the order-one
    product on all monomial pairs of weight <= 5."""
    d, n = 1, 6
    section = tower.d1_semidirect_split(d, n)
    try:
        section.verify("criterion-5 section")

        # the image action, transported to the split model, must be the
        # h-linear Poisson action; verify the transport on weight <= 5
        # functions, then Leibniz for the split product under that action
        from formaldisc.series import standard_poisson

        deep = 14  # no truncation: f deg <= 6, pair products deg <= 10
        spec_deep = TruncationSpec(d, 1, deep)
        monos5 = all_monomials(d, 5)
        for i, f_mono in enumerate(section.source.tags):
            f_poly = TruncatedPoly(d, deep, {f_mono: Fraction(1)})

            for m in monos5:
                u = d1_from_function(TruncatedPoly(d, n, {m: Fraction(1)}))
                acted = almost_inner_action(
                    section.target,
                    section.column(i),
                    d1_to_weyl(u, TruncationSpec(d, 1, n)),
                )
                transported = d1_from_weyl(acted)
                expected_even = standard_poisson(
                    f_poly.truncated(n), u.even
                )
                expected_odd = standard_poisson(f_poly.truncated(n), u.odd)
                if f_mono.weight + m.weight - 2 <= n - 2:
                    assert transported.even == expected_even, (f_mono, m)
                    assert transported.odd == expected_odd, (f_mono, m)

            def act(e):
                return D1Element(
                    standard_poisson(f_poly, e.even),
                    standard_poisson(f_poly, e.odd),
                )

            for m1 in monos5:
                u = d1_from_function(TruncatedPoly(d, deep, {m1: Fraction(1)}))
                for m2 in monos5:
                    v = d1_from_function(
                        TruncatedPoly(d, deep, {m2: Fraction(1)})
                    )
                    lhs = act(d1_product(u, v))
                    rhs = d1_product(act(u), v) + d1_product(u, act(v))
                    assert lhs.even == rhs.even and lhs.odd == rhs.odd, (
                        f_mono,
                        m1,
                        m2,
                    )
    except AssertionError:
        _line("criterion 5: order-one semidirect splitting", False)
        raise
    _line(
        "criterion 5: order-one semidirect splitting",
        True,
        f"{section.source.dim} generators x {len(all_monomials(1, 5))}^2 pairs",
    )


def test_criterion_06_levi_splitting():
    """d=1: the central-row cocycle restricted to sp(2) is a coboundary with
    an explicit primitive, and the corrected section preserves brackets."""
    section, sp, indices, cocycle, primitive = tower.levi_restriction_split(1, 2, 6)
    try:
        assert ce_differential(primitive) == cocycle
        section.verify("criterion-6 levi section")
        # sp(2) has H^1 = 0, so the primitive is unique: by hand, the only
        # defect is [h^-1 x^2, h^-1 y^2] = 4 h^-1 xy - 2, forcing the value
        # 1/2 on x1*y1 against the weight-0 scalar
        hh = sp.index("h^-1*x1*y1")
        scalar0 = primitive.module.labels.index("h^-1*h")
        assert primitive.value((hh,)) == {scalar0: Fraction(1, 2)}
        for a in range(sp.dim):
            if a != hh:
                assert not primitive.value((a,))
    except AssertionError:
        _line("criterion 6: Levi splitting over sp(2)", False)
        raise
    _line("criterion 6: Levi splitting over sp(2)", True, "primitive phi(xy) = 1/2")


def test_criterion_07_omega_class_nontrivial():
    """d=1, N=4: the extension cocycle of 0 -> k -> A -> H -> 0 is a cocycle
    and not a coboundary; H^2(sp(2), k) = 0 by brute force."""
    try:
        cls = omega_class(1, 4)
        assert is_cocycle(cls.representative)
        found, _ = is_coboundary(cls.representative)
        assert not found
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = trivial_module(sp)
        assert cohomology_dim(module, 2, 0) == 0
    except AssertionError:
        _line("criterion 7: symplectic class nontrivial", False)
        raise
    _line("criterion 7: symplectic class nontrivial", True, "H^2(sp(2), k) = 0")


def _criterion8_d1_form(n=8):
    d = 1
    return DifferentialForm(
        d,
        n,
        2,
        {(0, 1): TruncatedPoly.one(d, n) + TruncatedPoly.x(0, d, n)},
    )


def _criterion8_d2_form_as_stated(n=6):
    # dx1^dy1 + dx2^dy2 + x2 dx1^dy1, exactly as pinned
    d = 2
    return DifferentialForm(
        d,
        n,
        2,
        {
            (0, 2): TruncatedPoly.one(d, n) + TruncatedPoly.x(1, d, n),
            (1, 3): TruncatedPoly.one(d, n),
        },
    )


def test_criterion_08a_darboux_d1():
    """(1+x1) dx1^dy1 at N=8: the normalizing change pulls the form back to
    the standard one with residual exactly zero through weight 8."""
    fs = check_symplectic(_criterion8_d1_form(8))
    phi = darboux_normalize(fs)
    residual = pullback_residual(fs, phi)
    _line("criterion 8a: Darboux d=1, N=8", residual.is_zero())
    assert residual.is_zero()


@pytest.mark.xfail(
    strict=True,
    raises=NotClosedError,
    reason="the pinned d=2 form dx1^dy1 + dx2^dy2 + x2 dx1^dy1 is not closed "
    "(d of it is dx2^dx1^dy1 != 0); pullback commutes with d, so no "
    "coordinate change can make it standard and the criterion cannot hold "
    "as stated",
)
def test_criterion_08b_darboux_d2_as_stated():
    """The d=2 input named by the criterion, asserted faithfully."""
    form = _criterion8_d2_form_as_stated(6)
    closure = de_rham_d(form)
    _line(
        "criterion 8b: Darboux d=2 (as stated)",
        False,
        f"input is not closed: d(form) = {closure}",
    )
    fs = check_symplectic(form)  # raises NotClosedError
    phi = darboux_normalize(fs)
    assert pullback_residual(fs, phi).is_zero()


def test_criterion_09a_transported_quantization_d1():
    """Transported star for the d=1 form of criterion 8: associative on 100
    seeded triples, unital, commutative mod h, induced bracket equal to the
    form's Poisson bracket on 100 seeded pairs, exactly."""
    d, n = 1, 8
    base = _criterion8_d1_form(n)
    theta = form_to_bivector(check_symplectic(base))
    deep = check_symplectic(lift_form(base, n + 2))
    phi = darboux_normalize(deep)  # cutoff n + 3 >= n + 2
    phi_inv = phi.inverse()
    spec = TruncationSpec(d, 2, phi.cutoff)
    one = TruncatedPoly.one(d, phi.cutoff)
    rng = random.Random(SEED + 9)

    def rand_poly():
        terms = {}
        for _ in range(3):
            mono = Monomial((rng.randrange(0, 4),), (rng.randrange(0, 4),), 0)
            if mono.weight <= 5:
                terms[mono] = Fraction(rng.randrange(-3, 4) or 2)
        return TruncatedPoly(d, n, terms)

    try:
        for trial in range(100):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            a2, b2, c2 = (q.lifted(phi.cutoff) for q in (a, b, c))
            ab = transported_product_symbol(phi, a2, b2, spec, phi_inv)
            bc = transported_product_symbol(phi, b2, c2, spec, phi_inv)
            assert transported_product_symbol(
                phi, ab, c2, spec, phi_inv
            ) == transported_product_symbol(phi, a2, bc, spec, phi_inv)
            if trial < 20:
                assert transported_product_symbol(phi, a2, one, spec, phi_inv) == a2
                assert transported_product_symbol(phi, one, a2, spec, phi_inv) == a2
            ba = transported_product_symbol(phi, b2, a2, spec, phi_inv)
            assert all(m.hexp >= 1 for m in (ab - ba).terms)
        for _ in range(100):
            a, b = rand_poly(), rand_poly()
            assert transported_induced_poisson(phi, a, b, phi_inv) == poisson_bracket(
                a, b, theta
            )
    except AssertionError:
        _line("criterion 9a: transported quantization d=1", False)
        raise
    _line("criterion 9a: transported quantization d=1", True, "100 + 100 sweeps")


@pytest.mark.xfail(
    strict=True,
    raises=NotClosedError,
    reason="blocked by the criterion-8 d=2 input: the pinned form is not "
    "closed, so it admits no Darboux change and no transported product",
)
def test_criterion_09b_transported_quantization_d2_as_stated():
    form = _criterion8_d2_form_as_stated(6)
    _line(
        "criterion 9b: transported quantization d=2 (as stated)",
        False,
        "blocked: input form of criterion 8b is not closed",
    )
    fs = check_symplectic(form)  # raises NotClosedError
    phi = darboux_normalize(fs)
    spec = TruncationSpec(2, 2, phi.cutoff)
    a = TruncatedPoly.x(0, 2, phi.cutoff)
    assert transported_product_symbol(phi, a, a, spec) is not None


def test_criterion_10_obstruction_cocycle():
    """d=1, p=1, N=6: the V-valued cochain of the one-step extension is a
    cocycle, and two distinct splittings give cocycles differing by an exact
    coboundary."""
    d, p, n = 1, 1, 6
    try:
        e = tower.v_extension(d, p, n)
        module = module_from_extension(e, name="V")
        module.verify_representation()
        c1 = extension_cocycle(e, module)
        boundary = ce_differential(c1)
        assert boundary.is_zero()

        # second splitting: perturb by a weight-preserving map into V,
        # touching both the scalar summand and the h^p-functions summand
        quot, sub = e.quotient, e.sub
        lam = {
            quot.index("h^-1*x1^2"): {sub.labels.index("h^-1*h"): Fraction(1)},
            quot.index("h^-1*x1^2*y1^2"): {
                sub.labels.index("h^-1*h^2"): Fraction(-2)
            },
            quot.index("h^-1*x1^3*y1^2"): {
                sub.labels.index("h^-1*x1*h^2"): Fraction(1, 2)
            },
        }
        columns = {i: dict(e.splitting.column(i)) for i in range(quot.dim)}
        for i, vec in lam.items():
            for m, c in vec.items():
                for k, v in e.inject.column(m).items():
                    columns[i][k] = columns[i].get(k, Fraction(0)) + c * v
        e2 = ExtensionData(
            e.sub, e.total, e.quotient, e.inject, e.project,
            LinearMap(quot, e.total, columns),
        )
        e2.check_splitting()
        c2 = extension_cocycle(e2, module)

        difference = c2 - c1
        lam_cochain = Cochain(module, 1, {(i,): v for i, v in lam.items()})
        assert ce_differential(lam_cochain) == difference
        found, primitive = is_coboundary(difference)
        assert found
        assert ce_differential(primitive) == difference
    except AssertionError:
        _line("criterion 10: tower obstruction cocycle", False)
        raise
    _line(
        "criterion 10: tower obstruction cocycle",
        True,
        f"support {len(c1.values)} pairs; exclusions {boundary.excluded}",
    )
