"""Seeded verification sweeps behind `verify <suite>`.

Each suite replays the module invariants at the requested truncation with a
deterministic generator; the seed is echoed in the report so failures
reproduce.  Suite names: weyl, tower, cohomology, darboux, all.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import cohomology, darboux, tower
from .errors import CheckFailure, UsageError
from .reports import Report
from .series import (
    DifferentialForm,
    Monomial,
    TruncatedPoly,
    de_rham_d,
    poisson_bracket,
)
from .sparse import accumulate
from .weyl import (
    TruncationSpec,
    WeylElement,
    commutator,
    center_check,
    induced_poisson,
    iota,
    mod_h,
    normal_order,
    normal_order_random_strategy,
    star,
)

SUITES = ("weyl", "tower", "cohomology", "darboux", "all")

_COEFFS = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)] + [
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(2, 3),
    Fraction(5, 1),
]


def random_monomial(rng, d, max_weight, with_h=True):
    while True:
        xexp = tuple(rng.randrange(0, 3) for _ in range(d))
        yexp = tuple(rng.randrange(0, 3) for _ in range(d))
        hexp = rng.randrange(0, 2) if with_h else 0
        mono = Monomial(xexp, yexp, hexp)
        if mono.weight <= max_weight:
            return mono


def random_poly(rng, d, cutoff, terms=3, max_weight=None, with_h=False):
    max_weight = min(cutoff, max_weight if max_weight is not None else cutoff)
    data = {}
    for _ in range(terms):
        data[random_monomial(rng, d, max_weight, with_h)] = rng.choice(_COEFFS)
    return TruncatedPoly(d, cutoff, data)


def random_weyl(rng, spec, terms=3, max_weight=None):
    max_weight = min(
        spec.cutoff, max_weight if max_weight is not None else spec.cutoff
    )
    data = {}
    for _ in range(terms):
        mono = random_monomial(rng, spec.d, max_weight)
        if mono.hexp <= spec.h_order:
            data[mono] = rng.choice(_COEFFS)
    return WeylElement(spec, data)


def random_word(rng, d, length):
    names = [f"x{i + 1}" for i in range(d)] + [f"y{i + 1}" for i in range(d)] + ["h"]
    return [rng.choice(names) for _ in range(length)]


# ---------------------------------------------------------------------------


def weyl_suite(report: Report, d, p, n, rng):
    spec = TruncationSpec(d, p, n)

    def relations():
        gens = [WeylElement.generator(f"x{i + 1}", spec) for i in range(d)]
        gens += [WeylElement.generator(f"y{i + 1}", spec) for i in range(d)]
        hgen = WeylElement.generator("h", spec)
        for i in range(d):
            for j in range(d):
                expected = hgen if i == j else WeylElement.zero(spec)
                if commutator(gens[i], gens[d + j]) != expected:
                    raise CheckFailure(
                        f"[x{i + 1}, y{j + 1}] wrong", witness={"i": i, "j": j}
                    )
                if not commutator(gens[i], gens[j]).is_zero():
                    raise CheckFailure(f"[x{i + 1}, x{j + 1}] nonzero")
                if not commutator(gens[d + i], gens[d + j]).is_zero():
                    raise CheckFailure(f"[y{i + 1}, y{j + 1}] nonzero")
        for g in gens:
            if not commutator(g, hgen).is_zero():
                raise CheckFailure("h is not central")

    def associativity(count=25):
        for t in range(count):
            a, b, c = (random_weyl(rng, spec, max_weight=5) for _ in range(3))
            if star(star(a, b), c) != star(a, star(b, c)):
                raise CheckFailure("associativity fails", witness={"trial": t})

    def unit():
        one = WeylElement.one(spec)
        for t in range(10):
            a = random_weyl(rng, spec)
            if star(a, one) != a or star(one, a) != a:
                raise CheckFailure("unit fails", witness={"trial": t})

    def iota_properties(count=25):
        for t in range(count):
            a, b = random_weyl(rng, spec), random_weyl(rng, spec)
            if iota(iota(a)) != a:
                raise CheckFailure("iota not involutive", witness={"trial": t})
            if iota(star(a, b)) != star(iota(b), iota(a)):
                raise CheckFailure("iota not an antihomomorphism", witness={"trial": t})

    def modh_homomorphism(count=25):
        for t in range(count):
            a, b = random_weyl(rng, spec), random_weyl(rng, spec)
            if mod_h(star(a, b)) != mod_h(a) * mod_h(b):
                raise CheckFailure("mod_h not multiplicative", witness={"trial": t})

    def induced_vs_bivector(count=25):
        from .series import PoissonBivector

        theta = PoissonBivector.standard(d, n)
        for t in range(count):
            f = random_poly(rng, d, n, max_weight=min(n, 4))
            g = random_poly(rng, d, n, max_weight=min(n, 4))
            if induced_poisson(f, g) != poisson_bracket(f, g, theta):
                raise CheckFailure("induced bracket mismatch", witness={"trial": t})

    def confluence(count=15):
        for t in range(count):
            word = random_word(rng, d, rng.randrange(2, 7))
            deterministic = normal_order(word, spec)
            randomized = normal_order_random_strategy(word, spec, rng)
            if deterministic != randomized:
                raise CheckFailure(
                    "rewriting strategies disagree", witness={"word": word}
                )

    def center_bruteforce():
        limit = min(n, 4)
        for mono in tower.level_monomials(d, min(p, 2), limit):
            element = WeylElement(spec, {mono: Fraction(1)})
            is_scalar = not any(mono.xexp) and not any(mono.yexp)
            if center_check(element) != is_scalar:
                raise CheckFailure(
                    f"center_check wrong on {mono}", witness={"monomial": str(mono)}
                )

    report.run("weyl-relations", relations)
    report.run("weyl-associativity", associativity)
    report.run("weyl-unit", unit)
    report.run("weyl-iota", iota_properties)
    report.run("weyl-modh", modh_homomorphism)
    report.run("weyl-induced-poisson", induced_vs_bivector)
    report.run("weyl-normal-order-confluence", confluence)
    report.run("weyl-center-bruteforce", center_bruteforce)


def tower_suite(report: Report, d, p, n, inject_fault=False):
    diagram = tower.commu_diagram_check(d, p, n, corrupt=inject_fault)
    report.checks.extend(diagram.checks)

    def levi():
        section, sp, indices, cocycle, primitive = tower.levi_restriction_split(
            d, p, n
        )
        if cocycle.is_zero():
            return "defect cocycle is zero (already split)"
        return f"primitive found on sp({2 * d}); section verified"

    def d1_split():
        tower.d1_semidirect_split(d, n)
        return "section verified bracket-preserving"

    report.run("tower-levi-splitting", levi)
    report.run("tower-d1-semidirect", d1_split)


def _ran_at(algebra: str, requested: dict, **used) -> str:
    """'<algebra> at p=.., N=..', naming each requested value it replaced."""
    at = ", ".join(f"{key}={value}" for key, value in used.items())
    replaced = ", ".join(
        f"{key}={requested[key]}" for key, value in used.items() if requested[key] != value
    )
    return f"{algebra} at {at}" + (f" (requested {replaced})" if replaced else "")


def cohomology_suite(report: Report, d, p, n):
    """The cohomology checks, each at a capped size: d^2 on H at N <= 5, the
    omega class at N <= 4 and the obstruction at p <= 1.  Every detail names
    the algebra and the p and N it ran at."""
    requested = {"p": p, "N": n}

    def d_squared():
        h_alg = tower.build_h(d, min(n, 5))
        module = cohomology.trivial_module(h_alg)

        def excluded(slices):
            in_cutoff = cohomology._in_cutoff
            return not all(in_cutoff(h_alg, i) for s in slices.values() for i, _ in s)

        checked = 0
        for w in sorted(set(h_alg.weights)):
            # skipped when C^1(w) is empty or C^2(w) or C^3(w) holds an
            # excluded tuple, decided before any row of d_2 is built
            source = cohomology._slices(module, 1, w)
            mid = cohomology._slices(module, 2, w) if source else {}
            if not source or excluded(mid):
                continue
            top = cohomology._slices(module, 3, w)
            if excluded(top):
                continue
            # one torus slice at a time: row c of d_1 is the C^2 basis
            # element that column c of d_2 reads
            for tau, src in source.items():
                mid_tau = mid.get(tau, [])
                d1, _ = cohomology._rows(module, w, src, mid_tau)
                d2, _ = cohomology._rows(module, w, mid_tau, top.get(tau, []))
                if any(
                    accumulate((k, v * u) for c, v in row.items() for k, u in d1[c].items())
                    for row in d2
                ):
                    raise CheckFailure(f"d^2 != 0 at weight {w}", witness={"weight": w})
            checked += 1
        if checked == 0:
            raise CheckFailure("no overflow-free weight block to check")
        ran = _ran_at(h_alg.name, requested, N=min(n, 5))
        return f"{ran}: d^2 = 0 on {checked} weight blocks"

    def whitehead():
        sp = tower.sp_algebra(d)
        module = cohomology.trivial_module(sp)
        h0 = cohomology.cohomology_dim(module, 0, 0)
        h1 = cohomology.cohomology_dim(module, 1, 0)
        h2 = cohomology.cohomology_dim(module, 2, 0)
        if (h0, h1, h2) != (1, 0, 0):
            raise CheckFailure(
                "sp cohomology differs from (1, 0, 0)",
                witness={"H0": h0, "H1": h1, "H2": h2},
            )
        # sp(2d) is read off DerD_0 at N=2 whatever p and N are requested
        return f"{sp.name} at p=0, N=2: H^0, H^1, H^2 = 1, 0, 0"

    def omega():
        cls = cohomology.omega_class(d, min(n, 4))
        if not cls.is_nonzero():
            raise CheckFailure("symplectic class is a coboundary")
        ran = _ran_at(cls.representative.module.algebra.name, requested, N=min(n, 4))
        return f"{ran}: degree {cls.degree}, weight {cls.weight}, nontrivial"

    def obstruction():
        # extension_cocycle refuses a cochain that is not a cocycle
        obs = tower.tower_obstruction(d, min(p, 1), n)
        sp_cochain, _, _ = obs.scalar_restriction_to_sp()
        found, _ = cohomology.is_coboundary(sp_cochain)
        if not found:
            raise CheckFailure("sp-restricted scalar cocycle is not a coboundary")
        ran = _ran_at(obs.extension.sub.name, requested, p=min(p, 1), N=n)
        return f"{ran}: support on {len(obs.cochain.values)} basis pairs"

    report.run("cohomology-d-squared", d_squared)
    report.run("cohomology-whitehead-sp2", whitehead)
    report.run("cohomology-omega-class", omega)
    report.run("cohomology-obstruction", obstruction)


def darboux_suite(report: Report, d, p, n, rng):
    def random_symplectic(cutoff):
        # omega_std + d(beta) for a random 1-form beta with quadratic-or-higher
        # coefficients: closed by construction, standard at the origin.
        comps = {}
        for v in range(2 * d):
            poly = random_poly(rng, d, cutoff, terms=2, max_weight=min(cutoff, 4))
            poly = poly - TruncatedPoly.constant(poly.constant_term(), d, cutoff)
            comps[(v,)] = poly - poly.homogeneous_part(1)
        beta = DifferentialForm(d, cutoff, 1, comps)
        return darboux.standard_form(d, cutoff) + de_rham_d(beta)

    def roundtrip(count=5):
        for t in range(count):
            form = random_symplectic(n)
            fs = darboux.check_symplectic(form)
            theta = darboux.form_to_bivector(fs)
            if darboux.bivector_to_form(theta) != form:
                raise CheckFailure("form/bivector roundtrip", witness={"trial": t})

    def normalize(count=3):
        for t in range(count):
            fs = darboux.check_symplectic(random_symplectic(n))
            phi = darboux.darboux_normalize(fs)
            if not darboux.pullback_residual(fs, phi).is_zero():
                raise CheckFailure("nonzero pullback residual", witness={"trial": t})

    def functoriality(count=3):
        for t in range(count):
            form = random_symplectic(n)
            phi = _random_change(rng, d, n)
            psi = _random_change(rng, d, n)
            lhs = darboux.pullback(form, phi.compose(psi))
            rhs = darboux.pullback(darboux.pullback(form, phi), psi)
            if lhs != rhs:
                raise CheckFailure("pullback not functorial", witness={"trial": t})

    def transport(count=5):
        cutoff = n + 2
        form = darboux.lift_form(
            DifferentialForm(
                d,
                n,
                2,
                {
                    (0, d): TruncatedPoly.one(d, n) + TruncatedPoly.x(0, d, n),
                    **{
                        (i, d + i): TruncatedPoly.one(d, n)
                        for i in range(1, d)
                    },
                },
            ),
            cutoff,
        )
        fs = darboux.check_symplectic(form)
        phi = darboux.darboux_normalize(fs)
        phi_inv = phi.inverse()
        theta = darboux.form_to_bivector(
            darboux.check_symplectic(darboux.truncate_form(form, n))
        )
        spec = TruncationSpec(d, p, phi.cutoff)
        one = TruncatedPoly.one(d, phi.cutoff)
        for t in range(count):
            a = random_poly(rng, d, n, max_weight=min(n, 4))
            b = random_poly(rng, d, n, max_weight=min(n, 4))
            a2, b2 = a.lifted(phi.cutoff), b.lifted(phi.cutoff)
            prod = darboux.transported_product_symbol(phi, a2, b2, spec, phi_inv)
            if darboux.transported_product_symbol(phi, a2, one, spec, phi_inv) != a2:
                raise CheckFailure("transported product not unital")
            sym = prod - darboux.transported_product_symbol(phi, b2, a2, spec, phi_inv)
            if any(m.hexp == 0 for m in sym.terms):
                raise CheckFailure("transported product not commutative mod h")
            bracket = darboux.transported_induced_poisson(phi, a, b, phi_inv)
            if bracket != poisson_bracket(a, b, theta):
                raise CheckFailure(
                    "transported bracket differs from the form's Poisson bracket",
                    witness={"trial": t},
                )

    report.run("darboux-roundtrip", roundtrip)
    report.run("darboux-normalize", normalize)
    report.run("darboux-pullback-functorial", functoriality)
    report.run("darboux-transport", transport)


def _random_change(rng, d, cutoff):
    # quadratic perturbations of the identity: the composite of two such
    # changes has weight <= 4, so with cutoff >= 4 composition is exact and
    # pullback functoriality holds on the nose (with overflowing composites
    # it holds only below the top weight)
    comps = []
    for v in range(2 * d):
        poly = TruncatedPoly.coordinate(v, d, cutoff)
        extra = random_poly(rng, d, cutoff, terms=1, max_weight=2)
        extra = extra - TruncatedPoly.constant(extra.constant_term(), d, cutoff)
        extra = extra - extra.homogeneous_part(1)
        comps.append(poly + extra)
    return darboux.FormalCoordChange(comps)


def run_suite(
    name: str, d=1, p=2, n=6, seed=2026, inject_fault=False
) -> Report:
    if name not in SUITES:
        raise UsageError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    # the least N: darboux inverts forms at N; the ladder and obstruction need h^(p+1)
    bound, least = {
        "weyl": ("0", 0),
        "tower": ("2(p+1)", 2 * (p + 1)),
        "cohomology": ("2(min(p,1)+1)", 2 * (min(p, 1) + 1)),
        "darboux": ("1", 1),
        "all": ("2(p+1)", 2 * (p + 1)),
    }[name]
    if d < 1 or p < 0 or n < least:
        raise UsageError(
            f"verify {name} needs d >= 1, p >= 0 and N >= {bound}; "
            f"got d={d}, p={p}, N={n}"
        )
    report = Report(
        f"verify {name}", {"d": d, "p": p, "N": n, "inject_fault": inject_fault}, seed
    )
    rng = random.Random(seed)
    if name in ("weyl", "all"):
        weyl_suite(report, d, p, n, rng)
    if name in ("tower", "all"):
        tower_suite(report, d, p, n, inject_fault=inject_fault)
    if name in ("cohomology", "all"):
        cohomology_suite(report, d, p, n)
    if name in ("darboux", "all"):
        darboux_suite(report, d, p, n, rng)
    return report.finish()
