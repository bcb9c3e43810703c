"""Slow reference routes for the tower's fast paths.

`reference_verify_jacobi` is the exhaustive sweep: it visits every basis
triple i<j<k, exempts the overflowing ones by the in-cutoff predicate, and
evaluates the cyclic sum with `Fraction` brackets.  `reference_verify_map`
checks bracket preservation the same way, over every basis pair, with
`Fraction` arithmetic, against the integer route of `LieMap.verify`.
`reference_derd_level` builds a derivation level directly from Weyl
commutators, dropping scalar components, instead of reading it off the
cached G level.  It and `reference_g_level` take each commutator through
`reference_transported_bracket`, in a truncation of its own per pair, where
`tower` lifts each basis monomial once into one truncation per level.
`reference_g_level`, `reference_derd_from_g`,
`reference_poisson` (through `reference_poisson_bracket`, the chain of
polynomial partials, products and sums), `reference_w` (through polynomial
products and `reference_partial`) and `reference_sp_subalgebra` are the
hand-written pair loops that `liealg.tabulate` replaced.  The H, A and W
references share no code with `series.monomial_poisson` and
`series.derivative`, the closed forms those algebras are tabulated from.
Each builder's algebra must equal its reference field by field, bracket
order included.  The `reference_*` extension builders write each short
exact sequence out by hand, naming its kernel's monomials and the image of
every tag, where `liealg.aligned_extension` reads the kernel off the tags.
`reference_restriction` tabulates a bracket read by tag, where
`GradedLieAlgebra.restriction` reindexes the stored brackets.  The
production routes must agree with them exactly: the same exempt counts, the
same first failure and witness, the same algebra, the same maps.
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from test_linalg import dense_map_block
from test_series import reference_partial, reference_poisson_bracket

from formaldisc import linalg, tower, weyl
from formaldisc.errors import CheckFailure, InternalError, UsageError
from formaldisc.liealg import (
    ExtensionData,
    GradedLieAlgebra,
    LieMap,
    LinearMap,
    aligned_extension,
    tabulate,
)
from formaldisc.reports import Report
from formaldisc.series import (
    Monomial,
    PoissonBivector,
    TruncatedPoly,
    _packed,
    all_monomials,
    coordinate_name,
)
from formaldisc.sparse import accumulate, add, sub
from formaldisc.weyl import TruncationSpec, WeylElement, commutator

SRC = Path(__file__).resolve().parents[1] / "src" / "formaldisc"
EXTENSION_CALL = re.compile(r"\bExtensionData\(")
ALGEBRA_CALL = re.compile(r"\bGradedLieAlgebra\(")


def _in_cutoff_triple(algebra, i, j, k):
    w, c = algebra.weights, algebra.cutoff
    return (
        w[i] + w[j] <= c
        and w[j] + w[k] <= c
        and w[i] + w[k] <= c
        and w[i] + w[j] + w[k] <= c
    )


def reference_verify_jacobi(algebra):
    """Jacobi on every in-cutoff triple, found by visiting all of them."""
    exempt = 0
    n = algebra.dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = algebra.bracket(i, j)
            for k in range(j + 1, n):
                if not _in_cutoff_triple(algebra, i, j, k):
                    exempt += 1
                    continue
                acc = algebra.bracket_vec(bij, {k: Fraction(1)})
                acc = add(
                    acc, algebra.bracket_vec(algebra.bracket(j, k), {i: Fraction(1)})
                )
                acc = add(
                    acc, algebra.bracket_vec(algebra.bracket(k, i), {j: Fraction(1)})
                )
                if acc:
                    raise CheckFailure(
                        f"{algebra.name}: Jacobi fails on "
                        f"({algebra.labels[i]}, {algebra.labels[j]}, {algebra.labels[k]})",
                        witness={"triple": (i, j, k), "defect": acc},
                    )
    return exempt


def reference_verify_map(m, name="map"):
    """LieMap.verify by visiting every basis pair i<j."""
    n = m.source.dim
    for i in range(n):
        for j in range(i + 1, n):
            if not m.source.in_cutoff_pair(i, j):
                continue
            lhs = m.apply(m.source.bracket(i, j))
            rhs = m.target.bracket_vec(m.column(i), m.column(j))
            if lhs != rhs:
                raise CheckFailure(
                    f"{name}: bracket not preserved on "
                    f"({m.source.labels[i]}, {m.source.labels[j]})",
                    witness={"pair": (i, j), "lhs": lhs, "rhs": rhs},
                )


def reference_transported_bracket(m1, m2, d, q):
    """[h^-1 m1, h^-1 m2] = h^-1([m1, m2]/h) as (monomial, coefficient)
    pairs, with the commutator taken in a truncation of its own per pair:
    h-order q+1, where every term carries h, and weight w1 + w2, the
    weight of every term.  The route `tower` took before it lifted each
    basis monomial once per level."""
    spec = TruncationSpec(d, q + 1, m1.weight + m2.weight)
    a = WeylElement._trusted(spec, {m1: Fraction(1)})
    b = WeylElement._trusted(spec, {m2: Fraction(1)})
    return (
        (_packed((m.xexp, m.yexp, m.hexp - 1, m.weight - 2)), c)
        for m, c in commutator(a, b).terms.items()
    )


def reference_derd_level(d, q, n):
    """DerD_q straight from Weyl commutators, with scalar components dropped."""
    monos = [m for m in tower.level_monomials(d, q, n) if not tower._is_scalar(m)]
    index = {m: k for k, m in enumerate(monos)}
    cutoff = n - 2
    brackets = {}
    for i, mi in enumerate(monos):
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue
            vec = {}
            for mono, coeff in reference_transported_bracket(mi, mj, d, q):
                if tower._is_scalar(mono) or mono.hexp > q or mono.weight > n:
                    continue
                pos = index.get(mono)
                if pos is None:
                    raise InternalError(f"bracket left the level basis: {mono}")
                vec[pos] = coeff
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(
        f"DerD_{q}(d={d},N={n})",
        tuple(f"h^-1*{m}" for m in monos),
        tuple(m.weight - 2 for m in monos),
        brackets,
        cutoff,
        tuple(monos),
    )
    algebra.verify_graded()
    return algebra


def reference_g_level(d, q, n):
    """G_q by a pair loop over every basis pair, with over-cutoff pairs
    skipped and over-truncation components filtered."""
    monos = tower.level_monomials(d, q, n)
    index = {m: k for k, m in enumerate(monos)}
    cutoff = n - 2
    brackets = {}
    for i, mi in enumerate(monos):
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue
            vec = {}
            for mono, coeff in reference_transported_bracket(mi, mj, d, q):
                if mono.hexp > q or mono.weight > n:
                    continue
                pos = index.get(mono)
                if pos is None:
                    raise InternalError(f"bracket left the level basis: {mono}")
                vec[pos] = coeff
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(
        f"G_{q}(d={d},N={n})",
        tuple(f"h^-1*{m}" for m in monos),
        tuple(m.weight - 2 for m in monos),
        brackets,
        cutoff,
        tuple(monos),
    )
    algebra.verify_graded()
    return algebra


def reference_derd_from_g(g, d, q, n):
    """A G level's quotient by its scalars, by reindexing its stored brackets."""
    keep = [k for k, m in enumerate(g.tags) if not tower._is_scalar(m)]
    pos = {k: r for r, k in enumerate(keep)}
    brackets = {}
    for i, j in sorted(g.brackets):
        if i in pos and j in pos:
            vec = {pos[k]: c for k, c in g.bracket(i, j).items() if k in pos}
            if vec:
                brackets[(pos[i], pos[j])] = vec
    monos = [g.tags[k] for k in keep]
    return GradedLieAlgebra(
        f"DerD_{q}(d={d},N={n})",
        tuple(f"h^-1*{m}" for m in monos),
        tuple(m.weight - 2 for m in monos),
        brackets,
        g.cutoff,
        tuple(monos),
    )


def reference_poisson(d, n, name, min_degree):
    """Monomials of degree >= min_degree under `reference_poisson_bracket`
    with the standard bivector, with components off the basis dropped."""
    monos = sorted(
        all_monomials(d, n, min_degree=min_degree), key=lambda m: m.sort_key()
    )
    index = {m: k for k, m in enumerate(monos)}
    cutoff = n - 2
    theta = PoissonBivector.standard(d, n)
    brackets = {}
    for i, mi in enumerate(monos):
        pi = TruncatedPoly(d, n, {mi: Fraction(1)})
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue
            pj = TruncatedPoly(d, n, {mj: Fraction(1)})
            pb = reference_poisson_bracket(pi, pj, theta)
            vec = {index[m]: c for m, c in pb.terms.items() if m in index}
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(
        name,
        tuple(str(m) for m in monos),
        tuple(m.weight - 2 for m in monos),
        brackets,
        cutoff,
        tuple(monos),
    )
    algebra.verify_graded()
    return algebra


def reference_w(d, n):
    """Vector fields with brackets from polynomial products and partials
    taken by `reference_partial`."""
    coeff_monos = sorted(all_monomials(d, n), key=lambda m: m.sort_key())
    basis = [(v, m) for m in coeff_monos for v in range(2 * d)]
    basis.sort(key=lambda t: (t[1].weight, t[0], t[1].sort_key()))
    index = {t: k for k, t in enumerate(basis)}
    labels = tuple(
        f"{m}*d/d{coordinate_name(v, d)}"
        if str(m) != "1"
        else f"d/d{coordinate_name(v, d)}"
        for v, m in basis
    )
    weights = tuple(m.weight - 1 for v, m in basis)
    cutoff = n - 1
    brackets = {}
    for i, (u, mi) in enumerate(basis):
        fi = TruncatedPoly(d, n, {mi: Fraction(1)})
        for j in range(i + 1, len(basis)):
            v, mj = basis[j]
            if mi.weight + mj.weight - 2 > cutoff:
                continue
            fj = TruncatedPoly(d, n, {mj: Fraction(1)})
            # [fi d_u, fj d_v] = fi d_u(fj) d_v - fj d_v(fi) d_u
            parts = (
                (fi * reference_partial(fj, u), v, 1),
                (fj * reference_partial(fi, v), u, -1),
            )
            vec = accumulate(
                (index[(axis, mono)], sign * c)
                for poly, axis, sign in parts
                for mono, c in poly.terms.items()
                if (axis, mono) in index
            )
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(
        f"W(d={d},N={n})", labels, weights, brackets, cutoff, tuple(basis)
    )
    algebra.verify_graded()
    return algebra


def reference_sp_subalgebra(derd):
    """The quadratic symbols of a DerD level, by reindexing its brackets."""
    indices = [
        i
        for i, m in enumerate(derd.tags)
        if m.hexp == 0 and m.weight == 2 and not tower._is_scalar(m)
    ]
    pos = {i: a for a, i in enumerate(indices)}
    brackets = {}
    for a, i in enumerate(indices):
        for b in range(a + 1, len(indices)):
            j = indices[b]
            vec = {}
            for k, c in derd.bracket(i, j).items():
                if k not in pos:
                    raise CheckFailure(
                        "quadratic symbols do not close under the bracket",
                        witness={"pair": (i, j), "component": k},
                    )
                vec[pos[k]] = c
            if vec:
                brackets[(a, b)] = vec
    sp = GradedLieAlgebra(
        f"sp({2 * derd.tags[0].dimension})",
        tuple(derd.labels[i] for i in indices),
        tuple(0 for _ in indices),
        brackets,
        0,
        tuple(derd.tags[i] for i in indices),
    )
    sp.verify_graded()
    sp.verify_jacobi()
    return sp, indices


def algebra_fields(algebra):
    """Every field of an algebra, with each bracket's items in stored order."""
    return (
        algebra.name,
        algebra.labels,
        algebra.weights,
        algebra.tags,
        algebra.cutoff,
        algebra.den,
        [(key, list(algebra.bracket(*key).items())) for key in algebra.brackets],
    )


def outcome(sweep, algebra):
    try:
        return ("ok", sweep(algebra))
    except CheckFailure as exc:
        return ("fail", str(exc), exc.witness)


def permuted(algebra, perm):
    """The same algebra with basis element perm[a] moved to position a."""
    inv = {old: new for new, old in enumerate(perm)}
    brackets = {}
    for i, j in algebra.brackets:
        a, b = inv[i], inv[j]
        moved = {inv[k]: c for k, c in algebra.bracket(i, j).items()}
        if a < b:
            brackets[(a, b)] = moved
        else:
            brackets[(b, a)] = {k: -c for k, c in moved.items()}
    return GradedLieAlgebra(
        algebra.name + "-permuted",
        tuple(algebra.labels[i] for i in perm),
        tuple(algebra.weights[i] for i in perm),
        brackets,
        algebra.cutoff,
    )


def rescaled(algebra, factors):
    """The same algebra on the basis f_a = factors[a] * e_a."""
    brackets = {
        (i, j): {
            k: c * factors[i] * factors[j] / factors[k]
            for k, c in algebra.bracket(i, j).items()
        }
        for i, j in algebra.brackets
    }
    return GradedLieAlgebra(
        algebra.name + "-rescaled",
        algebra.labels,
        algebra.weights,
        brackets,
        algebra.cutoff,
    )


def small_algebras():
    """The levels, plus copies of G_1 with rational structure constants
    (the L > 1 path) and with unsorted weights."""
    sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
    g1 = tower.build_g_level(1, 1, 5)
    rng = random.Random(7)
    factors = [Fraction(rng.choice([1, 2, 3]), rng.choice([1, 2, 3, 4])) for _ in g1.labels]
    return [
        g1,
        tower.build_derd_level(1, 1, 5),
        tower.build_h(1, 5),
        tower.build_a_poisson(1, 5),
        tower.build_w(1, 4),
        permuted(sp, [2, 0, 1]),
        rescaled(g1, factors),
        permuted(g1, rng.sample(range(g1.dim), g1.dim)),
    ]


class TestJacobiOracle:
    def test_agrees_on_levels(self):
        for algebra in small_algebras():
            expected = outcome(reference_verify_jacobi, algebra)
            assert expected[0] == "ok"
            assert outcome(GradedLieAlgebra.verify_jacobi, algebra) == expected

    def test_unsorted_weights_are_covered(self):
        weights = small_algebras()[-1].weights
        assert list(weights) != sorted(weights)

    @pytest.mark.parametrize("builder", [tower.build_g_level, tower.build_derd_level])
    def test_agrees_on_corruptions(self, builder):
        algebra = builder(1, 1, 5)
        deltas = [Fraction(1, 2), Fraction(-1, 3), 1, -2, Fraction(3, 4)]
        failures = zero_before = 0
        w, n = algebra.weights, algebra.dim
        for seed in range(20):
            # even seeds shift a nonzero bracket, odd ones a zero one
            rng = random.Random(seed)
            pairs = [
                (i, j)
                for i in range(algebra.dim)
                for j in range(i + 1, algebra.dim)
                if algebra.in_cutoff_pair(i, j)
                and ((i, j) in algebra.brackets) == (seed % 2 == 0)
                and algebra.basis_indices_of_weight(w[i] + w[j])
            ]
            i, j = rng.choice(pairs)
            k = rng.choice(algebra.basis_indices_of_weight(w[i] + w[j]))
            zero_before += (i, j) not in algebra.brackets
            corrupted = algebra.with_corrupted_bracket(i, j, k, deltas[seed % len(deltas)])
            expected = outcome(reference_verify_jacobi, corrupted)
            failures += expected[0] == "fail"
            assert outcome(GradedLieAlgebra.verify_jacobi, corrupted) == expected, seed
            identity = LieMap(algebra, corrupted, {a: {a: Fraction(1)} for a in range(n)})
            expected = outcome(reference_verify_map, identity)
            assert expected[0] == "fail"
            assert outcome(LieMap.verify, identity) == expected, seed
        assert zero_before == 10
        assert failures > 10


def hand_algebra(name, weights, brackets):
    return GradedLieAlgebra(
        name, tuple(f"e{a}" for a in range(len(weights))), weights, brackets, 10
    )


class TestJacobiOneTerm:
    """Algebras whose only Jacobi defect enters through one term of the
    cyclic sum on (e0, e1, e2), so each of the three reads of the table is
    checked on its own; and a pair with two failing k."""

    @pytest.mark.parametrize(
        "weights,brackets,defect",
        [
            # [[e0,e1],e2]: [e0,e1] = e3, [e3,e2] = e4
            ((1, 1, 1, 2, 3), {(0, 1): {3: Fraction(1)}, (2, 3): {4: Fraction(-1)}}, 1),
            # [[e1,e2],e0]: [e1,e2] = e3, [e0,e3] = e4, so [e3,e0] = -e4
            ((1, 1, 1, 2, 3), {(1, 2): {3: Fraction(1)}, (0, 3): {4: Fraction(1)}}, -1),
            # [[e2,e0],e1]: [e0,e2] = e3, [e1,e3] = -2 e4, so [[e2,e0],e1] = -2 e4
            ((1, 1, 1, 2, 3), {(0, 2): {3: Fraction(1)}, (1, 3): {4: Fraction(-2)}}, -2),
        ],
        ids=["ij-k", "jk-i", "ki-j"],
    )
    def test_the_defect_of_one_term(self, weights, brackets, defect):
        algebra = hand_algebra("one-term", weights, brackets)
        algebra.verify_graded()
        expected = outcome(reference_verify_jacobi, algebra)
        assert expected == (
            "fail",
            "one-term: Jacobi fails on (e0, e1, e2)",
            {"triple": (0, 1, 2), "defect": {4: Fraction(defect)}},
        )
        assert outcome(GradedLieAlgebra.verify_jacobi, algebra) == expected

    def test_the_smallest_failing_k_is_reported(self):
        # [e0,e1] = e5/2; [e5,e2] = e6 fails k = 2 and [e5,e3] = e4 fails
        # k = 3 on a lower component, so k must rank before the component
        weights = (1, 1, 1, 1, 3, 2, 3)
        brackets = {
            (0, 1): {5: Fraction(1, 2)},
            (2, 5): {6: Fraction(-1)},
            (3, 5): {4: Fraction(-1)},
        }
        algebra = hand_algebra("two-k", weights, brackets)
        algebra.verify_graded()
        expected = outcome(reference_verify_jacobi, algebra)
        assert expected == (
            "fail",
            "two-k: Jacobi fails on (e0, e1, e2)",
            {"triple": (0, 1, 2), "defect": {6: Fraction(1, 2)}},
        )
        assert outcome(GradedLieAlgebra.verify_jacobi, algebra) == expected
        # without k = 2 the pair fails first at k = 3
        del brackets[(2, 5)]
        later = hand_algebra("two-k", weights, brackets)
        assert outcome(GradedLieAlgebra.verify_jacobi, later) == (
            "fail",
            "two-k: Jacobi fails on (e0, e1, e3)",
            {"triple": (0, 1, 3), "defect": {4: Fraction(1, 2)}},
        )


def rebased(m, source_factors, target_factors, perm):
    """The map m on the source basis s_a = source_factors[a] e_a and the
    target basis t_c = target_factors[perm[c]] e_perm[c]."""
    inv = {old: new for new, old in enumerate(perm)}
    columns = {
        a: {
            inv[b]: source_factors[a] * c / target_factors[b]
            for b, c in m.column(a).items()
        }
        for a in range(m.source.dim)
    }
    return LieMap(
        rescaled(m.source, source_factors),
        permuted(rescaled(m.target, target_factors), perm),
        columns,
    )


class TestMapOracle:
    """The integer route of LieMap.verify against the Fraction route, on maps
    whose columns and both structure tables have denominators."""

    @staticmethod
    def fractional_maps():
        rng = random.Random(11)

        def factors(algebra):
            return [
                Fraction(rng.choice([1, 2, 3]), rng.choice([2, 3, 5]))
                for _ in range(algebra.dim)
            ]

        g1 = tower.build_g_level(1, 1, 5)
        section = tower.levi_restriction_split(1, 1, 6)[0]
        maps = []
        for m in (LieMap(g1, g1, {a: {a: Fraction(1)} for a in range(g1.dim)}), section):
            perm = rng.sample(range(m.target.dim), m.target.dim)
            maps.append(rebased(m, factors(m.source), factors(m.target), perm))
        return maps

    def test_valid_maps_verify(self):
        for m in self.fractional_maps():
            assert m.source.den > 1
            assert m.target.den > 1
            assert m.den > 1
            assert outcome(reference_verify_map, m) == ("ok", None)
            assert outcome(LieMap.verify, m) == ("ok", None)

    def test_corrupted_column_fails_on_the_same_pair(self):
        for m in self.fractional_maps():
            for seed in range(12):
                rng = random.Random(seed)
                a = rng.choice([a for a in range(m.source.dim) if m.column(a)])
                b = rng.choice(m.target.basis_indices_of_weight(m.source.weights[a]))
                columns = {i: m.column(i) for i in m.columns}
                columns[a] = accumulate(
                    [(b, Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3])))],
                    columns[a],
                )
                bad = LieMap(m.source, m.target, columns)
                expected = outcome(reference_verify_map, bad)
                assert expected[0] == "fail", seed
                assert outcome(LieMap.verify, bad) == expected, seed
                witness = expected[2]
                for side in ("lhs", "rhs"):
                    assert all(type(c) is Fraction for c in witness[side].values())


class TestDerDOracle:
    @pytest.mark.parametrize("d,q,n", [(1, 0, 5), (1, 1, 5), (1, 2, 7), (2, 0, 5)])
    def test_derd_level_matches_direct_build(self, d, q, n):
        assert tower.build_derd_level(d, q, n) == reference_derd_level(d, q, n)


class TestBuilderOracles:
    """Each tabulated builder against its pair-loop reference."""

    @pytest.mark.parametrize(
        "d,q,n", [(1, 0, 4), (1, 1, 6), (1, 2, 7), (2, 0, 5), (2, 1, 5)]
    )
    def test_levels(self, d, q, n):
        g = tower.build_g_level(d, q, n)
        assert algebra_fields(g) == algebra_fields(reference_g_level(d, q, n))
        assert algebra_fields(tower.build_derd_level(d, q, n)) == algebra_fields(
            reference_derd_from_g(g, d, q, n)
        )

    @pytest.mark.parametrize("d,n", [(1, 4), (1, 7), (2, 4)])
    def test_poisson_algebras(self, d, n):
        for build, name, min_degree in (
            (tower.build_h, f"H(d={d},N={n})", 1),
            (tower.build_a_poisson, f"A(d={d},N={n})", 0),
        ):
            expected = reference_poisson(d, n, name, min_degree)
            assert algebra_fields(build(d, n)) == algebra_fields(expected)

    @pytest.mark.parametrize("d,n", [(1, 5), (2, 3)])
    def test_vector_fields(self, d, n):
        assert algebra_fields(tower.build_w(d, n)) == algebra_fields(reference_w(d, n))

    @pytest.mark.parametrize("d,q,n", [(1, 0, 2), (1, 1, 5), (2, 0, 2), (2, 1, 4)])
    def test_sp(self, d, q, n):
        derd = tower.build_derd_level(d, q, n)
        sp, indices = tower.sp_subalgebra(derd)
        expected, expected_indices = reference_sp_subalgebra(derd)
        assert algebra_fields(sp) == algebra_fields(expected)
        assert indices == expected_indices

    def test_corrupted_derd(self):
        d, q, n = 1, 2, 6
        g = tower.build_g_level(d, q, n)
        w = g.weights
        for i, j in list(g.brackets)[:4]:
            for k in g.basis_indices_of_weight(w[i] + w[j]):
                bad = g.with_corrupted_bracket(i, j, k, Fraction(1, 2))
                assert algebra_fields(tower._derd_from_g(bad, d, q, n)) == (
                    algebra_fields(reference_derd_from_g(bad, d, q, n))
                ), (i, j, k)


def test_tabulate_refuses_off_basis_components():
    # {x, y} = 1, but the basis has no constant
    x, y, one = Monomial((1,), (0,)), Monomial((0,), (1,)), Monomial((0,), (0,))

    def bracket(m1, m2):
        yield one, Fraction(1)

    with pytest.raises(CheckFailure) as info:
        tabulate("broken", (x, y), ("x", "y"), (-1, -1), 0, bracket)
    assert "[x,y]" in str(info.value) and "off-basis component 1" in str(info.value)
    assert info.value.witness == {"pair": (0, 1), "component": one}


def test_a_monomial_witness_is_written_as_its_printed_form():
    # a Monomial is a tuple, but a report writes it as it prints, not as a list
    x, y, cube = Monomial((1,), (0,)), Monomial((0,), (1,)), Monomial((3,), (0,))

    def bracket(m1, m2):
        yield cube, Fraction(1)

    report = Report("tabulate", {})
    args = ("broken", (x, y), ("x", "y"), (-1, -1), 0, bracket)
    assert not report.run("off-basis", tabulate, *args)
    (check,) = report.to_json()["checks"]
    assert check["witness"] == {"pair": [0, 1], "component": "x1^3"}
    assert '"component": "x1^3"' in json.dumps(report.to_json())
    assert 'witness: {"pair": [0, 1], "component": "x1^3"}' in report.render_text()


# ---------------------------------------------------------------------------
# restriction: levels read off a built level
# ---------------------------------------------------------------------------


@pytest.fixture
def empty_cache(monkeypatch):
    """An empty level cache for one test; the shared cache comes back after."""
    monkeypatch.setattr(tower, "_build_cache", {})


def reference_restriction(algebra, name, indices, ideal=(), cutoff=None):
    """The restriction tabulated on a bracket read by tag, with the
    components whose tags lie in `ideal` dropped."""
    tags = algebra.tags
    index = {tag: k for k, tag in enumerate(tags)}

    def bracket(t1, t2):
        return (
            (tags[k], c)
            for k, c in algebra.bracket(index[t1], index[t2]).items()
            if tags[k] not in ideal
        )

    return tabulate(
        name,
        [tags[k] for k in indices],
        [algebra.labels[k] for k in indices],
        [algebra.weights[k] for k in indices],
        algebra.cutoff if cutoff is None else cutoff,
        bracket,
    )


def restriction_outcome(restrict, *args, **kwargs):
    try:
        return ("ok", algebra_fields(restrict(*args, **kwargs)))
    except CheckFailure as exc:
        return ("fail", str(exc), exc.witness)


@pytest.mark.usefixtures("empty_cache")
class TestRestriction:
    @pytest.mark.parametrize(
        "d,q,n", [(1, 0, 4), (1, 1, 6), (1, 2, 7), (2, 0, 5), (2, 1, 6)]
    )
    @pytest.mark.parametrize("path", ["read", "tabulated"])
    def test_g_level_matches_reference(self, path, d, q, n):
        if path == "read":
            tower.build_g_level(d, q + 1, n)
        g = tower.build_g_level(d, q, n)
        assert (("G", d, q + 1, n) in tower._build_cache) == (path == "read")
        assert algebra_fields(g) == algebra_fields(reference_g_level(d, q, n))

    def test_a_ladder_tabulates_its_top_level_only(self, monkeypatch):
        levels = []  # the level q of every Weyl commutator taken
        bracket = tower._transported_bracket

        def counting(a, b):
            levels.append(a.spec.h_order - 1)  # a level-q lift is at h-order q+1
            return bracket(a, b)

        monkeypatch.setattr(tower, "_transported_bracket", counting)
        tower.build_g_level(2, 2, 6)
        assert set(levels) == {2}
        levels.clear()
        tower.build_g_level(2, 1, 6)
        tower.build_g_level(2, 0, 6)
        tower.build_derd_level(2, 1, 6)
        assert levels == []
        # the split asks for DerD_1 first, so G_0 is read off G_1
        tower.d1_semidirect_split(1, 5)
        assert set(levels) == {1}

    def test_a_tabulated_level_keeps_one_contraction_base(self):
        # one truncation per level, so one packed-key base: the contraction
        # cache keeps one entry per (ys, xs, room) of the level's pairs.  A
        # truncation sized to each pair kept one per base too: 1,792 here
        weyl._contractions.cache_clear()
        tower.build_g_level(2, 2, 6)
        assert weyl._contractions.cache_info().currsize <= 709

    def test_matches_tabulate_by_tag(self):
        # the quotients and the subalgebra of the tower, then random subsets,
        # on a cached level and on copies with one shifted constant: of a
        # stored bracket, of a zero one (stored last, out of pair order) and
        # one off its weight
        g = tower.build_g_level(1, 2, 6)
        w = g.weights
        zero = [
            (i, j)
            for i in range(g.dim)
            for j in range(i + 1, g.dim)
            if g.in_cutoff_pair(i, j)
            and (i, j) not in g.brackets
            and g.basis_indices_of_weight(w[i] + w[j])
        ]
        algebras = [g]
        for i, j in list(g.brackets)[:3] + zero[:2]:
            for k in g.basis_indices_of_weight(w[i] + w[j])[:2]:
                algebras.append(g.with_corrupted_bracket(i, j, k, Fraction(1, 2)))
        i, j = next(iter(g.brackets))
        off = next(k for k in range(g.dim) if w[k] != w[i] + w[j])
        algebras.append(g.with_corrupted_bracket(i, j, off, 1))
        rng = random.Random(11)
        seen = set()
        for algebra in algebras:
            tags = algebra.tags
            cases = [
                ([k for k, m in enumerate(tags) if m.hexp <= 1], None),
                ([k for k, m in enumerate(tags) if not tower._is_scalar(m)], None),
                ([k for k, m in enumerate(tags) if m.hexp == 0 and m.weight == 2], 0),
            ]
            for size in (2, 3, 5, 8):
                indices = sorted(rng.sample(range(algebra.dim), size))
                cases.append((indices, rng.choice((None, 0, 2))))
            for indices, cutoff in cases:
                kept = {tags[k] for k in indices}
                for ideal in (set(), {m for m in tags if m not in kept}):
                    args = (algebra, "R", indices, ideal)
                    expected = restriction_outcome(
                        reference_restriction, *args, cutoff=cutoff
                    )
                    assert restriction_outcome(
                        GradedLieAlgebra.restriction, *args, cutoff=cutoff
                    ) == expected, (indices, ideal)
                    seen.add(expected[0])
        assert seen == {"ok", "fail"}

    def test_refuses_off_basis_components(self):
        # [x, y] = 1 in G_1, but the kept basis has no scalar
        g = tower.build_g_level(1, 1, 5)
        x, y = g.index("h^-1*x1"), g.index("h^-1*y1")
        with pytest.raises(CheckFailure) as info:
            g.restriction("broken", [y, x])
        assert "[h^-1*y1,h^-1*x1]" in str(info.value)
        assert "off-basis component 1" in str(info.value)
        assert info.value.witness == {"pair": (0, 1), "component": g.tags[0]}

    def test_sp_refuses_a_non_quadratic_component(self):
        derd = tower.build_derd_level(1, 1, 5)
        e, f = derd.index("h^-1*x1^2"), derd.index("h^-1*y1^2")
        cube = derd.index("h^-1*x1^3")
        bad = derd.with_corrupted_bracket(e, f, cube, 1)
        with pytest.raises(CheckFailure) as info:
            tower.sp_subalgebra(bad)
        assert "off-basis component x1^3" in str(info.value)
        sp, _ = tower.sp_subalgebra(derd)
        pair = (sp.index("h^-1*y1^2"), sp.index("h^-1*x1^2"))
        assert info.value.witness == {"pair": pair, "component": derd.tags[cube]}

    def test_refuses_unordered_indices_and_a_higher_cutoff(self):
        g = tower.build_g_level(1, 1, 5)
        with pytest.raises(UsageError, match="ascending"):
            g.restriction("R", [2, 1])
        with pytest.raises(UsageError, match="cutoff of at most 3"):
            g.restriction("R", [1, 2], cutoff=4)


def _owners(pattern):
    """`module.owner` for every line of src that matches `pattern`, where
    owner is the top-level def or class the line sits in."""
    hits = []
    for path in sorted(SRC.glob("*.py")):
        owner = None
        for line in path.read_text().splitlines():
            top = re.match(r"(?:def|class) (\w+)", line)
            if top:
                owner = top.group(1)
            if pattern.search(line):
                hits.append(f"{path.stem}.{owner}")
    return hits


def test_algebras_are_built_in_liealg_only():
    # every algebra with a bracket goes through liealg.tabulate; liealg
    # itself builds the tabulated algebra, the abelian kernel of an aligned
    # extension and the fault-injection copy
    assert _owners(ALGEBRA_CALL) == [
        "liealg.GradedLieAlgebra",
        "liealg.tabulate",
        "liealg.aligned_extension",
    ]


# ---------------------------------------------------------------------------
# the tower's extensions, built by hand
# ---------------------------------------------------------------------------


def _columns(source, target, transform):
    """Each source tag to the target basis element transform(tag), or to 0."""
    index = {m: k for k, m in enumerate(target.tags)}
    columns = {}
    for i, mono in enumerate(source.tags):
        image = transform(mono)
        columns[i] = {} if image is None else {index[image]: Fraction(1)}
    return columns


def _abelian(name, monos, cutoff):
    return GradedLieAlgebra(
        name,
        tuple(f"h^-1*{m}" for m in monos),
        tuple(m.weight - 2 for m in monos),
        {},
        cutoff,
        tuple(monos),
    )


def _hand_extension(sub, total, quotient, project_tag, inject_name, project_name):
    inject = LieMap.build(
        sub, total, _columns(sub, total, lambda m: m), name=inject_name
    )
    project = LieMap.build(
        total, quotient, _columns(total, quotient, project_tag), name=project_name
    )
    splitting = LinearMap(quotient, total, _columns(quotient, total, lambda m: m))
    return ExtensionData(sub, total, quotient, inject, project, splitting)


def reference_cent_row(d, q, n, total=None):
    """0 -> k[h]/h^(q+1) -> G_q -> DerD_q -> 0 with a hand-built scalar line."""
    if total is None:
        g, derd = tower.build_g_level(d, q, n), tower.build_derd_level(d, q, n)
    else:
        g, derd = total, tower._derd_from_g(total, d, q, n)
    zero = (0,) * d
    scalars = _abelian(
        f"k[h]/h^{q + 1}",
        [Monomial(zero, zero, c) for c in range(q + 1) if 2 * c <= n],
        n - 2,
    )
    return _hand_extension(
        scalars,
        g,
        derd,
        lambda m: None if tower._is_scalar(m) else m,
        f"k[h]->{g.name}",
        f"{g.name}->{derd.name}",
    )


def reference_column_extension(d, q, n, kind, upper=None):
    """0 -> h^q A (or h^q H) -> level_{q+1} -> level_q -> 0: the kernel is
    the h-order q+1 part, the quotient drops it."""
    build = tower.build_g_level if kind == "G" else tower.build_derd_level
    lower = build(d, q, n)
    if upper is None:
        upper = build(d, q + 1, n)
    ker = _abelian(
        f"h^{q}*{'A' if kind == 'G' else 'H'}(d={d},N={n})",
        [m for m in build(d, q + 1, n).tags if m.hexp == q + 1],
        upper.cutoff,
    )
    return _hand_extension(
        ker,
        upper,
        lower,
        lambda m: m if m.hexp <= q else None,
        f"ker->{upper.name}",
        f"{upper.name}->{lower.name}",
    )


def reference_v_extension(d, p, n):
    """0 -> V -> G_{p+1} -> DerD_p -> 0 with V the scalars and h^(p+1) part."""
    g = tower.build_g_level(d, p + 1, n)
    derd = tower.build_derd_level(d, p, n)

    def in_v(m):
        return tower._is_scalar(m) or m.hexp == p + 1

    v_monos = [m for m in g.tags if in_v(m)]
    v_alg = _abelian(f"V(d={d},p={p},N={n})", v_monos, g.cutoff)
    return _hand_extension(
        v_alg,
        g,
        derd,
        lambda m: None if in_v(m) else m,
        f"V->{g.name}",
        f"{g.name}->{derd.name}",
    )


def reference_omega_extension(d, n):
    """0 -> k -> A -> H -> 0 with the constant monomial as the kernel."""
    a_alg, h_alg = tower.build_a_poisson(d, n), tower.build_h(d, n)
    constants = GradedLieAlgebra(
        "k", ("1",), (-2,), {}, a_alg.cutoff, (a_alg.tags[0],)
    )
    return _hand_extension(
        constants,
        a_alg,
        h_alg,
        lambda m: m if any(m.xexp) or any(m.yexp) else None,
        "k->A",
        "A->H",
    )


def extension_outcome(build, *args):
    """The extension's data, or the build failure without the map's name."""
    try:
        e = build(*args)
    except CheckFailure as exc:
        return ("fail", str(exc).split(": ", 1)[1], exc.witness)
    sub = e.sub
    maps = [
        [dict(m.column(i)) for i in range(m.source.dim)]
        for m in (e.inject, e.project, e.splitting)
    ]
    return (
        (sub.name, sub.labels, sub.weights, sub.tags, sub.cutoff, dict(sub.brackets)),
        (e.total, e.quotient),
        maps,
    )


LADDER = [(1, 0, 4), (1, 1, 6), (1, 2, 8), (2, 0, 4), (2, 1, 6)]


class TestAlignedExtensionOracle:
    @pytest.mark.parametrize("d,p,n", LADDER)
    def test_ladder_extensions_match_hand_builds(self, d, p, n):
        pairs = [
            (tower.cent_row, reference_cent_row, (d, p, n)),
            (tower.cent_row, reference_cent_row, (d, p + 1, n)),
            (tower.column_extension, reference_column_extension, (d, p, n, "G")),
            (tower.column_extension, reference_column_extension, (d, p, n, "DerD")),
            (tower.v_extension, reference_v_extension, (d, p, n)),
        ]
        for fast, slow, args in pairs:
            expected = extension_outcome(slow, *args)
            assert expected[0] != "fail"
            assert extension_outcome(fast, *args) == expected, (fast.__name__, args)

    @pytest.mark.parametrize("d,n", [(1, 4), (2, 5)])
    def test_omega_extension_matches_hand_build(self, d, n):
        a_alg, h_alg = tower.build_a_poisson(d, n), tower.build_h(d, n)
        expected = extension_outcome(reference_omega_extension, d, n)
        assert extension_outcome(aligned_extension, a_alg, h_alg, "k") == expected

    def test_corrupted_upper_g_level(self):
        # the tower check's own fault, then seeded shifts of one constant
        d, p, n = 1, 1, 6
        g = tower.build_g_level(d, p + 1, n)
        w = g.weights
        i, j = next(iter(g.brackets))
        corruptions = [(i, j, g.basis_indices_of_weight(w[i] + w[j])[0], 1)]
        pairs = [
            (a, b)
            for a in range(g.dim)
            for b in range(a + 1, g.dim)
            if g.in_cutoff_pair(a, b) and g.basis_indices_of_weight(w[a] + w[b])
        ]
        for seed in range(8):
            rng = random.Random(seed)
            i, j = rng.choice(pairs)
            k = rng.choice(g.basis_indices_of_weight(w[i] + w[j]))
            corruptions.append((i, j, k, Fraction(rng.choice([-2, -1, 1, 3]), 2)))
        failed = []
        for i, j, k, delta in corruptions:
            bad = g.with_corrupted_bracket(i, j, k, delta)
            for fast, slow, args in (
                (tower.cent_row, reference_cent_row, (d, p + 1, n, bad)),
                (tower.column_extension, reference_column_extension, (d, p, n, "G", bad)),
            ):
                expected = extension_outcome(slow, *args)
                failed.append(expected[0] == "fail")
                assert extension_outcome(fast, *args) == expected, (i, j, k, delta)
        assert any(failed) and not all(failed)


def test_extensions_are_read_off_tags_only():
    # exactly one hit: the pattern finds the helper, and nothing else in src
    # writes a short exact sequence by hand
    assert _owners(EXTENSION_CALL) == ["liealg.aligned_extension"]


# ---------------------------------------------------------------------------
# sub coordinates: the solve-based route
# ---------------------------------------------------------------------------


def reference_sub_coordinates(e, vec):
    """A total vector in im(inject) in sub coordinates, by one dense inject
    block and one exact solve per weight of the vector."""
    if not vec:
        return {}
    weights = {e.total.weights[k] for k in vec}
    out = {}
    for w in weights:
        block, src, tgt = dense_map_block(e.inject, w)
        tgt_pos = {k: r for r, k in enumerate(tgt)}
        rhs = [Fraction(0)] * len(tgt)
        for k, c in vec.items():
            if e.total.weights[k] == w:
                rhs[tgt_pos[k]] = c
        if not src:
            if any(rhs):
                raise CheckFailure(
                    "vector not in image of inject", witness={"weight": w}
                )
            continue
        sol = linalg.solve(block, rhs)
        if sol is None:
            raise CheckFailure("vector not in image of inject", witness={"weight": w})
        for pos, c in zip(src, sol):
            if c != 0:
                out[pos] = c
    return out


def coordinates_outcome(find, vec):
    try:
        return ("ok", find(vec))
    except CheckFailure as exc:
        return ("fail", str(exc), exc.witness)


def coordinate_probes(e, rng, pairs):
    """Splitting defects of up to `pairs` in-cutoff quotient pairs, their
    brackets against injected elements, and random vectors in and out of
    im(inject)."""
    q = e.quotient
    in_cutoff = [
        (i, j)
        for i in range(q.dim)
        for j in range(i + 1, q.dim)
        if q.in_cutoff_pair(i, j)
    ]
    probes = []
    for i, j in rng.sample(in_cutoff, min(pairs, len(in_cutoff))):
        lhs = e.total.bracket_vec(e.splitting.column(i), e.splitting.column(j))
        probes.append(sub(lhs, e.splitting.apply(q.bracket(i, j))))
    for i in range(q.dim):
        for m in range(e.sub.dim):
            probes.append(
                e.total.bracket_vec(e.splitting.column(i), e.inject.column(m))
            )
    coeffs = [Fraction(a, b) for a in (-3, -1, 1, 2) for b in (1, 2, 7)]
    for _ in range(60):
        inside = accumulate(
            (k, rng.choice(coeffs))
            for m in rng.sample(range(e.sub.dim), min(3, e.sub.dim))
            for k in e.inject.column(m)
        )
        lifts = rng.sample(range(q.dim), rng.choice([1, 2, 3]))
        outside = accumulate(
            (k, rng.choice(coeffs)) for i in lifts for k in e.splitting.column(i)
        )
        probes += [inside, add(inside, outside)]
    return probes


class TestSubCoordinatesOracle:
    @pytest.mark.parametrize(
        "d,p,n,pairs", [(1, 1, 6, 1000), (2, 0, 4, 1000), (2, 1, 6, 300)]
    )
    def test_tower_extensions(self, d, p, n, pairs):
        extensions = [
            tower.cent_row(d, p, n),
            tower.column_extension(d, p, n, "G"),
            tower.column_extension(d, p, n, "DerD"),
            tower.v_extension(d, p, n),
            aligned_extension(tower.build_a_poisson(d, n), tower.build_h(d, n), "k"),
        ]
        rng = random.Random(f"{d}{p}{n}")
        seen = set()
        for e in extensions:
            for vec in coordinate_probes(e, rng, pairs):
                expected = coordinates_outcome(
                    lambda v: reference_sub_coordinates(e, v), vec
                )
                assert coordinates_outcome(e.sub_coordinates, vec) == expected, vec
                seen.add(expected[0])
        assert seen == {"ok", "fail"}

    def test_non_unit_inject_columns_are_refused(self):
        e = tower.column_extension(1, 1, 6, "G")
        columns = {m: dict(e.inject.column(m)) for m in range(e.sub.dim)}
        a, b = next(
            (a, b)
            for a in range(e.sub.dim)
            for b in range(a + 1, e.sub.dim)
            if e.sub.weights[a] == e.sub.weights[b]
        )
        doubled = {**columns, a: {k: 2 * c for k, c in columns[a].items()}}
        shared = {**columns, b: columns[a]}
        missing = {**columns, a: {}}
        for bad in (doubled, shared, missing):
            inject = LieMap(e.sub, e.total, bad)
            with pytest.raises(UsageError, match="inject must send"):
                ExtensionData(e.sub, e.total, e.quotient, inject, e.project, e.splitting)
