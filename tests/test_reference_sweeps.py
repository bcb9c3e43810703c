"""Slow reference routes for the tower's fast paths.

`reference_verify_jacobi` is the exhaustive sweep: it visits every basis
triple i<j<k, exempts the overflowing ones by the in-cutoff predicate, and
evaluates the cyclic sum with `Fraction` brackets.  `reference_verify_map`
checks bracket preservation the same way, over every basis pair.
`reference_derd_level` builds a derivation level directly from Weyl
commutators, dropping scalar components, instead of reading it off the
cached G level.  The production routes must agree with them exactly: the
same exempt counts, the same first failure and witness, the same algebra.
"""

import random
from fractions import Fraction

import pytest

from formaldisc import tower
from formaldisc.errors import CheckFailure, InternalError
from formaldisc.liealg import GradedLieAlgebra, LieMap
from formaldisc.sparse import add


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


def reference_derd_level(d, q, n):
    """DerD_q straight from Weyl commutators, with scalar components dropped."""
    monos = [m for m in tower._level_monomials(d, q, n) if not tower._is_scalar(m)]
    index = {m: k for k, m in enumerate(monos)}
    cutoff = n - 2
    brackets = {}
    for i, mi in enumerate(monos):
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue
            vec = {}
            for mono, coeff in tower._transported_bracket(mi, mj, d, q).items():
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


def outcome(sweep, algebra):
    try:
        return ("ok", sweep(algebra))
    except CheckFailure as exc:
        return ("fail", str(exc), exc.witness)


def permuted(algebra, perm):
    """The same algebra with basis element perm[a] moved to position a."""
    inv = {old: new for new, old in enumerate(perm)}
    brackets = {}
    for (i, j), vec in algebra.brackets.items():
        a, b = inv[i], inv[j]
        moved = {inv[k]: c for k, c in vec.items()}
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
        (i, j): {k: c * factors[i] * factors[j] / factors[k] for k, c in vec.items()}
        for (i, j), vec in algebra.brackets.items()
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


class TestDerDOracle:
    @pytest.mark.parametrize("d,q,n", [(1, 0, 5), (1, 1, 5), (1, 2, 7), (2, 0, 5)])
    def test_derd_level_matches_direct_build(self, d, q, n):
        assert tower.build_derd_level(d, q, n) == reference_derd_level(d, q, n)
