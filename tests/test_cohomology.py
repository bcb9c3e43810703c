"""Chevalley-Eilenberg machinery: differentials, dimensions, classes."""

import ast
import inspect
import json
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations

import pytest
from test_linalg import SRC, dense_mat_mul, dense_rank

from formaldisc import cli, cohomology, linalg, suites, tower
from formaldisc.cohomology import (
    Cochain,
    CohomologyClass,
    ce_differential,
    cohomology_dim,
    differential_block,
    is_coboundary,
    is_cocycle,
    omega_class,
    trivial_module,
)
from formaldisc.errors import CheckFailure, UsageError
from formaldisc.liealg import ExtensionData, GradedLieAlgebra, LinearMap
from formaldisc.reports import Report
from formaldisc.sparse import accumulate


def abelian(dim=1, weight=0, weights=None):
    weights = tuple(weights) if weights is not None else (weight,) * dim
    return GradedLieAlgebra(
        f"abelian{len(weights)}",
        tuple(f"e{i}" for i in range(len(weights))),
        weights,
        {},
        10,
    )


def shuffled_sp():
    """sp(2) with its basis permuted."""
    sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
    perm = [2, 0, 1]
    inv = {v: k for k, v in enumerate(perm)}
    brackets = {}
    for i, j in sp.brackets:
        vec = sp.bracket(i, j)
        a, b = inv[i], inv[j]
        new_vec = {inv[k]: c for k, c in vec.items()}
        if a < b:
            brackets[(a, b)] = new_vec
        else:
            brackets[(b, a)] = {k: -c for k, c in new_vec.items()}
    return GradedLieAlgebra(
        "sp-shuffled",
        tuple(sp.labels[i] for i in perm),
        tuple(sp.weights[i] for i in perm),
        brackets,
        sp.cutoff,
    )


def cochain_block_basis(module, k, weight):
    """The (degree k, cochain weight w) block basis as (tuple, m) pairs, in
    lexicographic order: the basis of the sorted full-block route that the
    torus slices replaced, kept as their oracle."""
    weights = module.algebra.weights
    return sorted(
        (idx, m)
        for m, wm in enumerate(module.weights)
        for idx in cohomology._tuples_in_range(weights, k, weight + wm)
    )


def block_rows(module, k, weight):
    """The CE differential C^k(w) -> C^{k+1}(w) as the `_rows` of the full
    sorted blocks: (rows, source basis, target basis, excluded count)."""
    src = cochain_block_basis(module, k, weight)
    tgt = cochain_block_basis(module, k + 1, weight)
    rows, excluded = cohomology._rows(module, weight, src, tgt)
    return rows, src, tgt, excluded


def full_block_is_coboundary(cochain):
    """`is_coboundary` by one solve per full weight block: the oracle of the
    one solve per torus slice."""
    module, k = cochain.module, cochain.degree
    values = {}
    for w in cochain.support_weights():
        rows, src, tgt, _ = block_rows(module, k - 1, w)
        rhs = [cochain.value(idx).get(m, 0) for idx, m in tgt]
        solution = linalg.solve_rows(rows, len(src), rhs)
        if solution is None:
            return (False, None)
        for (idx, m), c in zip(src, solution):
            if c:
                values.setdefault(idx, {})[m] = c
    return (True, Cochain(module, k - 1, values))


def block_slices(module, k, weight):
    """The pairs of all torus slices of C^k(w), in block order."""
    return sorted(chain(*cohomology._slices(module, k, weight).values()))


def all_subsets_basis(module, k, weight):
    """The block basis by filtering every k-subset: the reference."""
    g = module.algebra
    out = []
    for idx in combinations(range(g.dim), k):
        ins = sum(g.weights[i] for i in idx)
        for m in range(module.dim):
            if ins - module.weights[m] == weight:
                out.append((idx, m))
    return out


class TestDifferential:
    def test_zero_on_abelian_trivial(self):
        module = trivial_module(abelian(3))
        for k in range(3):
            for idx, m in cochain_block_basis(module, k, 0):
                single = Cochain(module, k, {idx: {m: Fraction(1)}})
                assert ce_differential(single).is_zero()

    def test_d_of_zero_cochain_is_action(self):
        # d(v)(xi) = rho(xi) v
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = cohomology.LieModule(
            sp,
            "adjoint",
            sp.labels,
            sp.weights,
            {
                (i, m): sp.bracket_vec({i: Fraction(1)}, {m: Fraction(1)})
                for i in range(sp.dim)
                for m in range(sp.dim)
            },
            0,
        )
        module.verify_representation()
        for m in range(sp.dim):
            zero_cochain = Cochain(module, 0, {(): {m: Fraction(1)}})
            image = ce_differential(zero_cochain)
            for i in range(sp.dim):
                assert image.value((i,)) == module.act(i, {m: Fraction(1)})

    def test_broken_action_names_its_witness(self):
        # ad(x^2) x^2 = 0 shifted to y^2: the first triple that sees it is
        # (x*y, x^2, x^2), the last pair of sp(2)
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        action = {
            (i, m): sp.bracket_vec({i: Fraction(1)}, {m: Fraction(1)})
            for i in range(sp.dim)
            for m in range(sp.dim)
        }
        action[(2, 2)] = {0: Fraction(1)}
        module = cohomology.LieModule(sp, "broken", sp.labels, sp.weights, action, 0)
        with pytest.raises(CheckFailure) as failure:
            module.verify_representation()
        assert str(failure.value) == (
            "broken: not a representation on (h^-1*x1*y1, h^-1*x1^2, h^-1*x1^2)"
        )
        assert failure.value.witness == {"pair": (1, 2), "module_index": 2}

    def test_d_squared_matrix(self):
        h_alg = tower.build_h(1, 5)
        module = trivial_module(h_alg)
        checked = []
        for w in sorted(set(h_alg.weights)):
            d1, src1, _, ex1 = differential_block(module, 1, w)
            d2, _, _, ex2 = differential_block(module, 2, w)
            if ex1 or ex2 or not src1:
                continue
            product = dense_mat_mul(d2, d1)
            assert all(v == 0 for row in product for v in row)
            checked.append(w)
        assert len(checked) >= 3
        assert -1 in checked

    def test_d_squared_check_sees_a_wrong_d1(self, monkeypatch):
        # the row of each C^2 basis element (X, m) in d_1 scaled by 1 + X[0],
        # in the `_rows` that the suite composes slice by slice: it must fail
        # at the first weight where the dense product of the faulted full
        # blocks does
        rows_of = cohomology._rows

        def scaled(module, weight, src, tgt):
            rows, excluded = rows_of(module, weight, src, tgt)
            if src and len(src[0][0]) == 1:  # a block of d_1
                rows = [
                    {c: (idx[0] + 1) * v for c, v in row.items()}
                    for (idx, _), row in zip(tgt, rows)
                ]
            return rows, excluded

        monkeypatch.setattr(cohomology, "_rows", scaled)
        module = trivial_module(tower.build_h(1, 5))
        failing = []
        for w in sorted(set(module.algebra.weights)):
            d1, src1, _, ex1 = differential_block(module, 1, w)
            d2, _, _, ex2 = differential_block(module, 2, w)
            if not (ex1 or ex2 or not src1) and any(map(any, dense_mat_mul(d2, d1))):
                failing.append(w)
        assert failing
        report = Report("verify cohomology", {})
        suites.cohomology_suite(report, 1, 1, 5)
        check = next(c for c in report.checks if c.name == "cohomology-d-squared")
        assert not check.passed
        assert check.witness == {"weight": failing[0]}

    def test_weight_blocks_partition(self):
        h_alg = tower.build_h(1, 4)
        module = trivial_module(h_alg)
        total = sum(len(block_slices(module, 2, w)) for w in range(-10, 11))
        assert total == sum(1 for _ in combinations(range(h_alg.dim), 2))


class TestDimensions:
    def test_h0_of_trivial_is_constants(self):
        h_alg = tower.build_h(1, 5)
        module = trivial_module(h_alg)
        assert cohomology_dim(module, 0, 0) == 1

    def test_h1_of_one_dim_abelian(self):
        module = trivial_module(abelian(1))
        assert cohomology_dim(module, 1, 0) == 1

    def test_whitehead_sp2(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = trivial_module(sp)
        assert cohomology_dim(module, 0, 0) == 1
        assert cohomology_dim(module, 1, 0) == 0
        assert cohomology_dim(module, 2, 0) == 0

    def test_dim_independent_of_basis_order(self):
        shuffled = shuffled_sp()
        shuffled.verify_jacobi()
        module = trivial_module(shuffled)
        assert cohomology_dim(module, 2, 0) == 0
        assert cohomology_dim(module, 1, 0) == 0


class TestCoboundary:
    def test_zero_cocycle(self):
        module = trivial_module(abelian(2))
        zero = Cochain(module, 2)
        found, primitive = is_coboundary(zero)
        assert found and primitive.is_zero()

    def test_non_cocycle_rejected(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = trivial_module(sp)
        bad = Cochain(module, 1, {(0,): {0: Fraction(1)}})
        assert not ce_differential(bad).is_zero()  # sp is not abelian
        with pytest.raises(UsageError):
            is_coboundary(bad)

    def test_coboundary_found_with_primitive(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = trivial_module(sp)
        primitive = Cochain(module, 1, {(1,): {0: Fraction(2)}})
        boundary = ce_differential(primitive)
        found, recovered = is_coboundary(boundary)
        assert found
        assert ce_differential(recovered) == boundary

    @pytest.mark.parametrize("adjoint", [False, True], ids=["trivial", "adjoint"])
    def test_primitives_at_d2(self, adjoint):
        # is_coboundary solves the sparse rows of each block; whatever
        # primitive it picks must bound the random coboundary it was given
        sp = tower.sp_algebra(2)
        module = _adjoint(sp) if adjoint else trivial_module(sp)
        rng = random.Random(f"sp(4) {adjoint}")
        for k in (0, 1) if adjoint else (1, 2):
            for _ in range(4):
                primitive = _random_cochain(module, k, rng, [0])
                boundary = ce_differential(primitive)
                found, recovered = is_coboundary(boundary)
                assert found
                assert ce_differential(recovered) == boundary

    @pytest.mark.parametrize(
        "algebra", [tower.sp_algebra(1), tower.build_h(1, 4)], ids=lambda a: a.name
    )
    def test_degree_zero(self, algebra):
        # the zero 0-cochain bounds the zero cochain of degree -1; a nonzero
        # invariant 0-cochain is a cocycle that bounds nothing
        module = trivial_module(algebra)
        zero = Cochain(module, 0)
        found, primitive = is_coboundary(zero)
        assert found and primitive.degree == -1
        assert ce_differential(primitive) == zero
        invariant = Cochain(module, 0, {(): {0: Fraction(1)}})
        assert is_coboundary(invariant) == (False, None)

    def test_a_value_on_an_over_cutoff_tuple_is_refused(self):
        # [x1^4, y1^4] lies past the cutoff of H(1,4): the cochain passes
        # is_cocycle with its 60 target tuples excluded, yet it is no cocycle
        # at N = 6, 8 or 10, where H^2(w=4) = 0, so no class is made up
        h = tower.build_h(1, 4)
        pair = tuple(sorted((h.index("x1^4"), h.index("y1^4"))))
        cochain = Cochain(trivial_module(h), 2, {pair: {0: 1}})
        assert is_cocycle(cochain) and ce_differential(cochain).excluded == 60
        message = r"^is_coboundary input has a value on \(y1\^4, x1\^4\), past the cutoff$"
        with pytest.raises(UsageError, match=message):
            is_coboundary(cochain)
        with pytest.raises(UsageError, match=message):
            CohomologyClass(2, 4, cochain).is_nonzero()
        for n in (6, 8, 10):
            bigger = tower.build_h(1, n)
            pair = tuple(sorted((bigger.index("x1^4"), bigger.index("y1^4"))))
            assert not is_cocycle(Cochain(trivial_module(bigger), 2, {pair: {0: 1}}))
            assert cohomology_dim(trivial_module(bigger), 2, 4) == 0


def _sp_obstruction(d, p, n):
    """The sp-restricted tower obstruction, from the raw extension defect
    (`tower_obstruction` also checks that it is a cocycle, which
    `is_coboundary` does again)."""
    e = tower.v_extension(d, p, n)
    module = cohomology.module_from_extension(e, name=f"V(d={d},p={p})")
    raw = cohomology.Cochain(module, 2, cohomology.extension_defect_cochain(e))
    return tower.ObstructionCocycle(e, module, raw).scalar_restriction_to_sp()[0]


def _v_difference(d, p, n):
    """c2 - c1 of criterion 10: the V-valued defects of the monomial
    splitting and of one moved by a weight-preserving map into V, which
    touches both the scalar summand and the h^p-functions summand."""
    e = tower.v_extension(d, p, n)
    module = cohomology.module_from_extension(e, name="V")
    quot, sub = e.quotient, e.sub
    lam = {
        "h^-1*x1^2": ("h^-1*h", Fraction(1)),
        "h^-1*x1^2*y1^2": ("h^-1*h^2", Fraction(-2)),
        "h^-1*x1^3*y1^2": ("h^-1*x1*h^2", Fraction(1, 2)),
    }
    columns = {i: dict(e.splitting.column(i)) for i in range(quot.dim)}
    for label, (target, c) in lam.items():
        column = columns[quot.index(label)]
        for k, v in e.inject.column(sub.labels.index(target)).items():
            column[k] = column.get(k, 0) + c * v
    splitting = LinearMap(quot, e.total, columns)
    moved = ExtensionData(e.sub, e.total, quot, e.inject, e.project, splitting)
    return Cochain(module, 2, cohomology.extension_defect_cochain(moved)) - Cochain(
        module, 2, cohomology.extension_defect_cochain(e)
    )


# name -> (cochain builder, whether it is a coboundary)
SOLVED_COCYCLES = {
    "omega-H(1,4)": (lambda: omega_class(1, 4).representative, False),
    "omega-H(2,4)": (lambda: omega_class(2, 4).representative, False),
    "sp-obstruction(1,1,6)": (lambda: _sp_obstruction(1, 1, 6), True),
    "sp-obstruction(2,1,8)": (lambda: _sp_obstruction(2, 1, 8), True),
    "levi(1,2,6)": (lambda: tower.levi_restriction_split(1, 2, 6)[3], True),
    "levi(2,1,6)": (lambda: tower.levi_restriction_split(2, 1, 6)[3], True),
    "V-difference(1,1,6)": (lambda: _v_difference(1, 1, 6), True),
    "V-difference(1,1,8)": (lambda: _v_difference(1, 1, 8), True),
    "V-difference(2,1,6)": (lambda: _v_difference(2, 1, 6), True),
    # primitives with free variables: d_1 on the adjoint and d_2 have kernels
    "d(random 1-cochain)-sp(4)-adjoint": (lambda: _random_boundary(1, "sp(4)"), True),
    "d(random 2-cochain)-H(1,5)": (lambda: _random_boundary(2, "H(1,5)"), True),
}


def _random_boundary(k, algebra):
    """d of a seeded random k-cochain of weights 0 and 1."""
    module = {
        "sp(4)": lambda: _adjoint(tower.sp_algebra(2)),
        "H(1,5)": lambda: trivial_module(tower.build_h(1, 5)),
    }[algebra]()
    rng = random.Random(f"{algebra} {k}")
    return ce_differential(_random_cochain(module, k, rng, [0, 1]))


@pytest.mark.parametrize(
    "build,bounds", list(SOLVED_COCYCLES.values()), ids=list(SOLVED_COCYCLES)
)
def test_slice_primitives_match_the_full_blocks(build, bounds):
    """`is_coboundary` solves one torus slice at a time; on the cocycles the
    package solves, its answer must be the free-variables-zero primitive of
    one solve per full sorted weight block."""
    cochain = build()
    found, primitive = is_coboundary(cochain)
    assert found == bounds
    assert (found, primitive) == full_block_is_coboundary(cochain)
    if found:
        assert ce_differential(primitive) == cochain
    assert len(cohomology._torus(cochain.module)[0][0]) > 0


class TestCochainInput:
    """A Cochain refuses what the CE machinery would misread: a key that is
    not an increasing degree-tuple of algebra indices, a module index out of
    range, an inexact coefficient."""

    @pytest.mark.parametrize(
        "degree,values,message",
        [
            (2, {(1, 0): {0: 1}}, "not an increasing 2-tuple"),
            (2, {(0, 0): {0: 1}}, "not an increasing 2-tuple"),
            (2, {(0,): {0: 1}}, "not an increasing 2-tuple"),
            (2, {(0, 7): {0: 1}}, "of indices below 3"),
            (1, {(0,): {5: 1}}, "module index 5 is not below 1"),
            (1, {(0,): {0: 0.5}}, "not an exact rational: 0.5"),
            (1, {(0,): {0: "1/2"}}, "not an exact rational: '1/2'"),
        ],
        ids=["unsorted", "repeated", "short", "index", "module", "float", "str"],
    )
    def test_refused(self, degree, values, message):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        with pytest.raises(UsageError, match=message):
            Cochain(trivial_module(sp), degree, values)

    def test_exact_values_pass(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        values = {(0, 2): {0: 1}, (1, 2): {0: Fraction(1, 2)}}
        assert Cochain(trivial_module(sp), 2, values).values is values

    def test_zero_coefficients_are_dropped(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        module = trivial_module(sp)
        zero = Cochain(module, 1, {(0,): {0: 0}})
        assert zero.values == {} and zero.is_zero()
        assert zero == Cochain(module, 1)
        assert zero.support_weights() == [] and ce_differential(zero).is_zero()
        half = {(1,): {0: Fraction(1, 2)}}
        values = {(0,): {0: Fraction(0)}, (1,): {0: Fraction(1, 2)}, (2,): {}}
        mixed = Cochain(module, 1, values)
        assert mixed == Cochain(module, 1, half) and not mixed.is_zero()

    def test_a_module_action_must_be_exact(self):
        sp, _ = tower.sp_subalgebra(tower.build_derd_level(1, 1, 4))
        args = (sp, "m", ("v",), (0,))
        with pytest.raises(UsageError, match=r"m: action on \(0, 0\): not an exact"):
            cohomology.LieModule(*args, {(0, 0): {0: 0.5}}, 0)
        exact = {(0, 0): {0: 1}, (1, 0): {0: Fraction(1, 2)}}
        assert cohomology.LieModule(*args, exact, 0).action is exact

    @staticmethod
    def one_vector():
        """A one-vector module over H(1, 3), which has 9 basis elements, less
        its action: each refused action below built before, and
        cohomology_dim then raised IndexError or read it as "not a
        representation"."""
        return tower.build_h(1, 3), "V", ("a",), (0,)

    def test_an_action_key_off_the_algebra_basis_is_refused(self):
        with pytest.raises(
            UsageError, match=r"V: action on \(99, 0\): index 99 is off the algebra basis 0..8"
        ):
            cohomology.LieModule(*self.one_vector(), {(99, 0): {0: Fraction(1)}}, 0)

    def test_an_action_key_off_the_module_basis_is_refused(self):
        with pytest.raises(
            UsageError, match=r"V: action on \(0, 3\): index 3 is off the module basis 0..0"
        ):
            cohomology.LieModule(*self.one_vector(), {(0, 3): {0: Fraction(1)}}, 0)

    def test_an_action_component_off_the_module_basis_is_refused(self):
        with pytest.raises(
            UsageError, match=r"V: action on \(0, 0\): index 5 is off the module basis 0..0"
        ):
            cohomology.LieModule(*self.one_vector(), {(0, 0): {5: Fraction(1)}}, 0)


class TestOmegaClass:
    def test_value_on_degree_one_pair(self):
        cls = omega_class(1, 4)
        h_alg = cls.representative.module.algebra
        i, j = h_alg.index("y1"), h_alg.index("x1")
        lo, hi = min(i, j), max(i, j)
        # c(xi_f, xi_g) = constant term of {f, g}; the basis sorts y1 first,
        # so the stored value is {y1, x1} = -1
        assert cls.representative.value((lo, hi)) == {0: Fraction(-1)}

    def test_supported_on_degree_one_only(self):
        cls = omega_class(1, 4)
        h_alg = cls.representative.module.algebra
        for (i, j), vec in cls.representative.values.items():
            if vec:
                assert h_alg.weights[i] == -1 and h_alg.weights[j] == -1

    def test_not_a_coboundary(self):
        cls = omega_class(1, 4)
        assert cls.is_nonzero()

    def test_is_cocycle_and_weight(self):
        cls = omega_class(2, 4)
        assert is_cocycle(cls.representative)
        assert cls.is_nonzero()
        assert cls.weight == -2
        assert cls.representative.support_weights() == [-2]

    def test_vanishes_on_higher_hamiltonians(self):
        cls = omega_class(1, 5)
        h_alg = cls.representative.module.algebra
        for (i, j), vec in cls.representative.values.items():
            if h_alg.weights[i] >= 0 and h_alg.weights[j] >= 0 and vec:
                raise AssertionError("nonzero pairing between degree >= 2 symbols")


class TestBlockBasisByWeight:
    """The by-weight basis against the all-subsets filter, order included."""

    @pytest.mark.parametrize(
        "algebra",
        [
            tower.build_h(1, 6),
            tower.build_w(1, 4),
            shuffled_sp(),
            abelian(weights=(3, -1, 0, 2, -1, 5, 1, 0)),
        ],
        ids=lambda a: a.name,
    )
    @pytest.mark.parametrize("module_weights", [(0,), (2, 0, -1, 2)])
    def test_matches_all_subsets(self, algebra, module_weights):
        module = trivial_module(
            algebra, tuple(f"v{m}" for m in range(len(module_weights))), module_weights
        )
        for k in range(4):
            sums = {
                sum(algebra.weights[i] for i in idx)
                for idx in combinations(range(algebra.dim), k)
            }
            assert cohomology.tuple_weights(algebra.weights, k) == sorted(sums)
            lo = min(sums, default=0) - max(module_weights) - 1
            hi = max(sums, default=0) - min(module_weights) + 1
            for w in range(lo, hi + 1):
                assert block_slices(module, k, w) == all_subsets_basis(module, k, w)

    def test_no_tuples_beyond_the_dimension(self):
        module = trivial_module(abelian(2))
        assert cohomology._slices(module, 3, 0) == {}
        assert cohomology.tuple_weights((0, 0), 3) == []

    def test_a_degree_past_the_dimension_allocates_nothing(self):
        # C^k = 0 once k exceeds the dimension; a table of k + 1 weight
        # sets, built before the weights are read, would take about 20 MB
        tracemalloc.start()
        try:
            assert cohomology.tuple_weights((0, 1, 2), 10**5) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_tuples_are_generated_lazily(self):
        # the first tuple is handed out after the n-step table pass and a
        # few more reads, not after all C(40, 3) = 9880 tuples are listed
        class Counted(tuple):
            reads = 0

            def __getitem__(self, i):
                Counted.reads += 1
                return tuple.__getitem__(self, i)

        weights = Counted((1,) * 40)
        tuples = cohomology._tuples_in_range(weights, 3, 3)
        assert Counted.reads == 0
        assert next(tuples) == (0, 1, 2)
        assert Counted.reads < 2 * len(weights)
        assert sum(1 for _ in tuples) == 9880 - 1


def _dims_json(tmp_path, algebra, n, d=1):
    path = tmp_path / f"{algebra}.json"
    args = ["cohomology", "dims", "--algebra", algebra, "--d", str(d), "--N", str(n)]
    assert cli.main(args + ["--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    del payload["duration_s"]
    return payload


class TestPinnedDimensionTables:
    """Full `cohomology dims` tables of the benchmark inputs, as computed
    before the sparse elimination kernel and the by-weight bases, and of
    H(2,5), as computed before the sparse blocks and the integer kernel."""

    def test_hamiltonian_d2_n5(self, tmp_path):
        assert _dims_json(tmp_path, "H", 5, d=2) == {
            "schema": 1,
            "command": "cohomology dims",
            "params": {"algebra": "H", "d": 2, "N": 5, "module": "trivial"},
            "dimensions": {
                "H^0(w=0)": 1,
                "H^2(w=-2)": 1,
                "H^2(w=4)": 84,
                "H^2(w=5)": 1960,
                "H^2(w=6)": 1540,
            },
        }

    def test_hamiltonian_d1_n8(self, tmp_path):
        assert _dims_json(tmp_path, "H", 8) == {
            "schema": 1,
            "command": "cohomology dims",
            "params": {"algebra": "H", "d": 1, "N": 8, "module": "trivial"},
            "dimensions": {
                "H^0(w=0)": 1,
                "H^2(w=-2)": 1,
                "H^2(w=7)": 10,
                "H^2(w=8)": 11,
                "H^2(w=9)": 90,
                "H^2(w=10)": 91,
                "H^2(w=11)": 72,
                "H^2(w=12)": 36,
            },
        }

    def test_witt_d1_n5(self, tmp_path):
        assert _dims_json(tmp_path, "W", 5) == {
            "schema": 1,
            "command": "cohomology dims",
            "params": {"algebra": "W", "d": 1, "N": 5, "module": "trivial"},
            "dimensions": {
                "H^0(w=0)": 1,
                "H^2(w=5)": 14,
                "H^2(w=6)": 86,
                "H^2(w=7)": 120,
                "H^2(w=8)": 66,
            },
        }


def _nonzero_rows(matrix):
    return [row for row in matrix if any(row)]


class TestCellOracle:
    """Every cell of degrees 0-2 against rank-nullity on the dense blocks,
    ranked by the dense Gauss-Jordan of `test_linalg` (zero rows dropped
    first, which keeps the rank)."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: tower.build_h(1, 8),
            lambda: tower.build_w(1, 5),
            lambda: tower.build_a_poisson(1, 6),
            lambda: tower.sp_algebra(2),
            lambda: tower.build_h(2, 4),
        ],
        ids=["H(1,8)", "W(1,5)", "A(1,6)", "sp(2)", "H(2,4)"],
    )
    def test_every_cell(self, build):
        algebra = build()
        module = trivial_module(algebra)
        dense = {}

        def rank(k, w):
            if (k, w) not in dense:
                matrix, src, _, _ = differential_block(module, k, w)
                dense[(k, w)] = len(src), dense_rank(_nonzero_rows(matrix))
            return dense[(k, w)]

        cells = 0
        for k in range(3):
            for w in cohomology.tuple_weights(algebra.weights, k):
                dim_ck, rank_k = rank(k, w)
                rank_prev = rank(k - 1, w)[1] if k else 0
                assert cohomology_dim(module, k, w) == dim_ck - rank_k - rank_prev, (k, w)
                cells += 1
        assert cells >= 3


def _h_torus(tag):
    """Torus weights of a monomial tag under the x_i y_i: {x_i y_i, x^a y^b}
    = (b_i - a_i) x^a y^b."""
    return tuple(b - a for a, b in zip(tag.xexp, tag.yexp))


def test_a_dims_sweep_builds_each_live_slice_once(monkeypatch):
    """`cohomology dims` ranks each torus slice it needs once, on one module,
    and no slice that the Cartan homotopy proves acyclic: the needed slices
    of a cell (k, w) are those of C^k(w) that are zero or hold a k-tuple
    with an over-cutoff pair, for d_k and d_{k-1}; found here by brute force
    over all k-subsets, with the torus weights read off the tags.  A slice
    absent from C^k(w) adds 0 and is not needed."""
    ranked = Counter()
    rank = cohomology._slice_ranks

    def counting(module, k, w, taus, source=None):
        # the slices ranked by this call: those not yet in the module's cache
        fresh = {tau for tau in taus if (k, w, tau) not in module._ranks}
        ranked.update((id(module), k, w, tau) for tau in fresh)
        return rank(module, k, w, taus, source)

    monkeypatch.setattr(cohomology, "_slice_ranks", counting)
    args = ["cohomology", "dims", "--algebra", "H", "--d", "1", "--N", "6"]
    assert cli.main(args + ["--degrees", "0,1,2,3"]) == 0
    h = tower.build_h(1, 6)
    needed, every_slice = set(), set()
    for k in range(4):
        live = {}
        for idx in combinations(range(h.dim), k):
            w = sum(h.weights[i] for i in idx)
            tau = (sum(_h_torus(h.tags[i])[0] for i in idx),)
            every_slice.add((k, w, tau))
            in_cutoff = all(h.in_cutoff_pair(a, b) for a, b in combinations(idx, 2))
            if tau == (0,) or not in_cutoff:
                live.setdefault(w, set()).add(tau)
        for w, taus in live.items():
            needed.update((j, w, tau) for tau in taus for j in {k, k - 1} - {-1})
    assert len({module for module, *_ in ranked}) == 1
    assert {key[1:] for key in ranked} == needed
    assert set(ranked.values()) == {1}
    # the sweep met slices of both kinds: skipped ones, and live ones off 0
    assert any(tau != (0,) for _, _, tau in needed)
    assert {(k, w, tau) for k, w, tau in every_slice if k < 3} - needed


def test_a_dims_cell_enumerates_blocks_not_slices(monkeypatch):
    """One `cohomology_dim` call enumerates each block it reads once, for
    every torus slice together: C^k(w), C^{k-1}(w), and the in-cutoff parts
    of C^k(w) and C^{k+1}(w), each one enumerator call per module weight."""
    calls = 0
    enumerate_tuples = cohomology._tuples_in_range

    def counting(*args):
        nonlocal calls
        calls += 1
        return enumerate_tuples(*args)

    monkeypatch.setattr(cohomology, "_tuples_in_range", counting)
    two_weights, _ = ORACLE_MODULES["W(1,3)-two-weights"]
    for module in (trivial_module(tower.build_h(2, 4)), two_weights):
        most = 0
        for k in range(3):
            for w in cohomology.tuple_weights(module.algebra.weights, k):
                calls = 0
                cohomology_dim(module, k, w)
                most = max(most, calls)
        assert 0 < most <= 4 * len(set(module.weights)), module.name


def reference_ce_differential(cochain, module):
    """The CE differential over every (k+1)-tuple of the algebra, excluding
    a tuple with an over-cutoff pair when its total weight could meet the
    cochain's support."""
    g = module.algebra
    k = cochain.degree
    reachable = {s + mw for s in cochain.support_weights() for mw in module.weights}
    slots = list(combinations(range(k + 1), 2))
    values, excluded = {}, 0
    for idx in combinations(range(g.dim), k + 1):
        in_cutoff = [g.in_cutoff_pair(idx[a], idx[b]) for a, b in slots]
        if not all(in_cutoff) and sum(g.weights[i] for i in idx) in reachable:
            excluded += 1
            continue
        pairs = []
        for a in range(k + 1):
            inner = cochain.value(idx[:a] + idx[a + 1 :])
            for m, c in module.act(idx[a], inner).items():
                pairs.append((m, c * (-1) ** a))
        for (a, b), ok in zip(slots, in_cutoff):
            if not ok:
                continue
            rest = [v for t, v in enumerate(idx) if t != a and t != b]
            for comp, c in g.bracket(idx[a], idx[b]).items():
                if comp in rest:
                    continue
                target = sorted(rest + [comp])
                parity = (-1) ** target.index(comp)
                for m, e in cochain.value(tuple(target)).items():
                    pairs.append((m, e * c * parity * (-1) ** (a + b)))
        acc = accumulate(pairs)
        if acc:
            values[idx] = acc
    return values, excluded


def _adjoint(algebra):
    return cohomology.LieModule(
        algebra,
        "adjoint",
        algebra.labels,
        algebra.weights,
        {
            (i, m): algebra.bracket_vec({i: Fraction(1)}, {m: Fraction(1)})
            for i in range(algebra.dim)
            for m in range(algebra.dim)
            if algebra.in_cutoff_pair(min(i, m), max(i, m))
        },
        max(algebra.weights),
    )


def _random_cochain(module, k, rng, weights):
    """Up to 12 basis cochains of degree k at the given weights, with
    small Fraction values."""
    basis = [key for w in weights for key in cochain_block_basis(module, k, w)]
    values = {}
    for idx, m in rng.sample(basis, min(12, len(basis))):
        value = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
        values.setdefault(idx, {})[m] = value
    return Cochain(module, k, values)


# (module, whether some tuple of it has an over-cutoff bracket pair)
ORACLE_MODULES = {
    "H(1,5)-trivial": (trivial_module(tower.build_h(1, 5)), True),
    "W(1,3)-two-weights": (trivial_module(tower.build_w(1, 3), ("a", "b"), (0, 2)), True),
    "sp(2)-adjoint": (_adjoint(tower.sp_algebra(1)), False),
    "H(1,3)-adjoint": (_adjoint(tower.build_h(1, 3)), True),
}


class TestDifferentialOracle:
    """`ce_differential` visits only the tuples of reachable total weight;
    the full sweep over every tuple must give the same values, in the same
    order, and the same excluded count."""

    def _check(self, cochain, module):
        got = ce_differential(cochain)
        values, excluded = reference_ce_differential(cochain, module)
        assert list(got.values.items()) == list(values.items())
        assert got.excluded == excluded
        return got

    def test_classes(self):
        for cls in (omega_class(1, 4), omega_class(2, 4)):
            self._check(cls.representative, cls.representative.module)
        obs = tower.tower_obstruction(1, 1, 6)
        got = self._check(obs.cochain, obs.module)
        assert got.is_zero() and got.excluded > 0

    @pytest.mark.parametrize(
        "module,overflows", list(ORACLE_MODULES.values()), ids=list(ORACLE_MODULES)
    )
    def test_random_cochains(self, module, overflows):
        rng = random.Random(module.algebra.name)
        totals = sorted(set(module.algebra.weights))
        excluded = 0
        for k in range(3):
            for _ in range(6):
                weights = rng.sample(totals, min(2, len(totals)))
                got = self._check(_random_cochain(module, k, rng, weights), module)
                excluded += got.excluded
        self._check(Cochain(module, 1), module)
        assert (excluded > 0) == overflows

    @pytest.mark.parametrize(
        "module,overflows", list(ORACLE_MODULES.values()), ids=list(ORACLE_MODULES)
    )
    def test_block_columns(self, module, overflows):
        """Each column of `block_rows` is the full sweep's differential of its
        unit cochain, and each block excludes what the sweep excludes.  A
        seeded sample of up to four columns per (k, w) block, k = 0..2."""
        rng = random.Random(module.algebra.name)
        columns, excluded = 0, 0
        for k in range(3):
            totals = cohomology.tuple_weights(module.algebra.weights, k)
            for w in sorted({t - wm for t in totals for wm in module.weights}):
                rows, src, tgt, block_excluded = block_rows(module, k, w)
                for c in sorted(rng.sample(range(len(src)), min(4, len(src)))):
                    idx, m = src[c]
                    unit = Cochain(module, k, {idx: {m: Fraction(1)}})
                    values, sweep_excluded = reference_ce_differential(unit, module)
                    assert _column(rows, tgt, c) == values, (k, w, src[c])
                    assert block_excluded == sweep_excluded, (k, w, src[c])
                    columns += 1
                    excluded += block_excluded
        assert columns > 0 and (excluded > 0) == overflows


def _column(rows, tgt, c):
    """Column c of sparse block rows, as cochain values on the target basis."""
    column = {}
    for (target, m_out), row in zip(tgt, rows):
        if c in row:
            column.setdefault(target, {})[m_out] = row[c]
    return column


class TestOneFormula:
    """The CE formula of a target tuple is written once, in `_ce_terms`;
    the cochain differential and the block rows both read it."""

    def test_both_consumers_read_the_one_generator(self):
        for consumer in (cohomology.ce_differential, cohomology._rows):
            source = inspect.getsource(consumer)
            assert "_ce_terms(" in source, consumer.__name__
            for call in (".bracket(", "in_cutoff_pair(", "bisect_left("):
                assert call not in source, (consumer.__name__, call)
        assert not hasattr(cohomology, "_insert_sorted")

    def test_a_wrong_bracket_sign_shows_in_both_consumers(self, monkeypatch):
        module, _ = ORACLE_MODULES["H(1,5)-trivial"]
        w, c = 0, 0
        idx, m = cochain_block_basis(module, 1, w)[c]
        unit = Cochain(module, 1, {idx: {m: Fraction(1)}})
        values, _ = reference_ce_differential(unit, module)
        # not a cocycle: on a trivial module, flipping every bracket sign
        # keeps a cocycle a cocycle, and the fault would not show
        assert values

        def both():
            rows, _, tgt, _ = block_rows(module, 1, w)
            return ce_differential(unit).values, _column(rows, tgt, c)

        assert both() == (values, values)
        terms_of = cohomology._ce_terms

        def flipped(g, idx):
            for source, acting, sign, coefficient in terms_of(g, idx):
                yield source, acting, sign if acting is not None else -sign, coefficient

        monkeypatch.setattr(cohomology, "_ce_terms", flipped)
        differential, column = both()
        assert differential != values and column != values


class TestObstructionFault:
    """`tower_obstruction` refuses a defect that is not a cocycle, so neither
    the suite nor the CLI needs to take its differential again."""

    @pytest.fixture
    def perturbed(self, monkeypatch):
        defect_of = cohomology.extension_defect_cochain

        def perturbed_defect(e):
            # the last pair: a change on the first, of degree-1 symbols,
            # would add a multiple of the omega cocycle and stay a cocycle
            raw = defect_of(e)
            pair = next(reversed(raw))
            m = next(iter(raw[pair]))
            raw[pair] = {**raw[pair], m: raw[pair][m] + 1}
            return raw

        monkeypatch.setattr(cohomology, "extension_defect_cochain", perturbed_defect)

    def test_suite_check_fails(self, perturbed):
        report = Report("verify cohomology", {})
        suites.cohomology_suite(report, 1, 1, 6)
        check = next(c for c in report.checks if c.name == "cohomology-obstruction")
        assert not check.passed
        assert "is not a cocycle" in check.detail
        assert set(check.witness) == {"triple", "value"}

    def test_cli_exits_nonzero(self, perturbed, capsys):
        args = ["cohomology", "class", "--which", "obstruction"]
        assert cli.main(args + ["--d", "1", "--p", "1", "--N", "6"]) == 1
        assert "is not a cocycle" in capsys.readouterr().err

    def test_cli_reports_a_cocycle_unperturbed(self, capsys):
        args = ["cohomology", "class", "--which", "obstruction"]
        assert cli.main(args + ["--d", "1", "--p", "1", "--N", "6"]) == 0
        assert '"cocycle": true' in capsys.readouterr().out


def _full_route_dims(module, degrees):
    """Every cell (k, w) of `degrees` by rank-nullity on the full sparse
    blocks of `block_rows`, and the number of cells with excluded tuples."""
    ranks = {}

    def block(k, w):
        if (k, w) not in ranks:
            rows, src, _, excluded = block_rows(module, k, w)
            ranks[(k, w)] = len(src), linalg.rank_rows(rows, len(src)), excluded
        return ranks[(k, w)]

    dims, unclean = {}, 0
    for k in degrees:
        totals = cohomology.tuple_weights(module.algebra.weights, k)
        for w in sorted({t - wm for t in totals for wm in module.weights}):
            dim_ck, rank_k, excluded = block(k, w)
            prev = block(k - 1, w) if k else (0, 0, 0)
            dims[(k, w)] = dim_ck - rank_k - prev[1]
            unclean += bool(excluded or prev[2])
    return dims, unclean


class TestTorusRoute:
    """`cohomology_dim` ranks only the live torus slices; on every cell, the
    unclean ones included, it must equal rank-nullity on the full blocks."""

    @pytest.mark.parametrize(
        "build,degrees",
        [(lambda: tower.build_h(1, 8), 4), (lambda: tower.build_w(2, 3), 3)],
        ids=["H(1,8)", "W(2,3)"],
    )
    def test_every_cell(self, build, degrees):
        module = trivial_module(build())
        full, unclean = _full_route_dims(module, range(degrees))
        assert {cell: cohomology_dim(module, *cell) for cell in full} == full
        assert unclean > 0 and len(cohomology._torus(module)[0][0]) > 0

    @pytest.mark.parametrize(
        "module,overflows", list(ORACLE_MODULES.values()), ids=list(ORACLE_MODULES)
    )
    def test_oracle_modules(self, module, overflows):
        full, unclean = _full_route_dims(module, range(3))
        assert (unclean > 0) == overflows
        if module is ORACLE_MODULES["H(1,3)-adjoint"][0]:
            # not a representation (see TestTorusReading): every cell refused
            for cell in full:
                with pytest.raises(UsageError, match="not a representation"):
                    cohomology_dim(module, *cell)
            return
        assert {cell: cohomology_dim(module, *cell) for cell in full} == full


def _shift_x1y1_x1_to_y1(h):
    """H with a y1 term added to [x1*y1, x1], so ad(x1*y1) is not diagonal."""
    return h.with_corrupted_bracket(h.index("x1*y1"), h.index("x1"), h.index("y1"), 1)


def _torus_columns(algebra, module=None):
    """The torus weights found on `algebra` (and on `module`): one column per
    torus element, the algebra's columns sorted."""
    lams, mus = cohomology._torus(module or trivial_module(algebra))
    return sorted(zip(*lams)), list(zip(*mus))


class TestTorusReading:
    """The torus is read off the bracket table: the weight-0 basis elements
    whose ad is diagonal, exactly, and that act diagonally on the module."""

    @pytest.mark.parametrize(
        "algebra", [tower.build_h(1, 5), tower.build_h(2, 4), tower.sp_algebra(2)],
        ids=lambda a: a.name,
    )
    def test_hamiltonian_and_sp_find_the_xi_yi(self, algebra):
        columns, module_columns = _torus_columns(algebra)
        d = len(algebra.tags[0].xexp)
        expected = sorted(zip(*(_h_torus(tag) for tag in algebra.tags)))
        assert columns == expected and len(columns) == d
        assert module_columns == [(0,)] * d
        assert all(type(c) is int for column in columns for c in column)

    def test_witt_finds_the_xi_dxi_and_yi_dyi(self):
        w = tower.build_w(2, 3)
        columns, _ = _torus_columns(w)
        # coordinate c of f d_v: the exponent of c in f, less 1 if v is c
        expected = sorted(
            tuple((m.xexp + m.yexp)[c] - (v == c) for v, m in w.tags)
            for c in range(4)
        )
        assert columns == expected

    def test_abelian_finds_none(self):
        assert _torus_columns(abelian(weights=(0, 0, 1, -1))) == ([], [])

    def test_the_torus_must_act_diagonally_on_the_module(self):
        sp = tower.sp_algebra(1)
        module, _ = ORACLE_MODULES["sp(2)-adjoint"]
        columns, module_columns = _torus_columns(sp, module)
        assert columns == [(-2, 0, 2)] or columns == [(2, 0, -2)]
        assert module_columns == columns  # rho(t) is ad t
        # the same representation in the basis (e0 + e2, e1, e2): e0 and e2
        # have different torus weights, so rho(t) moves e0 + e2 off its line
        to_e = [{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
        from_e = [{0: 1, 2: -1}, {1: 1}, {2: 1}]
        action = {}
        for i in range(sp.dim):
            for m, vec in enumerate(to_e):
                image = module.act(i, vec)
                mixed = accumulate(
                    (u, c * b) for e, c in image.items() for u, b in from_e[e].items()
                )
                if mixed:
                    action[(i, m)] = mixed
        mixing = cohomology.LieModule(
            sp, "mixing", ("e0+e2", "e1", "e2"), module.weights, action, module.cutoff
        )
        mixing.verify_representation()
        assert _torus_columns(sp, mixing) == ([], [])

    def test_a_truncated_action_reads_none(self):
        # ad of H(1,3) cut at its top weight fails to represent the bracket
        # where a negative weight brings an over-cutoff action back: d^2 != 0
        # there, which the full blocks show as negative "dimensions".  Every
        # stored action component keeps torus weight, so the torus reads as
        # on the algebra; cohomology_dim reads no cell of it, and refuses the
        # module naming the first failing (pair, vector)
        module, _ = ORACLE_MODULES["H(1,3)-adjoint"]
        columns = _torus_columns(module.algebra)[0]
        assert len(columns) == 1  # x1*y1, trivially
        assert _torus_columns(module.algebra, module) == (columns, columns)
        for k in range(3):
            with pytest.raises(UsageError) as refusal:
                cohomology_dim(module, k, 0)
            assert str(refusal.value) == (
                "adjoint: not a representation on (y1, y1^3, x1^2*y1)"
            )
        full, _ = _full_route_dims(module, range(3))
        assert min(full.values()) < 0

    def test_a_bracket_off_torus_weight_drops_the_element(self):
        # [x1, y1^3] = 3 y1^2 given an x1^2 component: ad(x1*y1) stays
        # diagonal, but x1^2 has torus weight -2, not -1 + 3, so a row of the
        # differential would leave its slice
        h = tower.build_h(1, 5)
        bad = h.with_corrupted_bracket(h.index("x1"), h.index("y1^3"), h.index("x1^2"), 1)
        assert len(_torus_columns(h)[0]) == 1
        assert _torus_columns(bad) == ([], [])

    def test_an_action_off_torus_weight_drops_the_element(self):
        # rho(e0) e1 given an extra e1 component: rho(t) stays diagonal, but
        # e1 has torus weight 0, not that of e0, so a row of the differential
        # would leave its slice, and t = e1 is no torus element
        sp = tower.sp_algebra(1)
        module, _ = ORACLE_MODULES["sp(2)-adjoint"]
        assert len(_torus_columns(sp, module)[0]) == 1
        action = dict(module.action)
        action[(0, 1)] = {**action[(0, 1)], 1: Fraction(1)}
        off = cohomology.LieModule(
            sp, "off", module.labels, module.weights, action, module.cutoff
        )
        assert _torus_columns(sp, off) == ([], [])

    def test_the_tower_v_module_is_refused(self):
        # verify_representation exempts the vectors above cutoff - max(w_i,
        # w_j, w_i + w_j) and passes V(d=1,p=1); cohomology_dim exempts none
        module = tower.tower_obstruction(1, 1, 6).module
        assert module.verify_representation() > 0
        with pytest.raises(UsageError) as refusal:
            cohomology_dim(module, 2, 0)
        assert str(refusal.value) == (
            "V(d=1,p=1): not a representation on "
            "(h^-1*y1, h^-1*y1^3, h^-1*x1^2*h^2)"
        )

    def test_a_corrupted_torus_element_is_dropped(self):
        # x2*y2 is the torus left
        bad = _shift_x1y1_x1_to_y1(tower.build_h(2, 4))
        x2y2 = tuple(m.yexp[1] - m.xexp[1] for m in bad.tags)
        assert _torus_columns(bad)[0] == [x2y2]

    def test_a_corrupted_torus_leaves_the_dense_dims(self):
        # x1*y1 is the only torus element of H(1,6): dropped, it leaves the
        # one slice (), and every cell must match the dense route
        bad = _shift_x1y1_x1_to_y1(tower.build_h(1, 6))
        assert _torus_columns(bad) == ([], [])
        TestCellOracle().test_every_cell(lambda: bad)


def test_slices_are_the_one_block_enumerator():
    """In src, only `_slices` and `ce_differential` enumerate tuples, so
    every block consumer reads the torus slices; the sorted full-block
    route is gone, and `_torus` only reads the torus: it refuses nothing."""
    callers = set()
    for path in SRC.glob("*.py"):
        text = path.read_text()
        for name in ("_block_rows", "cochain_block_basis", "_block_pairs"):
            assert name not in text, (path.name, name)
        for fn in ast.walk(ast.parse(text)):
            if isinstance(fn, ast.FunctionDef):
                callers.update(
                    (path.name, fn.name)
                    for node in ast.walk(fn)
                    if isinstance(node, ast.Call)
                    and "_tuples_in_range"
                    in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
                )
    assert callers == {("cohomology.py", "_slices"), ("cohomology.py", "ce_differential")}
    torus = ast.parse(inspect.getsource(cohomology._torus))
    assert not any(isinstance(node, ast.Raise) for node in ast.walk(torus))
