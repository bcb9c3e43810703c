"""Lie tower: level builders, quotient ladder, splittings, obstruction data."""

import dataclasses
from fractions import Fraction
from functools import partial
from math import comb
from operator import setitem

import pytest

from formaldisc import cohomology, liealg, linalg, tower
from formaldisc.errors import CheckFailure, InternalError, UsageError
from formaldisc.liealg import ExtensionData, GradedLieAlgebra, LieMap, LinearMap
from formaldisc.series import Monomial, TruncatedPoly, all_monomials
from formaldisc.sparse import accumulate
from formaldisc.weyl import TruncationSpec, WeylElement, commutator
from test_linalg import dense_map_block
from test_weyl import d1_from_function, d1_from_weyl, d1_to_weyl


def almost_inner_action(level, vec, u):
    """The derivation attached to a level element, applied to u: [rep, u]/h.

    The commutator is taken one h-order and two weights deeper, so the
    division by h is exact at u's truncation.
    """
    spec = u.spec
    deep = TruncationSpec(spec.d, spec.h_order + 1, spec.cutoff + 2)
    rep = WeylElement(deep, {level.tags[i]: c for i, c in vec.items()})
    comm = commutator(rep, u.respec(deep))
    terms = {}
    for mono, coeff in comm.terms.items():
        if mono.hexp < 1:
            raise InternalError("almost-inner commutator not divisible by h")
        lowered = Monomial(mono.xexp, mono.yexp, mono.hexp - 1)
        if lowered.hexp <= spec.h_order and lowered.weight <= spec.cutoff:
            terms[lowered] = coeff
    return WeylElement(spec, terms)


def monomial_count(d, degree):
    # monomials of a given total degree in 2d variables
    return comb(degree + 2 * d - 1, 2 * d - 1)


def hamiltonian_map(d, n):
    """The injective map H -> W sending f to sum dx_i f d_y_i - dy_i f d_x_i."""
    h_alg = tower.build_h(d, n)
    w_alg = tower.build_w(d, n)
    w_index = {t: k for k, t in enumerate(w_alg.tags)}
    columns = {}
    for i, mono in enumerate(h_alg.tags):
        f = TruncatedPoly(d, n, {mono: Fraction(1)})
        columns[i] = accumulate(
            (w_index[(target, m)], sign * c)
            for axis in range(d)
            for source, target, sign in ((axis, d + axis, 1), (d + axis, axis, -1))
            for m, c in f.partial(source).terms.items()
        )
    return LieMap.build(h_alg, w_alg, columns, name="H->W")


def push_to_hamiltonian(obs):
    """Push an obstruction cocycle forward along V -> V/scalars."""
    sub = obs.extension.sub
    keep = [m for m, mono in enumerate(sub.tags) if not tower._is_scalar(mono)]
    pos = {m: r for r, m in enumerate(keep)}
    quotient_module = cohomology.LieModule(
        obs.module.algebra,
        obs.module.name + "/scalars",
        tuple(sub.labels[m] for m in keep),
        tuple(sub.weights[m] for m in keep),
        {
            (i, pos[m]): {pos[k]: c for k, c in vec.items() if k in pos}
            for (i, m), vec in obs.module.action.items()
            if m in pos
        },
        obs.module.cutoff,
    )
    values = {}
    for idx, vec in obs.cochain.values.items():
        pushed = {pos[m]: c for m, c in vec.items() if m in pos}
        if pushed:
            values[idx] = pushed
    return cohomology.Cochain(quotient_module, 2, values)


class TestBuilders:
    def test_w_weight_dimensions(self):
        d, n = 1, 6
        w_alg = tower.build_w(d, n)
        dims = w_alg.weight_dims()
        for weight in range(-1, n - 1):
            assert dims[weight] == 2 * d * monomial_count(d, weight + 1)

    def test_w_euler_fields_commute(self):
        w_alg = tower.build_w(1, 5)
        i = w_alg.labels.index("x1*d/dx1")
        j = w_alg.labels.index("y1*d/dy1")
        assert w_alg.bracket(i, j) == {}

    def test_h_bracket_example(self):
        h_alg = tower.build_h(1, 6)
        i = h_alg.index("x1^2")
        j = h_alg.index("y1^2")
        assert h_alg.bracket(i, j) == {h_alg.index("x1*y1"): Fraction(4)}

    def test_hamiltonian_map_injective_weightwise(self):
        hm = hamiltonian_map(1, 5)
        for w in set(hm.source.weights):
            block, src, _ = dense_map_block(hm, w)
            assert linalg.rank(block) == len(src)

    def test_dimension_zero_is_a_usage_error(self):
        with pytest.raises(UsageError, match="dimension must be >= 1"):
            tower.build_h(0, 5)
        with pytest.raises(UsageError, match="dimension must be >= 1"):
            all_monomials(0, 3)

    def test_levels_verify_jacobi(self):
        for algebra in (
            tower.build_g_level(1, 1, 5),
            tower.build_derd_level(1, 1, 5),
            tower.build_h(1, 5),
            tower.build_a_poisson(1, 5),
            tower.build_w(1, 4),
        ):
            algebra.verify_graded()
            algebra.verify_jacobi()

    def test_derd0_is_h(self):
        d, n = 1, 6
        derd0 = tower.build_derd_level(d, 0, n)
        h_alg = tower.build_h(d, n)
        # explicit graded isomorphism on aligned monomial bases
        iso = LieMap.build(
            h_alg,
            derd0,
            {
                i: {derd0.index(f"h^-1*{m}"): Fraction(1)}
                for i, m in enumerate(h_alg.tags)
            },
            name="H -> DerD_0",
        )
        assert derd0.weights == h_alg.weights

    def test_g_central_scalar_bracket(self):
        g1 = tower.build_g_level(1, 1, 6)
        i = g1.index("h^-1*x1")
        j = g1.index("h^-1*y1")
        assert g1.bracket(i, j) == {g1.index("h^-1*1"): Fraction(1)}

    def test_derd_tower_kernel_dimensions(self):
        d, p, n = 1, 1, 6
        col = tower.column_extension(d, p, n, "DerD")
        shift = 2 * (p + 1)
        h_dims = {}
        for m in all_monomials(d, n - shift, min_degree=1):
            w = m.weight + shift - 2
            h_dims[w] = h_dims.get(w, 0) + 1
        assert col.sub.weight_dims() == h_dims

    def test_adjoint_action_in_coordinates(self):
        # the derivation attached to h^-1 x1 sends y1 to [x1, y1]/h = 1
        derd1 = tower.build_derd_level(1, 1, 6)
        spec = TruncationSpec(1, 1, 6)
        u = WeylElement.generator("y1", spec)
        vec = {derd1.index("h^-1*x1"): Fraction(1)}
        image = almost_inner_action(derd1, vec, u)
        assert image == WeylElement.one(spec)


class TestTowerBundles:
    def test_derd_tower_shape(self):
        levels = [tower.build_derd_level(1, q, 5) for q in range(3)]
        quotients = [tower.column_extension(1, q, 5, "DerD").project for q in range(2)]
        for q, qmap in enumerate(quotients):
            assert qmap.source is levels[q + 1]
            assert qmap.target is levels[q]

    def test_g_tower_rows_validate(self):
        for q in range(2):
            row = tower.cent_row(1, q, 5)
            assert row.total is tower.build_g_level(1, q, 5)
            row.check_exact()
            row.check_sub_central()
            row.check_splitting()


class TestExactnessRefusals:
    """`ExtensionData.check_exact` on sequences that are not exact."""

    @staticmethod
    def _sequence(dims, inject, project):
        # abelian algebras at weight 0; maps as {source: target} on basis
        # elements, the splitting sends the quotient element to total 1
        sub, total, quotient = (
            GradedLieAlgebra(name, tuple(f"e{i}" for i in range(n)), (0,) * n, {}, 0)
            for name, n in zip(("sub", "total", "quotient"), dims)
        )

        def columns(pairs):
            return {i: {k: Fraction(1)} for i, k in pairs.items()}

        return ExtensionData(
            sub,
            total,
            quotient,
            LieMap(sub, total, columns(inject)),
            LieMap(total, quotient, columns(project)),
            LinearMap(quotient, total, {0: {1: Fraction(1)}}),
        )

    def test_not_surjective(self):
        e = tower.cent_row(1, 1, 6)
        dropped = next(i for i in range(e.total.dim) if e.project.column(i))
        w = e.total.weights[dropped]
        kept = [i for i in range(e.total.dim) if i != dropped]
        columns = {i: dict(e.project.column(i)) for i in kept}
        broken = dataclasses.replace(e, project=LieMap(e.total, e.quotient, columns))
        with pytest.raises(CheckFailure, match=f"not surjective at weight {w}") as info:
            broken.check_exact()
        dim = len(e.quotient.basis_indices_of_weight(w))
        assert info.value.witness == {"weight": w, "rank": dim - 1, "dim": dim}
        e.check_exact()

    def test_kernel_larger_than_image(self):
        # two columns on one quotient element: rank 1, not 2
        e = self._sequence((1, 3, 1), inject={0: 0}, project={1: 0, 2: 0})
        message = r"ker\(project\) != im\(inject\) at weight 0"
        with pytest.raises(CheckFailure, match=message) as info:
            e.check_exact()
        assert info.value.witness == {"weight": 0, "kernel_dim": 2, "image_dim": 1}

    def test_project_after_inject_nonzero(self):
        e = self._sequence((1, 2, 1), inject={0: 0}, project={0: 0, 1: 0})
        with pytest.raises(CheckFailure, match="project o inject nonzero on e0") as info:
            e.check_exact()
        assert info.value.witness == {"sub_index": 0}

    def test_an_exact_sequence_passes(self):
        self._sequence((1, 2, 1), inject={0: 0}, project={1: 0}).check_exact()


class TestExactInput:
    """The constructors that store vectors as given refuse an inexact
    value, which Jacobi and the maps' checks would misread."""

    def test_a_bracket_must_be_exact(self):
        with pytest.raises(UsageError, match=r"a: bracket \(0, 1\): not an exact"):
            GradedLieAlgebra("a", ("e0", "e1"), (0, 0), {(0, 1): {0: 0.5}}, 0)
        brackets = {(0, 1): {0: 1, 1: Fraction(1, 2)}}
        g = GradedLieAlgebra("a", ("e0", "e1"), (0, 0), brackets, 0)
        assert g.bracket(0, 1) == brackets[(0, 1)]

    def test_a_map_column_must_be_exact(self):
        g = GradedLieAlgebra("a", ("e0", "e1"), (0, 0), {}, 0)
        with pytest.raises(UsageError, match=r"map a: column 1: not an exact"):
            LinearMap(g, g, {0: {0: 1}, 1: {1: "1"}})
        half = {0: Fraction(1, 2)}
        assert LinearMap(g, g, {1: half}).column(1) == half


def _level_fields(algebra):
    """What a cached level holds: its basis, den and stored brackets."""
    return (algebra.labels, algebra.weights, algebra.den, dict(algebra.brackets))


class TestReadOnlyCache:
    def test_cached_vectors_cannot_be_changed(self):
        g = tower.build_g_level(1, 1, 5)
        inject = tower.cent_row(1, 1, 5).inject
        before = _level_fields(g), dict(inject.columns), inject.den
        (i, j), terms = next(iter(g.brackets.items()))
        k = terms[0][0]
        vec = g.bracket(i, j)
        # a read is a new vector: writing into it leaves the store alone
        g.bracket(i, j)[k] = Fraction(7)
        g.bracket(j, i).clear()
        g.bracket(i, i)[k] = Fraction(7)
        inject.column(0)[0] = Fraction(7)
        for store, key, value in (
            (g.brackets, (i, j), {}),
            (g.brackets[(i, j)], 0, (k, 7)),
            (inject.columns, 0, ()),
            (inject.columns[0], 0, (0, 7)),
        ):
            with pytest.raises(TypeError):
                setitem(store, key, value)
        assert tower.build_g_level(1, 1, 5) is g
        assert (_level_fields(g), dict(inject.columns), inject.den) == before
        assert g.bracket(i, j) == vec and k in vec

    def test_corrupted_copy_leaves_the_cache_alone(self):
        g = tower.build_g_level(1, 1, 5)
        before = _level_fields(g)
        (i, j), terms = next(iter(g.brackets.items()))
        k = terms[0][0]
        value = g.bracket(i, j)[k]
        bad = g.with_corrupted_bracket(i, j, k, Fraction(1, 2))
        assert bad.bracket(i, j)[k] == value + Fraction(1, 2)
        assert (g.den, bad.den) == (1, 2)
        assert g.bracket(i, j)[k] == value
        assert _level_fields(g) == before


class TestOneStore:
    """Structure constants are stored once, as ints over `den`."""

    def test_zero_coefficients_are_not_stored(self):
        # a zero coefficient leaves its pair, and a map its column, empty
        ab = GradedLieAlgebra(
            "ab", ("a", "b", "c"), (0, 0, 0), {(0, 1): {2: 0}}, 0, ("a", "b", "c")
        )
        assert not ab.brackets and ab.den == 1
        assert ab.bracket(0, 1) == ab.bracket(1, 0) == {}
        ab.verify_jacobi()
        lower = GradedLieAlgebra("lower", ("a", "b"), (0, 0), {}, 0, ("a", "b"))
        zero = LinearMap(ab, lower, {0: {0: Fraction(0)}, 1: {}, 2: {1: 0}})
        assert not zero.columns and zero.column(0) == {} and zero.apply({0: 1}) == {}
        f = LieMap.build(ab, lower, {0: {0: 1, 1: Fraction(0)}, 2: {1: Fraction(0)}})
        assert dict(f.columns) == {0: ((0, 1),)}
        e = ExtensionData(
            ab,
            ab,
            lower,
            LieMap.build(ab, ab, {i: {i: 1} for i in range(3)}),
            f,
            LinearMap(lower, ab, {0: {0: 1}}),
        )
        e.check_sub_abelian()
        assert tower._scalar_column_check(ab, lower) == (
            "trivial extension of trivial modules"
        )

    def test_sweeps_build_no_fraction(self, monkeypatch):
        g = tower.build_g_level(2, 1, 6)
        project = tower.cent_row(2, 1, 6).project
        assert project.source is g and g.den == project.den == 1
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        g.verify_jacobi()
        project.verify()
        monkeypatch.undo()
        assert made == []
        # the hook counts: a read of the store builds its Fractions
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        vec = g.bracket(*next(iter(g.brackets)))
        monkeypatch.undo()
        assert len(made) == len(vec) > 0


class TestCommuDiagram:
    @pytest.mark.parametrize("p", [1, 2])
    def test_all_checks_pass(self, p):
        report = tower.commu_diagram_check(1, p, 6)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == []

    def test_fault_injection_names_failure(self):
        report = tower.commu_diagram_check(1, 1, 6, corrupt=True)
        failed = [c for c in report.checks if not c.passed]
        assert failed, "corruption must be detected"
        assert all(c.witness is not None or c.detail for c in failed)


class TestLeviSplit:
    def test_sp2_structure_constants(self):
        derd = tower.build_derd_level(1, 2, 6)
        sp, _ = tower.sp_subalgebra(derd)
        e = sp.index("h^-1*x1^2")
        f = sp.index("h^-1*y1^2")
        hh = sp.index("h^-1*x1*y1")
        # standard table for {x^2, xy, y^2} under the Poisson bracket:
        # [x^2, y^2] = 4xy, [x^2, xy] = 2x^2, [y^2, xy] = -2y^2
        assert sp.bracket(e, f) == {hh: Fraction(4)}
        assert sp.bracket(e, hh) == {e: Fraction(2)}
        assert sp.bracket(f, hh) == {f: Fraction(-2)}

    def test_primitive_is_half_on_xy(self):
        section, sp, indices, cocycle, primitive = tower.levi_restriction_split(1, 2, 6)
        hh = sp.index("h^-1*x1*y1")
        # sp(2) has H^1 = 0, so the primitive is unique: 1/2 on the weight-0
        # scalar against x1*y1, zero elsewhere
        weight0_scalar = primitive.module.labels.index("h^-1*h")
        assert primitive.value((hh,)) == {weight0_scalar: Fraction(1, 2)}
        for a in range(sp.dim):
            if a != hh:
                assert primitive.value((a,)) == {}

    def test_section_is_right_inverse(self):
        section, sp, indices, _, _ = tower.levi_restriction_split(1, 1, 6)
        row = tower.cent_row(1, 1, 6)
        for a, i in enumerate(indices):
            assert row.project.apply(section.column(a)) == {i: Fraction(1)}

    def test_section_bracket_preserving(self):
        section, sp, _, _, _ = tower.levi_restriction_split(1, 1, 6)
        section.verify("levi section")  # raises on failure


class TestD1Semidirect:
    def test_projection_section_identity(self):
        d, n = 1, 6
        section = tower.d1_semidirect_split(d, n)
        proj = tower.column_extension(d, 0, n, "DerD").project
        for i in range(section.source.dim):
            assert proj.apply(section.column(i)) == {i: Fraction(1)}

    def test_section_bracket_preserving(self):
        tower.d1_semidirect_split(1, 6).verify("d1 section")

    def test_action_on_kernel_is_adjoint(self):
        # bracketing a section image against the kernel of DerD_1 -> DerD_0
        # acts as the Poisson bracket on the kernel's function labels
        d, n = 1, 6
        section = tower.d1_semidirect_split(d, n)
        derd1 = section.target
        col = tower.column_extension(d, 0, n, "DerD")
        h_alg = tower.build_h(d, n)
        for i, f_mono in enumerate(section.source.tags):
            f_poly = TruncatedPoly(d, n, {f_mono: Fraction(1)})
            for k, k_mono in enumerate(col.sub.tags):
                pair_weight = (f_mono.weight - 2) + (k_mono.weight - 2)
                if pair_weight > derd1.cutoff:
                    continue
                lhs = derd1.bracket_vec(
                    section.column(i), col.inject.column(k)
                )
                g_poly = TruncatedPoly(
                    d, n, {Monomial(k_mono.xexp, k_mono.yexp, 0): Fraction(1)}
                )
                from formaldisc.series import standard_poisson

                pb = standard_poisson(f_poly, g_poly)
                expected = {}
                for m, c in pb.terms.items():
                    lifted = Monomial(m.xexp, m.yexp, 1)
                    if lifted.weight <= n and (any(m.xexp) or any(m.yexp)):
                        expected[derd1.index(f"h^-1*{lifted}")] = c
                assert lhs == expected, (f_mono, k_mono)

    def test_section_action_matches_split_model(self):
        # transport of the almost-inner action of a section image to the
        # split model equals the h-linear Poisson action
        d, n = 1, 6
        section = tower.d1_semidirect_split(d, n)
        derd1 = section.target
        spec = TruncationSpec(d, 1, n)
        from formaldisc.series import standard_poisson

        for i, f_mono in enumerate(section.source.tags):
            f_poly = TruncatedPoly(d, n, {f_mono: Fraction(1)})
            for m in all_monomials(d, 4):
                u = d1_from_function(TruncatedPoly(d, n, {m: Fraction(1)}))
                acted = almost_inner_action(
                    derd1, section.column(i), d1_to_weyl(u, spec)
                )
                transported = d1_from_weyl(acted)
                expected_even = standard_poisson(f_poly, u.even)
                expected_odd = standard_poisson(f_poly, u.odd)
                residual_weight = f_mono.weight + m.weight - 2
                if residual_weight <= n - 2:
                    assert transported.even == expected_even
                    assert transported.odd == expected_odd


class TestObstruction:
    def test_cocycle_identity(self):
        obs = tower.tower_obstruction(1, 1, 6)
        assert cohomology.is_cocycle(obs.cochain)

    def test_module_is_representation(self):
        obs = tower.tower_obstruction(1, 1, 6)
        obs.module.verify_representation()

    def test_exempt_count_matches_brute_force(self):
        # over-cutoff pairs are counted in one step; the count is that of
        # the triple-by-triple sweep
        module = tower.tower_obstruction(1, 1, 6).module
        g, w, n = module.algebra, module.weights, module.cutoff
        brute = sum(
            not g.in_cutoff_pair(i, j)
            or g.weights[i] + w[m] > n
            or g.weights[j] + w[m] > n
            or g.weights[i] + g.weights[j] + w[m] > n
            for i in range(g.dim)
            for j in range(i + 1, g.dim)
            for m in range(module.dim)
        )
        over = sum(
            not g.in_cutoff_pair(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
        )
        assert over > 0
        assert module.verify_representation() == brute > over * module.dim

    def test_pushforward_to_hamiltonian_is_cocycle(self):
        obs = tower.tower_obstruction(1, 1, 6)
        pushed = push_to_hamiltonian(obs)
        assert not pushed.is_zero()
        assert cohomology.is_cocycle(pushed)

    def test_scalar_restriction_is_coboundary(self):
        obs = tower.tower_obstruction(1, 1, 6)
        sp_cochain, sp, _ = obs.scalar_restriction_to_sp()
        found, primitive = cohomology.is_coboundary(sp_cochain)
        assert found
        # and the primitive really bounds it
        assert cohomology.ce_differential(primitive) == sp_cochain

    def test_splitting_independence(self):
        # two sections differing by a weight-preserving linear map have
        # cohomologous cocycles, with the difference an exact coboundary
        from formaldisc.liealg import ExtensionData, LinearMap

        d, p, n = 1, 1, 6
        e = tower.v_extension(d, p, n)
        module = cohomology.module_from_extension(e, name="V")
        c1 = cohomology.extension_cocycle(e, module)

        quot, sub = e.quotient, e.sub
        lam = {}
        source_idx = quot.index("h^-1*x1^2")
        target_idx = sub.labels.index("h^-1*h")
        lam[source_idx] = {target_idx: Fraction(1)}
        perturbed_columns = {
            i: dict(e.splitting.column(i)) for i in range(quot.dim)
        }
        for i, vec in lam.items():
            for m, c in vec.items():
                img = e.inject.column(m)
                for k, v in img.items():
                    perturbed_columns[i][k] = perturbed_columns[i].get(k, Fraction(0)) + c * v
        e2 = ExtensionData(
            e.sub,
            e.total,
            e.quotient,
            e.inject,
            e.project,
            LinearMap(quot, e.total, perturbed_columns),
        )
        e2.check_splitting()
        c2 = cohomology.extension_cocycle(e2, module)

        difference = c2 - c1
        lam_cochain = cohomology.Cochain(module, 1, {(i,): v for i, v in lam.items()})
        assert cohomology.ce_differential(lam_cochain) == difference
        found, _ = cohomology.is_coboundary(difference)
        assert found


def _first_column_zeroed(columns):
    """A copy of map columns with the first nonzero column made zero."""
    columns = {i: dict(col) for i, col in columns.items()}
    first = next(i for i, col in columns.items() if col)
    return {**columns, first: {}}


def _aligned_columns_broken(original, *args, **kwargs):
    """Run a check with `aligned_columns` zeroing the first nonzero column."""

    def aligned(source, target):
        return _first_column_zeroed(liealg.aligned_columns(source, target))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tower, "aligned_columns", aligned)
        return original(*args, **kwargs)


def _derd_projection_broken(original, row_upper, row_lower, col_g, col_derd):
    """Run the project square with the DerD column's projection broken."""
    project = col_derd.project
    columns = _first_column_zeroed({i: project.column(i) for i in project.columns})
    broken = LinearMap(project.source, project.target, columns)
    col_derd = dataclasses.replace(col_derd, project=broken)
    return original(row_upper, row_lower, col_g, col_derd)


def _kernel_shrunk(constant):
    """Run one kernel-dimension check on its kernel less the last element."""

    def breaker(original, kernel, *args, include_constant):
        if include_constant == constant:
            kernel = kernel.restriction(kernel.name, tuple(range(kernel.dim - 1)))
        return original(kernel, *args, include_constant=include_constant)

    return breaker


LADDER_FAULTS = [
    ("col1-exact-and-trivial", "_scalar_column_check", _aligned_columns_broken),
    ("square-inject", "_square_inject_check", _aligned_columns_broken),
    ("square-project", "_square_project_check", _derd_projection_broken),
    ("row1-exact", "_row1_check", _aligned_columns_broken),
    ("col2-kernel-is-A", "_kernel_dims_check", _kernel_shrunk(True)),
    ("col3-kernel-is-H", "_kernel_dims_check", _kernel_shrunk(False)),
]


@pytest.mark.parametrize(
    "check,function,breaker", LADDER_FAULTS, ids=[case[0] for case in LADDER_FAULTS]
)
def test_a_broken_input_fails_its_ladder_check_alone(
    monkeypatch, check, function, breaker
):
    # the corrupted bracket of --inject-fault stops the ladder at the column
    # build, so these checks are made to fail one at a time instead
    names = [c.name for c in tower.commu_diagram_check(1, 1, 6).checks]
    assert check in names
    original = getattr(tower, function)
    monkeypatch.setattr(tower, function, partial(breaker, original))
    report = tower.commu_diagram_check(1, 1, 6)
    assert [c.name for c in report.checks] == names
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [check]
    assert failed[0].witness and "message" not in failed[0].witness
