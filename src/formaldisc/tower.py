"""The derivation and extension tower of the truncated Weyl algebra.

Every algebra of the tower is a basis of tags plus a bracket on tags.  It is
handed to `liealg.tabulate`, which reads the bracket on the in-cutoff basis
pairs, refuses components off the basis and verifies gradedness, or it is
read off an algebra already built by `GradedLieAlgebra.restriction`, which
reindexes the stored brackets with the same refusal and check:

- the level G_q = h^-1 D / h^q D has basis h^-1 m for the normal-ordered
  monomials m of h-order <= q, with [h^-1 a, h^-1 b] = h^-1([a, b]/h)
  taken by the closed-form Weyl commutator one h-order deeper, which sums
  only the contraction terms of the two orders (no star products), on
  lifts of the basis monomials made once into one truncation per level;
- G_q is G_{q+1} with its h-order q+1 part, an ideal by the h-filtration,
  dropped, so a ladder tabulates the Weyl commutators once, on its top
  level, and reads every lower level off the one above it;
- the derivation level DerD_q is G_q with its central scalars h^-1 k[h]
  dropped;
- H and A are the monomials (without and with the constant) under
  `series.monomial_poisson`, W the monomial vector fields under the
  closed-form field bracket through `series.derivative`, both tabulated
  from their int coefficients, and sp(2d) the quadratic symbols of a DerD
  level, a subalgebra read off it.

Each is built once per parameter set and cached.  Weights are monomial
weight minus 2 (minus 1 on W), so every map in the tower is
weight-preserving and every bracket is graded.  Every extension of the tower
is read off the basis tags by `liealg.aligned_extension`: the quotient
level's monomials are some of the total's, and the rest span the abelian
kernel.

Every produced map is checked bracket-preserving; the Jacobi sweeps run
inside `commu_diagram_check`, which assembles the two-level ladder of
extensions and checks its exactness, centrality, kernel identification and
square commutativity weight by weight.  Each sweep checks every in-cutoff
triple and visits no other, reporting the remaining C(dim, 3) - checked
triples as overflow-exempt.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology
from .errors import CheckFailure, UsageError
from .liealg import (
    ExtensionData,
    GradedLieAlgebra,
    LieMap,
    LinearMap,
    aligned_columns,
    aligned_extension,
    tabulate,
)
from .reports import Report
from .series import (
    Monomial,
    TruncatedPoly,
    _packed,
    all_monomials,
    coordinate_name,
    derivative,
    monomial_poisson,
)
from .sparse import accumulate
from .weyl import TruncationSpec, WeylElement, commutator, mixed_laplacian

_build_cache: dict = {}


def _cached(key, build):
    """The algebra cached under `key`, built by build() on its first request."""
    if key not in _build_cache:
        _build_cache[key] = build()
    return _build_cache[key]


def _is_scalar(m: Monomial) -> bool:
    return not any(m.xexp) and not any(m.yexp)


def level_monomials(d: int, h_max: int, n: int):
    """The monomials x^a y^b h^c with c <= h_max and weight <= n, sorted."""
    out = []
    for c in range(h_max + 1):
        if 2 * c > n:
            break
        for m in all_monomials(d, n - 2 * c):
            out.append(Monomial(m.xexp, m.yexp, c))
    out.sort(key=Monomial.sort_key)
    return out


def _transported_bracket(a: WeylElement, b: WeylElement):
    """[h^-1 a, h^-1 b] = h^-1([a, b]/h) as (monomial, coefficient) pairs for
    two lifts of one truncation, exact when it holds the whole commutator
    (see `build_g_level`): at h-order q+1 every term carries h."""
    return (
        (_packed((m.xexp, m.yexp, m.hexp - 1, m.weight - 2)), c)
        for m, c in commutator(a, b).terms.items()
    )


def _field_bracket(field1, field2):
    """[f d_u, g d_v] = f d_u(g) d_v - g d_v(f) d_u on monomials f, g."""
    (u, f), (v, g) = field1, field2
    e, g_u = derivative(g, u)
    if e:
        yield (v, f.mul(g_u)), e
    e, f_v = derivative(f, v)
    if e:
        yield (u, g.mul(f_v)), -e


def _quotient(algebra: GradedLieAlgebra, name: str, keep) -> GradedLieAlgebra:
    """`algebra` modulo the span of the tags `keep` rejects, which must be an
    ideal: its components are dropped from the brackets of the kept tags."""
    indices = [k for k, tag in enumerate(algebra.tags) if keep(tag)]
    return algebra.restriction(
        name, indices, {tag for tag in algebra.tags if not keep(tag)}
    )


def build_g_level(d: int, q: int, n: int) -> GradedLieAlgebra:
    """The level-q central-extension algebra: h^-1 D mod h^q D, truncated.

    The indexing is pinned by two requirements: the scalar subalgebra of
    level q is k[h]/h^(q+1) (spanned by h^-1 h^c, c <= q), and the kernel of
    the quotient to level q-1 is a shifted copy of the function space.  Both
    are verified by commu_diagram_check.

    When G_{q+1} is cached, G_q is read off it by dropping its h-order q+1
    part; otherwise the Weyl commutators are tabulated.  Each basis monomial
    is then lifted once into D / h^(q+2) D at weight n + 2: an in-cutoff
    pair has (w1 - 2) + (w2 - 2) <= n - 2, so its commutator, of weight
    w1 + w2, is never cut.
    """
    name = f"G_{q}(d={d},N={n})"

    def build():
        upper = _build_cache.get(("G", d, q + 1, n))
        if upper is not None:
            return _quotient(upper, name, lambda m: m.hexp <= q)
        monos = level_monomials(d, q, n)
        spec = TruncationSpec(d, q + 1, n + 2)
        lifts = {m: WeylElement._trusted(spec, {m: Fraction(1)}) for m in monos}
        return tabulate(
            name,
            monos,
            tuple(f"h^-1*{m}" for m in monos),
            tuple(m.weight - 2 for m in monos),
            n - 2,
            lambda m1, m2: _transported_bracket(lifts[m1], lifts[m2]),
        )

    return _cached(("G", d, q, n), build)


def build_derd_level(d: int, q: int, n: int) -> GradedLieAlgebra:
    """The level-q derivation algebra: the cached G_q modulo its scalars."""
    return _cached(
        ("DerD", d, q, n), lambda: _derd_from_g(build_g_level(d, q, n), d, q, n)
    )


def _derd_from_g(g: GradedLieAlgebra, d: int, q: int, n: int) -> GradedLieAlgebra:
    """Quotient a (possibly corrupted) G level by its scalar line.

    The scalars are central, so the quotient basis is the non-scalar
    monomials in their G order, and its brackets are G's with the scalar
    components dropped.
    """
    return _quotient(g, f"DerD_{q}(d={d},N={n})", lambda m: not _is_scalar(m))


def build_h(d: int, n: int) -> GradedLieAlgebra:
    """Hamiltonian fields as functions modulo constants under Poisson bracket."""
    return _cached(("H", d, n), lambda: _poisson_algebra(f"H(d={d},N={n})", d, n, 1))


def build_a_poisson(d: int, n: int) -> GradedLieAlgebra:
    """Functions on the disc under the Poisson bracket, constants included."""
    return _cached(("A", d, n), lambda: _poisson_algebra(f"A(d={d},N={n})", d, n, 0))


def _poisson_algebra(name: str, d: int, n: int, min_degree: int) -> GradedLieAlgebra:
    """Monomials of degree >= min_degree under the Poisson bracket.

    Bracket components of lower degree are dropped: with min_degree 1 these
    are the constants, so the result is the quotient by constants.
    """
    monos = sorted(all_monomials(d, n, min_degree=min_degree), key=Monomial.sort_key)
    return tabulate(
        name,
        monos,
        tuple(str(m) for m in monos),
        tuple(m.weight - 2 for m in monos),
        n - 2,
        lambda m1, m2: (
            (m, c) for m, c in monomial_poisson(m1, m2) if m.weight >= min_degree
        ),
    )


def build_w(d: int, n: int) -> GradedLieAlgebra:
    """All vector fields sum f_v d_v with polynomial coefficients."""
    return _cached(("W", d, n), lambda: _vector_fields(d, n))


def _vector_fields(d: int, n: int) -> GradedLieAlgebra:
    basis = sorted(
        ((v, m) for m in all_monomials(d, n) for v in range(2 * d)),
        key=lambda t: (t[1].weight, t[0], t[1].sort_key()),
    )
    return tabulate(
        f"W(d={d},N={n})",
        basis,
        tuple(
            f"d/d{coordinate_name(v, d)}"
            if _is_scalar(m)
            else f"{m}*d/d{coordinate_name(v, d)}"
            for v, m in basis
        ),
        tuple(m.weight - 1 for v, m in basis),
        n - 1,
        _field_bracket,
    )


# ---------------------------------------------------------------------------
# the extensions of the tower
# ---------------------------------------------------------------------------


def cent_row(
    d: int, q: int, n: int, total: GradedLieAlgebra | None = None
) -> ExtensionData:
    """0 -> k[h]/h^(q+1) -> G_q -> DerD_q -> 0 with the monomial splitting.

    `total` stands in for the cached G_q (a corrupted copy, say); the
    quotient is then read off it instead of the cached DerD_q.
    """
    if total is None:
        total, derd = build_g_level(d, q, n), build_derd_level(d, q, n)
    else:
        derd = _derd_from_g(total, d, q, n)
    return aligned_extension(total, derd, f"k[h]/h^{q + 1}")


def column_extension(
    d: int, q: int, n: int, kind: str, upper: GradedLieAlgebra | None = None
) -> ExtensionData:
    """0 -> ker -> level_{q+1} -> level_q -> 0 for the G or DerD column.

    The kernel is the h-order q+1 part of the upper level: h^q A for the G
    column, h^q H for the DerD one.  `upper` stands in for the cached level
    q+1 (a corrupted copy, say).
    """
    build = build_g_level if kind == "G" else build_derd_level
    lower = build(d, q, n)
    if upper is None:
        upper = build(d, q + 1, n)
    ker = f"h^{q}*{'A' if kind == 'G' else 'H'}(d={d},N={n})"
    return aligned_extension(upper, lower, ker)


def v_extension(d: int, p: int, n: int) -> ExtensionData:
    """0 -> V -> G_{p+1} -> DerD_p -> 0, the one-step obstruction extension.

    V is the kernel: all scalars h^-1 k[h]/h^(p+2) together with the
    non-scalar h-order p+1 monomials (the h^p A part glued along h^p k).
    """
    return aligned_extension(
        build_g_level(d, p + 1, n), build_derd_level(d, p, n), f"V(d={d},p={p},N={n})"
    )


# ---------------------------------------------------------------------------
# the commutative-ladder check
# ---------------------------------------------------------------------------


def _check_two_level_domain(what: str, d: int, p: int, n: int):
    """Levels p and p+1 need d >= 1, p >= 0 and room at N for h^(p+1)."""
    if d < 1 or p < 0 or n < 2 * (p + 1):
        raise UsageError(
            f"{what} needs d >= 1, p >= 0 and N >= 2(p+1); got d={d}, p={p}, N={n}"
        )


def commu_diagram_check(d: int, p: int, n: int, corrupt: bool = False) -> Report:
    """Verify the two-level ladder of extensions at levels p and p+1.

    Checks, weight by weight and with exact arithmetic: exactness and
    centrality of both extension rows, exactness of the G and DerD columns,
    triviality of the scalar column, commutativity of all squares, Jacobi on
    every level, and the identification of the column kernels with functions
    (for G) and Hamiltonian fields (for DerD), shifted by h^(p+1).

    With corrupt=True one structure constant of the upper level is shifted
    first, to demonstrate that failures carry a named witness.

    Raises UsageError unless d >= 1, p >= 0 and N >= 2(p+1): below that
    cutoff the upper level has no room for its top scalar h^(p+1).
    """
    _check_two_level_domain("tower check", d, p, n)
    report = Report("tower check", {"d": d, "p": p, "N": n, "corrupt": corrupt})

    g_upper = build_g_level(d, p + 1, n)
    if corrupt:
        i, j = next(iter(g_upper.brackets))
        k = g_upper.basis_indices_of_weight(g_upper.weights[i] + g_upper.weights[j])[0]
        g_upper = g_upper.with_corrupted_bracket(i, j, k, 1)

    try:
        rows = {
            p: cent_row(d, p, n),
            p + 1: cent_row(d, p + 1, n, g_upper if corrupt else None),
        }
    except CheckFailure as exc:
        report.add("row-extension-build", False, witness=exc.witness, detail=str(exc))
        return report.finish()

    report.run("row2-jacobi", _jacobi_detail, g_upper)
    report.run("row3-jacobi", _jacobi_detail, rows[p].total)
    report.run("row2-exact", rows[p + 1].check_exact)
    report.run("row2-central", rows[p + 1].check_sub_central)
    report.run("row3-exact", rows[p].check_exact)
    report.run("row3-central", rows[p].check_sub_central)

    # columns
    try:
        col_g = column_extension(d, p, n, "G", g_upper)
        col_derd = column_extension(d, p, n, "DerD")
    except CheckFailure as exc:
        report.add("column-build", False, witness=exc.witness, detail=str(exc))
        return report.finish()

    report.run("col2-exact", col_g.check_exact)
    report.run("col2-kernel-abelian", col_g.check_sub_abelian)
    report.run("col3-exact", col_derd.check_exact)
    report.run(
        "col2-kernel-is-A",
        _kernel_dims_check,
        col_g.sub,
        d,
        p,
        n,
        include_constant=True,
    )
    report.run(
        "col3-kernel-is-H",
        _kernel_dims_check,
        col_derd.sub,
        d,
        p,
        n,
        include_constant=False,
    )

    # scalar column: 0 -> h^p k -> k[h]/h^(p+2) -> k[h]/h^(p+1) -> 0
    report.run(
        "col1-exact-and-trivial", _scalar_column_check, rows[p + 1].sub, rows[p].sub
    )

    # squares
    report.run(
        "square-inject",
        _square_inject_check,
        rows[p + 1],
        rows[p],
        col_g,
    )
    report.run(
        "square-project",
        _square_project_check,
        rows[p + 1],
        rows[p],
        col_g,
        col_derd,
    )
    report.run("row1-exact", _row1_check, col_g, col_derd, rows[p + 1])
    return report.finish()


def _jacobi_detail(algebra):
    exempt = algebra.verify_jacobi()
    return f"{algebra.name}: jacobi ok, {exempt} overflow-exempt triples"


def _kernel_dims_check(kernel, d, p, n, include_constant):
    """Kernel of a column matches functions (or functions mod constants)
    weight-by-weight, shifted by the h^(p+1) twist."""
    dims = kernel.weight_dims()
    shift = 2 * (p + 1)
    expected = Counter(
        m.weight + shift - 2
        for m in all_monomials(d, n - shift, min_degree=0 if include_constant else 1)
    )
    if dims != expected:
        raise CheckFailure(
            "kernel dimensions do not match the twisted function space",
            witness={"kernel": dims, "expected": expected},
        )
    return f"weights {sorted(dims)} match"


def _scalar_column_check(upper, lower):
    """0 -> h^p k -> k[h]/h^(p+2) -> k[h]/h^(p+1) -> 0 on the rows' scalar subs."""
    if upper.brackets or lower.brackets:
        raise CheckFailure("scalar algebras must be abelian")
    # the quotient map is aligned on tags; its kernel is the top scalar line
    proj = LieMap.build(
        upper, lower, aligned_columns(upper, lower), name="k[h] truncation"
    )
    top = [i for i in range(upper.dim) if not proj.column(i)]
    if len(top) != 1:
        raise CheckFailure(
            "scalar column kernel is not one line",
            witness={"kernel_size": len(top)},
        )
    # the evident aligned section splits it, so the extension is trivial
    section = LinearMap(lower, upper, aligned_columns(lower, upper))
    for i in range(lower.dim):
        if proj.apply(section.column(i)) != {i: Fraction(1)}:
            raise CheckFailure("scalar column section failure", witness={"index": i})
    return "trivial extension of trivial modules"


def _square_inject_check(row_upper, row_lower, col_g):
    """col2 o inject_{p+1} = inject_p o col1 on scalar basis elements."""
    col1 = aligned_columns(row_upper.sub, row_lower.sub)
    for i in range(row_upper.sub.dim):
        via_total = col_g.project.apply(row_upper.inject.column(i))
        via_scalars = row_lower.inject.apply(col1[i])
        if via_total != via_scalars:
            raise CheckFailure(
                f"inject square does not commute at {row_upper.sub.labels[i]}",
                witness={"index": i, "via_total": via_total, "via_scalars": via_scalars},
            )


def _square_project_check(row_upper, row_lower, col_g, col_derd):
    """col3 o project_{p+1} = project_p o col2 on the upper total basis."""
    for i in range(row_upper.total.dim):
        one = {i: Fraction(1)}
        left = col_derd.project.apply(row_upper.project.apply(one))
        right = row_lower.project.apply(col_g.project.apply(one))
        if left != right:
            raise CheckFailure(
                f"project square does not commute at {row_upper.total.labels[i]}",
                witness={"index": i, "left": left, "right": right},
            )


def _row1_check(col_g, col_derd, row_upper):
    """0 -> h^p k -> h^p A -> h^p H -> 0: the row induced on column kernels."""
    a_ker = col_g.sub
    # induced map: each G-kernel monomial to its DerD-kernel twin, scalars to 0
    induced = aligned_columns(a_ker, col_derd.sub)
    for i in range(a_ker.dim):
        # compatibility with the row projections
        via_row = row_upper.project.apply(col_g.inject.column(i))
        if via_row != col_derd.inject.apply(induced[i]):
            raise CheckFailure(
                f"row1 square does not commute at {a_ker.labels[i]}",
                witness={"index": i},
            )
    kernel_of_induced = [a_ker.tags[i] for i, image in induced.items() if not image]
    scalars = row_upper.sub.tags
    if len(kernel_of_induced) != 1 or kernel_of_induced[0] not in scalars:
        raise CheckFailure(
            "kernel of h^p A -> h^p H is not the scalar line",
            witness={"kernel": [str(m) for m in kernel_of_induced]},
        )
    return "induced row exact with scalar-line kernel"


# ---------------------------------------------------------------------------
# splittings
# ---------------------------------------------------------------------------


def sp_subalgebra(derd: GradedLieAlgebra):
    """The span of the quadratic symbols inside a derivation level: sp(2d).

    Returns (sp as its own algebra, index list into the ambient level).
    """
    indices = [i for i, m in enumerate(derd.tags) if m.hexp == 0 and m.weight == 2]
    sp = derd.restriction(f"sp({2 * derd.tags[0].dimension})", indices, cutoff=0)
    sp.verify_jacobi()
    return sp, indices


def sp_algebra(d: int) -> GradedLieAlgebra:
    """sp(2d) as an algebra of its own: the quadratic symbols of DerD_0 at N=2.

    Quadratic symbols bracket by their Poisson bracket at every level and
    cutoff N >= 2, so this algebra depends on d alone.
    """
    sp, _ = sp_subalgebra(build_derd_level(d, 0, 2))
    return sp


def levi_restriction_split(d: int, p: int, n: int):
    """A bracket-preserving section of G_p -> DerD_p over sp(2d).

    Found by exact linear algebra: the splitting defect of the monomial
    section restricted to the quadratic symbols is a scalar-valued 2-cocycle;
    its primitive (which exists, sp being semisimple) corrects the section.
    Returns (section LieMap from sp into G_p, sp algebra, ambient indices,
    defect cochain, primitive cochain).
    """
    row = cent_row(d, p, n)
    sp, indices = sp_subalgebra(row.quotient)
    module = cohomology.trivial_module(
        sp,
        labels=row.sub.labels,
        weights=tuple(0 for _ in row.sub.labels),
        name=f"{row.sub.name} trivial over sp",
    )
    values = {}
    for a in range(sp.dim):
        for b in range(a + 1, sp.dim):
            defect = row.defect(indices[a], indices[b])
            if defect:
                values[(a, b)] = defect
    cocycle = cohomology.Cochain(module, 2, values)
    found, primitive = cohomology.is_coboundary(cocycle)
    if not found:
        raise CheckFailure(
            "no Levi section: the restricted cocycle is not a coboundary "
            "(this must never happen; it indicates a build bug)",
        )
    columns = {
        a: accumulate(
            (
                (k, v * -c)
                for m, c in primitive.value((a,)).items()
                for k, v in row.inject.column(m).items()
            ),
            row.splitting.column(indices[a]),
        )
        for a in range(sp.dim)
    }
    section = LieMap.build(sp, row.total, columns, name=f"sp->{row.total.name}")
    return section, sp, indices, cocycle, primitive


def d1_semidirect_split(d: int, n: int) -> LieMap:
    """The bracket-preserving section DerD_0 -> DerD_1 via the split model.

    A Hamiltonian symbol f acts on the order-one algebra through its
    iota-even lift, so the section sends f to h^-1(f - (h/2) Laplace f),
    scalar parts dropped.  DerD_1 is built first, so that G_0 is read off
    the cached G_1.
    """
    derd1 = build_derd_level(d, 1, n)
    derd0 = build_derd_level(d, 0, n)
    index1 = {m: k for k, m in enumerate(derd1.tags)}
    columns = {}
    for i, mono in enumerate(derd0.tags):
        f = TruncatedPoly(d, n, {mono: Fraction(1)})
        lifts = (
            (Monomial(m.xexp, m.yexp, 1), c) for m, c in mixed_laplacian(f).terms.items()
        )
        columns[i] = accumulate(
            (
                (index1[lifted], -c / 2)
                for lifted, c in lifts
                if not _is_scalar(lifted) and lifted.weight <= n
            ),
            {index1[mono]: Fraction(1)},
        )
    return LieMap.build(derd0, derd1, columns, name="DerD_0 -> DerD_1")


# ---------------------------------------------------------------------------
# the obstruction extension
# ---------------------------------------------------------------------------


@dataclass
class ObstructionCocycle:
    """The V-valued cocycle of the one-step extension G_{p+1} -> DerD_p."""

    extension: ExtensionData
    module: cohomology.LieModule
    cochain: cohomology.Cochain

    def scalar_restriction_to_sp(self):
        """Restrict to sp(2d) and project to the scalar summand of V.

        On quadratic symbols the defect is purely scalar-valued, so this is a
        genuine trivial-module cocycle there.
        """
        sp, indices = sp_subalgebra(self.extension.quotient)
        scalar_positions = [
            m for m, mono in enumerate(self.extension.sub.tags) if _is_scalar(mono)
        ]
        pos = {m: r for r, m in enumerate(scalar_positions)}
        module = cohomology.trivial_module(
            sp,
            labels=tuple(self.extension.sub.labels[m] for m in scalar_positions),
            weights=tuple(0 for _ in scalar_positions),
            name="scalar part over sp",
        )
        back = {i: a for a, i in enumerate(indices)}
        values = {}
        for (i, j), vec in self.cochain.values.items():
            if i in back and j in back:
                nonscalar = {m: c for m, c in vec.items() if m not in pos}
                if nonscalar:
                    raise CheckFailure(
                        "sp-restricted obstruction value is not scalar",
                        witness={"pair": (i, j), "value": nonscalar},
                    )
                projected = {pos[m]: c for m, c in vec.items()}
                if projected:
                    values[(back[i], back[j])] = projected
        return cohomology.Cochain(module, 2, values), sp, indices


def tower_obstruction(d: int, p: int, n: int) -> ObstructionCocycle:
    """The extension class controlling the lift from level p to level p+1.

    Raises UsageError unless d >= 1, p >= 0 and N >= 2(p+1), as for
    commu_diagram_check.
    """
    _check_two_level_domain("tower obstruction", d, p, n)
    e = v_extension(d, p, n)
    module = cohomology.module_from_extension(e, name=f"V(d={d},p={p})")
    module.verify_representation()
    cochain = cohomology.extension_cocycle(e, module)
    return ObstructionCocycle(e, module, cochain)
