"""The derivation and extension tower of the truncated Weyl algebra.

Levels are realized through almost-inner representatives: the level-q bracket
algebra has basis h^-1 m for normal-ordered monomials m with h-order <= q,
with bracket [h^-1 a, h^-1 b] = h^-1([a, b]/h) computed in the Weyl algebra
one h-order deeper.  The derivation quotients drop the central scalars
h^-1 k[h]; each is read off the cached G level of the same (d, q, N) by
deleting the scalar basis elements and bracket components, so the Weyl
commutators run once per level.  Weights are monomial weight minus 2, so
every map in the tower is weight-preserving and every bracket is graded.
Every extension of the tower is read off the basis tags by
`liealg.aligned_extension`: the quotient level's monomials are some of the
total's, and the rest span the abelian kernel.

Builders verify gradedness at construction (antisymmetry is structural) and
every produced map is checked bracket-preserving; the Jacobi sweeps run
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
from .errors import CheckFailure, InternalError, UsageError
from .liealg import (
    ExtensionData,
    GradedLieAlgebra,
    LieMap,
    LinearMap,
    Vector,
    aligned_columns,
    aligned_extension,
)
from .reports import Report
from .series import (
    Monomial,
    TruncatedPoly,
    all_monomials,
    coordinate_name,
    standard_poisson,
)
from .sparse import accumulate
from .weyl import TruncationSpec, WeylElement, commutator, mixed_laplacian

_build_cache: dict = {}


def _is_scalar(m: Monomial) -> bool:
    return not any(m.xexp) and not any(m.yexp)


def _level_monomials(d: int, h_max: int, n: int):
    out = []
    for c in range(h_max + 1):
        if 2 * c > n:
            break
        for m in all_monomials(d, n - 2 * c):
            out.append(Monomial(m.xexp, m.yexp, c))
    out.sort(key=lambda m: m.sort_key())
    return out


def _transported_bracket(m1: Monomial, m2: Monomial, d: int, q: int):
    """[h^-1 m1, h^-1 m2] = h^-1([m1, m2]/h) as a monomial -> coefficient map.

    Exact: the Weyl commutator is computed at h-order q+1 and full weight
    w1 + w2, then divided by h.
    """
    w = m1.weight + m2.weight
    spec = TruncationSpec(d, q + 1, w)
    a = WeylElement(spec, {m1: Fraction(1)})
    b = WeylElement(spec, {m2: Fraction(1)})
    comm = commutator(a, b)
    out = {}
    for mono, coeff in comm.terms.items():
        if mono.hexp < 1:
            raise InternalError("Weyl commutator not divisible by h")
        out[Monomial(mono.xexp, mono.yexp, mono.hexp - 1)] = coeff
    return out


def _build_level(d: int, q: int, n: int, name: str):
    monos = _level_monomials(d, q, n)
    index = {m: k for k, m in enumerate(monos)}
    labels = tuple(f"h^-1*{m}" for m in monos)
    weights = tuple(m.weight - 2 for m in monos)
    cutoff = n - 2
    brackets = {}
    for i, mi in enumerate(monos):
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue  # graded: everything would be truncated anyway
            raw = _transported_bracket(mi, mj, d, q)
            vec = {}
            for mono, coeff in raw.items():
                if mono.hexp > q or mono.weight > n:
                    continue
                pos = index.get(mono)
                if pos is None:
                    raise InternalError(f"bracket left the level basis: {mono}")
                vec[pos] = coeff
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(name, labels, weights, brackets, cutoff, tuple(monos))
    algebra.verify_graded()
    return algebra


def build_g_level(d: int, q: int, n: int) -> GradedLieAlgebra:
    """The level-q central-extension algebra: h^-1 D mod h^q D, truncated.

    The indexing is pinned by two requirements: the scalar subalgebra of
    level q is k[h]/h^(q+1) (spanned by h^-1 h^c, c <= q), and the kernel of
    the quotient to level q-1 is a shifted copy of the function space.  Both
    are verified by commu_diagram_check.
    """
    key = ("G", d, q, n)
    if key not in _build_cache:
        _build_cache[key] = _build_level(d, q, n, f"G_{q}(d={d},N={n})")
    return _build_cache[key]


def build_derd_level(d: int, q: int, n: int) -> GradedLieAlgebra:
    """The level-q derivation algebra: the cached G_q modulo its scalars."""
    key = ("DerD", d, q, n)
    if key not in _build_cache:
        _build_cache[key] = _derd_from_g(build_g_level(d, q, n), d, q, n)
    return _build_cache[key]


def _derd_from_g(g: GradedLieAlgebra, d: int, q: int, n: int) -> GradedLieAlgebra:
    """Quotient a (possibly corrupted) G level by its scalar line.

    The scalars are central, so the quotient basis is the non-scalar
    monomials in their G order, and its brackets are G's with the scalar
    components dropped.
    """
    keep = [k for k, m in enumerate(g.tags) if not _is_scalar(m)]
    pos = {k: r for r, k in enumerate(keep)}
    brackets = {}
    for i, j in sorted(g.brackets):
        if i in pos and j in pos:
            vec = {pos[k]: c for k, c in g.brackets[(i, j)].items() if k in pos}
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


def build_h(d: int, n: int) -> GradedLieAlgebra:
    """Hamiltonian fields as functions modulo constants under Poisson bracket."""
    key = ("H", d, n)
    if key not in _build_cache:
        _build_cache[key] = _build_poisson(d, n, f"H(d={d},N={n})", min_degree=1)
    return _build_cache[key]


def build_a_poisson(d: int, n: int) -> GradedLieAlgebra:
    """Functions on the disc under the Poisson bracket, constants included."""
    key = ("A", d, n)
    if key not in _build_cache:
        _build_cache[key] = _build_poisson(d, n, f"A(d={d},N={n})", min_degree=0)
    return _build_cache[key]


def _build_poisson(d: int, n: int, name: str, min_degree: int) -> GradedLieAlgebra:
    """Monomials of degree >= min_degree under the Poisson bracket.

    Bracket components off the basis are dropped: with min_degree 1 these
    are the constants, so the result is the quotient by constants.
    """
    monos = sorted(
        all_monomials(d, n, min_degree=min_degree), key=lambda m: m.sort_key()
    )
    index = {m: k for k, m in enumerate(monos)}
    cutoff = n - 2
    brackets = {}
    for i, mi in enumerate(monos):
        pi = TruncatedPoly(d, n, {mi: Fraction(1)})
        for j in range(i + 1, len(monos)):
            mj = monos[j]
            if mi.weight + mj.weight - 4 > cutoff:
                continue
            pb = standard_poisson(pi, TruncatedPoly(d, n, {mj: Fraction(1)}))
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


def build_w(d: int, n: int) -> GradedLieAlgebra:
    """All vector fields sum f_v d_v with polynomial coefficients."""
    key = ("W", d, n)
    if key in _build_cache:
        return _build_cache[key]
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
            parts = ((fi * fj.partial(u), v, 1), (fj * fi.partial(v), u, -1))
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
    _build_cache[key] = algebra
    return algebra


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
            p + 1: cent_row(d, p + 1, n, g_upper),
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
    indices = [
        i
        for i, m in enumerate(derd.tags)
        if m.hexp == 0 and m.weight == 2 and not _is_scalar(m)
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
    scalar parts dropped.
    """
    derd0 = build_derd_level(d, 0, n)
    derd1 = build_derd_level(d, 1, n)
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


def almost_inner_action(
    level: GradedLieAlgebra, vec: Vector, u: WeylElement
) -> WeylElement:
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
