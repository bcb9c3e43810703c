"""Formal Darboux normalization and products transported along it.

A validated symplectic form (closed, nondegenerate at the origin) is brought
to the constant standard form by an order-by-order Moser recursion: a linear
symplectic Gram-Schmidt step over exact rationals, then one polynomial flow
step per weight, with the primitive of each homogeneous discrepancy produced
by the radial homotopy of the formal disc.  The output coordinate change is
not unique; the contract is the pullback identity, which every run verifies
before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import InternalError, UsageError
from .series import (
    DifferentialForm,
    PoissonBivector,
    Substitution,
    TruncatedPoly,
    de_rham_d,
    euler_contraction,
    wedge,
)
from .weyl import TruncationSpec, WeylElement, h_linear_part, star


class NotClosedError(UsageError):
    def __init__(self, witness: DifferentialForm):
        super().__init__(f"form is not closed: d(form) = {witness}")
        self.witness = witness


class DegenerateError(UsageError):
    def __init__(self, matrix):
        super().__init__("form is degenerate at the origin")
        self.matrix = matrix


def standard_form(d: int, cutoff: int) -> DifferentialForm:
    one = TruncatedPoly.one(d, cutoff)
    return DifferentialForm(d, cutoff, 2, {(i, d + i): one for i in range(d)})


def constant_matrix(form: DifferentialForm):
    """The 2d x 2d matrix of constant coefficients of a 2-form."""
    n = 2 * form.d
    m = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), poly in form.terms.items():
        c = poly.constant_term()
        m[i][j] = c
        m[j][i] = -c
    return m


@dataclass(frozen=True)
class FormalSymplecticForm:
    """A degree-2 form certified closed and nondegenerate at the origin."""

    form: DifferentialForm

    @property
    def d(self):
        return self.form.d

    @property
    def cutoff(self):
        return self.form.cutoff


def check_symplectic(form: DifferentialForm) -> FormalSymplecticForm:
    if form.degree != 2:
        raise UsageError(f"symplectic candidate must have degree 2, got {form.degree}")
    if form.degree < 2 * form.d:  # top-degree forms are closed for free
        closure = de_rham_d(form)
        if not closure.is_zero():
            raise NotClosedError(closure)
    m0 = constant_matrix(form)
    try:
        linalg.inverse(m0)
    except UsageError:
        raise DegenerateError(m0) from None
    return FormalSymplecticForm(form)


# ---------------------------------------------------------------------------
# form <-> bivector
# ---------------------------------------------------------------------------


def _poly_matrix(entries, d: int, cutoff: int):
    """The antisymmetric poly matrix with upper triangle `entries`."""
    n = 2 * d
    zero = TruncatedPoly.zero(d, cutoff)
    m = [[zero] * n for _ in range(n)]
    for (i, j), poly in entries.items():
        m[i][j] = poly
        m[j][i] = -poly
    return m


def _negated_upper(m):
    """The entries of -m above the diagonal, keyed by (i, j)."""
    return {(i, j): -m[i][j] for i in range(len(m)) for j in range(i + 1, len(m))}


def _poly_mat_mul(a, b, d, cutoff):
    n = 2 * d
    zero = TruncatedPoly.zero(d, cutoff)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = zero
            for k in range(n):
                if a[i][k].is_zero() or b[k][j].is_zero():
                    continue
                acc = acc + a[i][k] * b[k][j]
            out[i][j] = acc
    return out


def _poly_matrix_inverse(m, d, cutoff):
    """Order-by-order inverse of a poly matrix with invertible constant part."""
    n = 2 * d
    m0 = [[m[i][j].constant_term() for j in range(n)] for i in range(n)]
    m0_inv = linalg.inverse(m0)
    m0_inv_poly = [
        [TruncatedPoly.constant(m0_inv[i][j], d, cutoff) for j in range(n)]
        for i in range(n)
    ]
    zero = TruncatedPoly.zero(d, cutoff)
    m_plus = [
        [m[i][j] - TruncatedPoly.constant(m0[i][j], d, cutoff) for j in range(n)]
        for i in range(n)
    ]
    # X = sum_k (-M0^-1 M+)^k M0^-1; the k-th term has entries of weight >= k
    step = _poly_mat_mul(
        [[-m0_inv_poly[i][j] for j in range(n)] for i in range(n)], m_plus, d, cutoff
    )
    total = [row[:] for row in m0_inv_poly]
    term = [row[:] for row in m0_inv_poly]
    for _ in range(cutoff):
        term = _poly_mat_mul(step, term, d, cutoff)
        if all(entry.is_zero() for row in term for entry in row):
            break
        total = [
            [total[i][j] + term[i][j] for j in range(n)] for i in range(n)
        ]
    return total


def form_to_bivector(fs: FormalSymplecticForm) -> PoissonBivector:
    """The bivector inverse to the form, normalized so std maps to std.

    Theta = -(coefficient matrix)^{-1}; with the standard form this yields
    {x_i, y_j} = delta_ij.
    """
    d, cutoff = fs.d, fs.cutoff
    inv = _poly_matrix_inverse(_poly_matrix(fs.form.terms, d, cutoff), d, cutoff)
    return PoissonBivector(d, cutoff, _negated_upper(inv))


def bivector_to_form(theta: PoissonBivector) -> DifferentialForm:
    """Inverse construction; mutually inverse with form_to_bivector at cutoff."""
    d, cutoff = theta.d, theta.cutoff
    m = _poly_matrix(theta.entries, d, cutoff)
    try:
        inv = _poly_matrix_inverse(m, d, cutoff)
    except UsageError:
        raise DegenerateError(m) from None
    return DifferentialForm(d, cutoff, 2, _negated_upper(inv))


# ---------------------------------------------------------------------------
# coordinate changes
# ---------------------------------------------------------------------------


class FormalCoordChange:
    """An origin-fixing substitution u_v -> components[v](u) with invertible
    linear part; a group up to cutoff under composition.

    The change holds one `series.Substitution` of its components, whose
    caches fill as they are used.  Every composition through the change
    (`apply_poly`, `compose`, `inverse`, `pullback` and the transported
    products) substitutes through it.
    """

    __slots__ = ("d", "cutoff", "components", "_substitution")

    def __init__(self, components):
        self._substitution = Substitution(components)  # checks the components
        self.d = self._substitution.d
        self.cutoff = self._substitution.cutoff
        self.components = tuple(components)
        linalg.inverse(self.linear_matrix())  # raises if the linear part is singular

    @staticmethod
    def identity(d: int, cutoff: int) -> "FormalCoordChange":
        return FormalCoordChange(
            [TruncatedPoly.coordinate(v, d, cutoff) for v in range(2 * d)]
        )

    @staticmethod
    def linear(matrix, d: int, cutoff: int) -> "FormalCoordChange":
        comps = []
        for v in range(2 * d):
            acc = TruncatedPoly.zero(d, cutoff)
            for w in range(2 * d):
                if matrix[v][w] != 0:
                    acc = acc + TruncatedPoly.coordinate(w, d, cutoff).scaled(
                        matrix[v][w]
                    )
            comps.append(acc)
        return FormalCoordChange(comps)

    def linear_matrix(self):
        n = 2 * self.d
        m = [[Fraction(0)] * n for _ in range(n)]
        for v, comp in enumerate(self.components):
            for mono, n in comp.ints.items():
                if mono.weight == 1:
                    w = (
                        mono.xexp.index(1)
                        if any(mono.xexp)
                        else self.d + mono.yexp.index(1)
                    )
                    m[v][w] = Fraction(n, comp.den)
        return m

    def apply_poly(self, p: TruncatedPoly) -> TruncatedPoly:
        return p.substitute(self._substitution)

    def compose(self, other: "FormalCoordChange") -> "FormalCoordChange":
        """self after other: (self.compose(other))(u) = self(other(u))."""
        if self.d != other.d or self.cutoff != other.cutoff:
            raise UsageError("coordinate change truncation mismatch")
        return FormalCoordChange([other.apply_poly(c) for c in self.components])

    def inverse(self) -> "FormalCoordChange":
        """Order-by-order inverse: psi with self.compose(psi) = identity."""
        d, cutoff = self.d, self.cutoff
        lin_inv = FormalCoordChange.linear(
            linalg.inverse(self.linear_matrix()), d, cutoff
        )
        ident = FormalCoordChange.identity(d, cutoff)
        # the components vanish at the origin, so each less its linear part
        # is its tail
        tail = [c - c.homogeneous_part(1) for c in self.components]
        psi = lin_inv
        for _ in range(cutoff):
            # psi <- L^{-1}(id - tail o psi); gains one exact order per pass
            correction = FormalCoordChange(
                [ident.components[v] - psi.apply_poly(tail[v]) for v in range(2 * d)]
            )
            candidate = lin_inv.compose(correction)
            if candidate.components == psi.components:
                break
            psi = candidate
        check = self.compose(psi)
        if check.components != ident.components:
            raise InternalError("coordinate change inversion failed to converge")
        return psi

    def __eq__(self, other):
        if not isinstance(other, FormalCoordChange):
            return NotImplemented
        return self.components == other.components

    def __str__(self):
        from .series import coordinate_name

        return ", ".join(
            f"{coordinate_name(v, self.d)} -> {comp}"
            for v, comp in enumerate(self.components)
        )

    def to_json(self):
        return {
            "d": self.d,
            "N": self.cutoff,
            "components": [c.to_json()["terms"] for c in self.components],
        }


def pullback(form: DifferentialForm, phi: FormalCoordChange) -> DifferentialForm:
    """Substitute into coefficients and push each coordinate 1-form to d(phi_v)."""
    if form.d != phi.d or form.cutoff != phi.cutoff:
        raise UsageError("pullback truncation mismatch")
    d, cutoff = form.d, form.cutoff
    dphi = [
        DifferentialForm(d, cutoff, 1, {(w,): comp.partial(w) for w in range(2 * d)})
        for comp in phi.components
    ]
    out = DifferentialForm.zero(d, cutoff, form.degree)
    for idx, poly in form.terms.items():
        piece = DifferentialForm.from_poly(phi.apply_poly(poly))
        for v in idx:
            piece = wedge(piece, dphi[v])
        out = out + piece
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _linear_symplectic_basis(m0):
    """Exact symplectic Gram-Schmidt: B with B^T m0 B the standard block form.

    Tie-breaking is by basis order: the first untouched vector opens each
    pair, matched with the first later vector pairing nonzero against it.
    """
    n = len(m0)
    d = n // 2

    def pairing(u, v):
        return sum(u[i] * m0[i][j] * v[j] for i in range(n) for j in range(n))

    remaining = [
        [Fraction(1) if i == j else Fraction(0) for i in range(n)] for j in range(n)
    ]
    es, fs = [], []
    for _ in range(d):
        e = remaining.pop(0)
        partner = None
        for k, v in enumerate(remaining):
            if pairing(e, v) != 0:
                partner = k
                break
        if partner is None:
            raise InternalError("degenerate pairing in linear normalization")
        f = remaining.pop(partner)
        scale = pairing(e, f)
        f = [c / scale for c in f]
        reduced = []
        for v in remaining:
            pe, pf = pairing(v, e), pairing(v, f)
            reduced.append(
                [v[i] - pf * e[i] + pe * f[i] for i in range(n)]
            )
        remaining = reduced
        es.append(e)
        fs.append(f)
    columns = es + fs
    return [[columns[j][i] for j in range(n)] for i in range(n)]


def lift_form(form: DifferentialForm, cutoff: int) -> DifferentialForm:
    """Reinterpret a form's polynomial coefficients at a deeper cutoff."""
    return DifferentialForm(
        form.d,
        cutoff,
        form.degree,
        {idx: poly.lifted(cutoff) for idx, poly in form.terms.items()},
    )


def truncate_form(form: DifferentialForm, cutoff: int) -> DifferentialForm:
    return DifferentialForm(
        form.d,
        cutoff,
        form.degree,
        {idx: poly.truncated(cutoff) for idx, poly in form.terms.items()},
    )


def pullback_residual(
    fs: FormalSymplecticForm, phi: FormalCoordChange
) -> DifferentialForm:
    """pullback(form, phi) - standard form, reported at the form's cutoff.

    phi may (and after darboux_normalize does) carry a deeper cutoff; the
    pullback is computed there and compared through the form's own weight.
    """
    if phi.cutoff < fs.cutoff:
        raise UsageError("coordinate change is shallower than the form")
    pulled = pullback(lift_form(fs.form, phi.cutoff), phi)
    return truncate_form(pulled - standard_form(fs.d, phi.cutoff), fs.cutoff)


def darboux_normalize(fs: FormalSymplecticForm) -> FormalCoordChange:
    """A coordinate change phi with pullback(form, phi) equal to the standard
    form exactly through the form's cutoff N.

    Order-by-order Moser recursion.  Killing the weight-N discrepancy takes a
    correction of weight N+1, so the returned change carries cutoff N+1; the
    residual through weight N (see pullback_residual) is exactly zero, and
    the output self-verifies before being returned.
    """
    d, target = fs.d, fs.cutoff
    deep = target + 1
    omega = standard_form(d, deep)
    form = lift_form(fs.form, deep)

    basis = _linear_symplectic_basis(constant_matrix(form))
    phi = FormalCoordChange.linear(basis, d, deep)
    current = pullback(form, phi)

    for _ in range(target + 1):
        residual = current - omega
        degree = min(
            (
                w
                for poly in residual.terms.values()
                for w in [poly.min_weight()]
                if w is not None
            ),
            default=None,
        )
        if degree is None or degree > target:
            break
        if degree < 1:
            raise InternalError("linear normalization left a constant discrepancy")
        homogeneous = DifferentialForm(
            d,
            deep,
            2,
            {
                idx: poly.homogeneous_part(degree)
                for idx, poly in residual.terms.items()
            },
        )
        if 2 < 2 * d and not de_rham_d(homogeneous).is_zero():
            raise InternalError("homogeneous discrepancy is not closed")
        beta = euler_contraction(homogeneous).scaled(Fraction(1, degree + 2))
        # solve contraction(V, omega_std) = -beta: V_x_i = -beta_{y_i}, V_y_i = beta_{x_i}
        comps = []
        for i in range(d):
            comps.append(
                TruncatedPoly.coordinate(i, d, deep) - beta.component((d + i,))
            )
        for i in range(d):
            comps.append(
                TruncatedPoly.coordinate(d + i, d, deep) + beta.component((i,))
            )
        step = FormalCoordChange(comps)
        phi = phi.compose(step)
        current = pullback(current, step)
    if not pullback_residual(fs, phi).is_zero():
        raise InternalError("darboux output failed its pullback self-check")
    return phi


# ---------------------------------------------------------------------------
# transported star products
# ---------------------------------------------------------------------------


def _lift_through(phi: FormalCoordChange, p: TruncatedPoly, spec: TruncationSpec):
    """sigma(f): substitute phi (h untouched), then normal-order lift."""
    return WeylElement.from_poly(phi.apply_poly(p), spec)


def _symbol_through(phi_inv: FormalCoordChange, w: WeylElement) -> TruncatedPoly:
    """sigma^{-1}: substitute the inverse change, of w's d and cutoff, into
    w's symbol (h untouched)."""
    return phi_inv.apply_poly(w.symbol())


def transported_product_symbol(
    phi: FormalCoordChange,
    a: TruncatedPoly,
    b: TruncatedPoly,
    spec: TruncationSpec,
    phi_inv: FormalCoordChange | None = None,
) -> TruncatedPoly:
    """The star product conjugated by composition with phi, as an A[h] symbol.

    Associative, unital and commutative mod h by construction (it is the
    conjugate of the standard product by a linear isomorphism).  A given
    `phi_inv` must share phi's d and cutoff.
    """
    if phi.cutoff != spec.cutoff or phi.d != spec.d:
        raise UsageError("coordinate change must match the truncation")
    phi_inv = phi_inv or phi.inverse()
    if (phi_inv.d, phi_inv.cutoff) != (phi.d, phi.cutoff):
        raise UsageError("the inverse change must share the change's d and cutoff")
    prod = star(_lift_through(phi, a, spec), _lift_through(phi, b, spec))
    return _symbol_through(phi_inv, prod)


def transported_induced_poisson(
    phi: FormalCoordChange,
    a: TruncatedPoly,
    b: TruncatedPoly,
    phi_inv: FormalCoordChange | None = None,
) -> TruncatedPoly:
    """(1/h) of the transported commutator, mod h.

    phi must carry two weights more than the inputs so the h-linear part of
    the commutator is exact at the result cutoff, and a given `phi_inv` must
    share phi's d and cutoff.
    """
    if a.depends_on_h() or b.depends_on_h():
        raise UsageError("bracket inputs must be h-free")
    a._check_compat(b)
    if phi.cutoff < a.cutoff + 2:
        raise UsageError("coordinate change must be known two weights deeper")
    spec = TruncationSpec(a.d, 1, phi.cutoff)
    phi_inv = phi_inv or phi.inverse()
    a2, b2 = a.lifted(phi.cutoff), b.lifted(phi.cutoff)
    pab = transported_product_symbol(phi, a2, b2, spec, phi_inv)
    pba = transported_product_symbol(phi, b2, a2, spec, phi_inv)
    return h_linear_part(pab - pba, a.d, a.cutoff)
