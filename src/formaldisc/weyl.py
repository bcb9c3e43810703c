"""The truncated Weyl algebra D_p in normal-ordered canonical form.

Generators x_1..x_d, y_1..y_d, h with [x_i, y_j] = delta_ij h and all other
generator brackets zero; h is central of weight 2.  Elements are stored as
finite sums of normal-ordered words x^a y^b h^c (all x's left of all y's),
truncated at h-order p and weight N.  Both truncations are quotients by
two-sided ideals (the relation is weight-homogeneous), so ring identities
hold exactly at every truncation.

Products are computed in closed form.  One kernel normal-orders the product
of two monomials: only the y's of the left factor stand before the x's of
the right one, and in each dimension
y^b x^a = sum_k (-h)^k k! C(b,k) C(a,k) x^(a-k) y^(b-k).  `star`, `iota`
and `normal_order` all go through it.  `commutator` has a kernel of its own
on the same contraction table: the uncontracted terms of m1 m2 and m2 m1
cancel, so it sums only the contractions of the two orders and never calls
`star`.  Both kernels work on the packed int keys of `series._pair_sum`,
where a contraction of k_i pairs x_i y_i into h^k_i is the key shift
k_i (B^(2d) - B^i - B^(d+i)): `_contractions` caches those shifts with
their int coefficients, and no kernel builds a monomial.  The term-map
mechanics are those of `series`: `star` and `commutator` extend a kernel
through its integer-first pair loop, `iota` moves keys by the same shifts,
`WeylElement` checks its terms as `TruncatedPoly` does, and `h_linear_part`
reads (1/h)[a, b] mod h for both bracket routes.
`normal_order_random_strategy` rewrites words with the defining relation
y_j x_i -> x_i y_j - delta_ij h at random positions; it is kept as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import comb, perm

from .errors import InternalError, UsageError
from .series import (
    Monomial,
    TruncatedPoly,
    _checked_terms,
    _key,
    _pair_sum,
    _unpacked,
    parse_coordinate,
    standard_poisson,
    unit_monomial,
)
from .sparse import LinearTerms, accumulate, as_fraction


@dataclass(frozen=True)
class TruncationSpec:
    """Working truncation: D / h^(p+1) D at weight cutoff N, dimension d."""

    d: int
    h_order: int
    cutoff: int

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise UsageError(f"dimension must be >= 1, got {self.d!r}")
        orders = (self.h_order, self.cutoff)
        if not all(isinstance(n, int) and n >= 0 for n in orders):
            raise UsageError("h_order and cutoff must be non-negative integers")

    def deepen(self, extra_h: int = 0, extra_weight: int = 0) -> "TruncationSpec":
        return TruncationSpec(self.d, self.h_order + extra_h, self.cutoff + extra_weight)


class WeylElement(LinearTerms):
    """Normal-ordered element of D_p: finite map from monomials to rationals.

    Two elements are equal iff their term maps are equal; the map is the
    canonical form.  The linear structure (+, -, scaled, ==, hash) is the
    shared one of `sparse.LinearTerms`.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: TruncationSpec, terms=None):
        self.spec = spec
        self.terms = _checked_terms(terms, spec.d, spec.cutoff, spec.h_order)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(spec: TruncationSpec) -> "WeylElement":
        return WeylElement(spec)

    @staticmethod
    def scalar(value, spec: TruncationSpec) -> "WeylElement":
        return WeylElement(spec, {unit_monomial(spec.d): as_fraction(value)})

    @staticmethod
    def one(spec: TruncationSpec) -> "WeylElement":
        return WeylElement.scalar(1, spec)

    @staticmethod
    def generator(name: str, spec: TruncationSpec, pos=None) -> "WeylElement":
        """x_i, y_i or h by name (see `series.parse_coordinate`)."""
        v, _ = parse_coordinate(name, spec.d, pos, forms=False)
        d = spec.d
        exps = [0] * (2 * d + 1)  # the x's, the y's, then h
        exps[2 * d if v is None else v] = 1
        mono = Monomial(tuple(exps[:d]), tuple(exps[d:-1]), exps[-1])
        return WeylElement(spec, {mono: Fraction(1)})

    @staticmethod
    def from_poly(p: TruncatedPoly, spec: TruncationSpec) -> "WeylElement":
        """Normal-order symbol lift: each monomial maps to its ordered word."""
        if p.d != spec.d:
            raise UsageError("dimension mismatch in lift")
        if p.cutoff != spec.cutoff:
            raise UsageError("cutoff mismatch in lift")
        return WeylElement(spec, dict(p.terms))

    # -- linear structure ----------------------------------------------------

    def _check_compat(self, other: "WeylElement"):
        if self.spec != other.spec:
            raise UsageError(f"truncation mismatch: {self.spec} vs {other.spec}")

    def _truncation(self):
        return (self.spec,)

    def _with(self, terms) -> "WeylElement":
        return WeylElement._trusted(self.spec, terms)

    @staticmethod
    def _trusted(spec: TruncationSpec, terms: dict) -> "WeylElement":
        """Wrap a kernel output that is already clean (nonzero Fractions on
        d-dimensional monomials within the truncation) without re-checking it."""
        element = object.__new__(WeylElement)
        element.spec, element.terms = spec, terms
        return element

    def _scalar(self, value) -> "WeylElement":
        return WeylElement.scalar(value, self.spec)

    def symbol(self) -> TruncatedPoly:
        """The normal-order symbol: the same exponents read commutatively."""
        return TruncatedPoly(self.spec.d, self.spec.cutoff, dict(self.terms))

    def respec(self, spec: TruncationSpec) -> "WeylElement":
        """Reinterpret under another truncation.

        Deepening (larger p or N) is the canonical lift of the stored normal
        form; shallowing is the quotient map.
        """
        if spec.d != self.spec.d:
            raise UsageError("cannot respec across dimensions")
        return WeylElement(spec, dict(self.terms))

    def __str__(self):
        return str(self.symbol())

    def __repr__(self):
        s = self.spec
        return f"WeylElement(d={s.d}, p={s.h_order}, N={s.cutoff}, {self})"

    def to_json(self):
        data = self.symbol().to_json()
        data["p"] = self.spec.h_order
        return data


# ---------------------------------------------------------------------------
# the normal-ordering kernel
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _contractions(ys, xs, room: int, base: int):
    """The ways to contract y^ys standing before x^xs, total k <= room, as
    (key shift, int) pairs for the packed keys of `series._pair_sum` in
    base B.

    One pair per choice of k_i per dimension: the coefficient is
    prod_i (-1)^k_i k_i! C(b_i, k_i) C(a_i, k_i), and the shift
    sum_i k_i (B^(2d) - B^i - B^(d+i)) trades k_i pairs x_i y_i for h^k_i,
    so every term has the weight of the uncontracted product.  The
    uncontracted choice (shift 0, coefficient 1) comes first.  A pure
    function of its arguments, so its tuples are memoized: the pairs of one
    tabulated level repeat few (ys, xs, room, B) keys.
    """
    d = len(ys)
    h_place = base ** (2 * d)
    out = [(0, 0, 1)]
    for i, (b, a) in enumerate(zip(ys, xs)):
        unit = h_place - base**i - base ** (d + i)
        out = [
            (shift + k * unit, used + k, coeff * (-1) ** k * perm(b, k) * comb(a, k))
            for shift, used, coeff in out
            for k in range(min(a, b, room - used) + 1)
        ]
    return tuple((shift, coeff) for shift, _, coeff in out)


def _star_kernel(h_order: int, m1: Monomial, m2: Monomial, base: int):
    """The normal form of the word m1 m2, as the (key shift, int) pairs of
    its contractions.

    Only y^b1 x^a2 in the middle is out of order, and in each dimension
    y^b x^a = sum_k (-h)^k k! C(b,k) C(a,k) x^(a-k) y^(b-k); the total k is
    capped by the h-order room p - c1 - c2.
    """
    room = h_order - m1[2] - m2[2]
    return _contractions(m1[1], m2[0], room, base) if room >= 0 else ()


def _commutator_kernel(h_order: int, m1: Monomial, m2: Monomial, base: int):
    """m1 m2 - m2 m1 in normal form, as (key shift, int) pairs.

    The uncontracted terms of the two orders are the same monomial with
    coefficient 1, so they cancel: what is left are the contractions of
    total k >= 1 of m1 m2, then those of m2 m1 negated.  Both orders
    contract the same product x^(a1+a2) y^(b1+b2), so their shifts are read
    off one key.  Equal monomials of the two orders are not merged here.
    """
    room = h_order - m1[2] - m2[2]
    if room < 1:
        return ()
    forward = _contractions(m1[1], m2[0], room, base)
    backward = _contractions(m2[1], m1[0], room, base)
    return [*forward[1:], *[(shift, -coeff) for shift, coeff in backward[1:]]]


def star(a: WeylElement, b: WeylElement) -> WeylElement:
    """Associative product of D_p: the product kernel on every pair of terms."""
    a._check_compat(b)
    spec = a.spec
    kernel = partial(_star_kernel, spec.h_order)
    return WeylElement._trusted(spec, _pair_sum(a.terms, b.terms, spec.cutoff, kernel))


def normal_order(word, spec: TruncationSpec, scalar=1) -> WeylElement:
    """Normal-order a left-to-right word of generators and rational scalars.

    The word is multiplied out letter by letter with `star`, so each step is
    one application of the closed-form kernel.  normal_order_random_strategy
    is the independent rewriting route it is checked against.
    """
    element = WeylElement.scalar(scalar, spec)
    for item in word:
        if isinstance(item, (int, Fraction)):
            element = element.scaled(item)
        else:
            element = star(element, WeylElement.generator(item, spec))
    return element


def normal_order_random_strategy(word, spec: TruncationSpec, rng, scalar=1) -> WeylElement:
    """Normal-order by applying the rewrite rule at randomly chosen positions.

    A verification utility: rewriting is confluent, so for any strategy this
    agrees with normal_order.  Words are kept explicitly and a random
    inversion y_j x_i is replaced by x_i y_j (- h when i = j) until none is
    left; each step lowers (inversions, length) lexicographically.
    """
    letters = []
    coeff = Fraction(scalar)
    central_h = 0
    for item in word:
        if isinstance(item, (int, Fraction)):
            coeff *= item
            continue
        v, _ = parse_coordinate(item, spec.d, forms=False)
        if v is None:
            central_h += 1  # h commutes with everything by the relations
        else:
            letters.append(("x", v) if v < spec.d else ("y", v - spec.d))
    letters.extend([("h", None)] * central_h)
    sums: dict[tuple, Fraction] = {tuple(letters): coeff}
    while True:
        spots = [
            (w, k)
            for w in sums
            for k in range(len(w) - 1)
            if w[k][0] == "y" and w[k + 1][0] == "x"
        ]
        if not spots:
            break
        w, k = spots[rng.randrange(len(spots))]
        c = sums.pop(w)
        swapped = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
        sums[swapped] = sums.get(swapped, Fraction(0)) + c
        if w[k][1] == w[k + 1][1]:
            # h is central, so the created h letter may sit at the end
            collapsed = w[:k] + w[k + 2 :] + (("h", None),)
            sums[collapsed] = sums.get(collapsed, Fraction(0)) - c
        sums = {key: val for key, val in sums.items() if val != 0}
    element = WeylElement.zero(spec)
    d = spec.d
    for w, c in sums.items():
        xexp, yexp, hexp = [0] * d, [0] * d, 0
        for kind, index in w:
            if kind == "x":
                xexp[index] += 1
            elif kind == "y":
                yexp[index] += 1
            else:
                hexp += 1
        mono = Monomial(tuple(xexp), tuple(yexp), hexp)
        element = element + WeylElement(spec, {mono: c})
    return element


def commutator(a: WeylElement, b: WeylElement) -> WeylElement:
    """[a, b] = a b - b a: the commutator kernel on every pair of terms."""
    a._check_compat(b)
    spec = a.spec
    kernel = partial(_commutator_kernel, spec.h_order)
    return WeylElement._trusted(spec, _pair_sum(a.terms, b.terms, spec.cutoff, kernel))


def iota(a: WeylElement) -> WeylElement:
    """The antiinvolution fixing x_i, y_i and negating h.

    On a normal-ordered word, iota reverses it: iota(x^a y^b h^c) =
    (-1)^c h^c y^b x^a, the word (y^b h^c)(x^a), whose normal form is the
    key of x^a y^b h^c moved by the contractions of y^b before x^a.
    """
    spec = a.spec
    base = spec.cutoff + 1
    sums = accumulate(
        (key + shift, signed * k)
        for mono, coeff in a.terms.items()
        for key in (_key(mono, base),)
        for signed in (-coeff if mono.hexp % 2 else coeff,)
        for shift, k in _contractions(mono.yexp, mono.xexp, spec.h_order - mono.hexp, base)
    )
    return WeylElement._trusted(spec, _unpacked(sums, base, spec.d))


def mod_h(a: WeylElement) -> TruncatedPoly:
    """Projection D_p -> A dropping every term divisible by h."""
    return TruncatedPoly(
        a.spec.d,
        a.spec.cutoff,
        {m: c for m, c in a.terms.items() if m.hexp == 0},
    )


def induced_poisson(a: TruncatedPoly, b: TruncatedPoly) -> TruncatedPoly:
    """{a, b} = (1/h)(lift(a) lift(b) - lift(b) lift(a)) mod h.

    Computed with the truncation deepened by one h-order and two weights so
    that the h-linear part of the commutator is exact at the result cutoff.
    The answer does not depend on the choice of lifts.
    """
    a._check_compat(b)
    if a.depends_on_h() or b.depends_on_h():
        raise UsageError("induced_poisson inputs must be h-free")
    inner = TruncationSpec(a.d, 1, a.cutoff + 2)
    wa = WeylElement(inner, dict(a.terms))
    wb = WeylElement(inner, dict(b.terms))
    return h_linear_part(commutator(wa, wb).terms, a.d, a.cutoff)


def h_linear_part(terms, d: int, cutoff: int) -> TruncatedPoly:
    """(1/h) times a commutator's term map, mod h, at weight cutoff; every
    term of a commutator carries h, so one without is an internal fault."""
    out = {}
    for mono, coeff in terms.items():
        if mono.hexp < 1:
            raise InternalError(
                f"commutator term {mono} not divisible by h (must never happen)"
            )
        if mono.hexp == 1 and mono.weight - 2 <= cutoff:
            out[Monomial(mono.xexp, mono.yexp, 0)] = coeff
    return TruncatedPoly._trusted(d, cutoff, out)


def center_check(a: WeylElement) -> bool:
    """True iff a commutes with every generator, as an element of D.

    The commutators are computed one h-order and one weight deeper than a's
    truncation, so an element only passes when its lift is genuinely central
    (a polynomial in h), not merely central by truncation overflow.
    """
    spec = a.spec
    deep = spec.deepen(extra_h=1, extra_weight=1)
    lifted = a.respec(deep)
    gens = [f"x{i + 1}" for i in range(spec.d)] + [
        f"y{i + 1}" for i in range(spec.d)
    ] + ["h"]
    for name in gens:
        g = WeylElement.generator(name, deep)
        if not commutator(lifted, g).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# the iota-split model of D_1 = D / h^2 D
# ---------------------------------------------------------------------------


def mixed_laplacian(p: TruncatedPoly) -> TruncatedPoly:
    """sum_i d/dx_i d/dy_i, the normal-ordering correction operator."""
    out = TruncatedPoly.zero(p.d, p.cutoff)
    for i in range(p.d):
        out = out + p.partial(i).partial(p.d + i)
    return out


def even_lift(a: TruncatedPoly, spec: TruncationSpec) -> WeylElement:
    """The iota-even lift of a function: lift(a) - (h/2) lift(Delta a).

    iota of the normal-ordered word of a equals it plus h times the mixed
    Laplacian correction, so this combination is an iota eigenvector of
    eigenvalue +1.  Requires h_order >= 1.
    """
    if spec.h_order < 1:
        raise UsageError("even_lift needs h_order >= 1")
    if a.depends_on_h():
        raise UsageError("even_lift input must be h-free")
    lifted = WeylElement(spec, dict(a.terms))
    corr = mixed_laplacian(a)
    half_h = {
        Monomial(m.xexp, m.yexp, 1): c * Fraction(-1, 2) for m, c in corr.terms.items()
    }
    return lifted + WeylElement(spec, half_h)


@dataclass(frozen=True)
class D1Element:
    """Element of D_1 in iota-eigenspace coordinates: even part + h odd part.

    Both parts are h-free functions on the disc; the even part sits inside
    D_1 via the iota-even lift and the odd part via multiplication by h.
    """

    even: TruncatedPoly
    odd: TruncatedPoly

    def __post_init__(self):
        self.even._check_compat(self.odd)
        if self.even.depends_on_h() or self.odd.depends_on_h():
            raise UsageError("D1Element parts must be h-free")

    @staticmethod
    def zero(d: int, cutoff: int) -> "D1Element":
        z = TruncatedPoly.zero(d, cutoff)
        return D1Element(z, z)

    @staticmethod
    def one(d: int, cutoff: int) -> "D1Element":
        return D1Element(TruncatedPoly.one(d, cutoff), TruncatedPoly.zero(d, cutoff))

    def __add__(self, other):
        return D1Element(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other):
        return D1Element(self.even - other.even, self.odd - other.odd)

    def scaled(self, value) -> "D1Element":
        return D1Element(self.even.scaled(value), self.odd.scaled(value))


def d1_product(a: D1Element, b: D1Element) -> D1Element:
    """The product of D_1 read through the eigenspace identification.

    On functions it is a * b = ab + (h/2){a, b}: the one-half is forced by
    the identification (the brute-force transport oracle over monomials pins
    it), with the bracket normalized by {x_i, y_j} = delta_ij.
    """
    half_bracket = standard_poisson(a.even, b.even).scaled(Fraction(1, 2))
    return D1Element(
        a.even * b.even,
        a.even * b.odd + a.odd * b.even + half_bracket,
    )


def d1_bracket(a: D1Element, b: D1Element) -> D1Element:
    """The Lie bracket of D_1: the h-linear extension of the Poisson bracket."""
    return D1Element(
        standard_poisson(a.even, b.even),
        standard_poisson(a.even, b.odd) + standard_poisson(a.odd, b.even),
    )
