"""Exact sparse arithmetic on the formal polydisc, truncated by weight.

Values live over the rationals in the variables x1..xd, y1..yd and a central
formal parameter h.  Weights are deg(x_i) = deg(y_i) = 1 and deg(h) = 2, so
the Weyl relation upstream stays weight-homogeneous.  Every value carries its
weight cutoff; operations compute exactly and then discard monomials whose
weight exceeds the cutoff.  Mixing values with different cutoff or dimension
raises UsageError, never coerces.

A `Monomial` is the tuple (xexp, yexp, hexp, weight), its weight stored at
construction: it hashes and compares in C, equals the bare 4-tuple of its
fields and is ordered only by `sort_key`.  Monomial calculus lives here
alone: `derivative` and the closed-form bracket `monomial_poisson` underlie
`partial`, both Poisson brackets and the tower's H, A and W.  The term-map
mechanics that `weyl` shares live here too: one checked constructor
(`_checked_terms`) and one integer pair loop (`_pair_sum`) behind `__mul__`,
both Poisson brackets, `weyl.star` and `weyl.commutator`.  A term map is
kept as ints over one denominator, in the canonical form of
`sparse.reduced`: the loop and `Substitution.apply` take that form, sum on
ints and return it reduced, so no `Fraction` is built between kernel calls.

They sum on packed keys: x^a y^b h^c is the one int sum_i a_i B^i +
sum_i b_i B^(d+i) + c B^(2d) (`_key`), so multiplying monomials is adding
ints and a kernel moves a key by a shift.  B exceeds every exponent the
sum reads or writes, so no field carries into the next.  Output keys turn
back into monomials in `_unpacked` alone, through one process-wide table
per (base, d) (`_decoded`): a key is decoded on its first use into a
`Monomial` packed with its weight, and every later use at that truncation
returns the same immutable monomial.  A table holds at most the monomials
of weight below its base.  No other monomial type leaves this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, partial
from math import lcm
from operator import itemgetter

from .errors import UsageError
from .sparse import IntTerms, LinearTerms, accumulate, as_fraction, combined, exact_str
from .sparse import integral, reduced


class Monomial(tuple):
    """x^a y^b h^c, packed as the tuple (xexp, yexp, hexp, weight) with its
    weight |a| + |b| + 2c summed once, at construction.

    Hash and equality are those of that tuple, computed in C, so a monomial
    equals the bare 4-tuple of its fields.  `sort_key` is the one order of
    monomials: `<` and the other comparisons are refused.  An exponent that
    cannot be summed is a UsageError here; `_checked_terms` refuses the
    other exponents that are not ints >= 0.
    """

    __slots__ = ()

    xexp = property(itemgetter(0))
    yexp = property(itemgetter(1))
    hexp = property(itemgetter(2))
    weight = property(itemgetter(3))

    def __new__(cls, xexp: tuple[int, ...], yexp: tuple[int, ...], hexp: int = 0):
        try:
            weight = sum(xexp) + sum(yexp) + 2 * hexp
        except TypeError:
            raise UsageError(
                f"monomial exponents {xexp!r}, {yexp!r}, {hexp!r} need to be ints >= 0"
            ) from None
        return tuple.__new__(cls, (xexp, yexp, hexp, weight))

    def __getnewargs__(self):
        return self[:3]

    def __repr__(self):
        return f"Monomial(xexp={self.xexp!r}, yexp={self.yexp!r}, hexp={self.hexp!r})"

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def dimension(self) -> int:
        return len(self.xexp)

    def sort_key(self):
        # total order: weight, then h-power, then lex on (xexp, yexp)
        return (self.weight, self.hexp, self.xexp, self.yexp)

    def mul(self, other: "Monomial") -> "Monomial":
        return _packed(
            (
                tuple(map(int.__add__, self.xexp, other.xexp)),
                tuple(map(int.__add__, self.yexp, other.yexp)),
                self.hexp + other.hexp,
                self.weight + other.weight,
            )
        )

    def __str__(self):
        parts = []
        for i, e in enumerate(self.xexp):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        for i, e in enumerate(self.yexp):
            if e == 1:
                parts.append(f"y{i + 1}")
            elif e > 1:
                parts.append(f"y{i + 1}^{e}")
        if self.hexp == 1:
            parts.append("h")
        elif self.hexp > 1:
            parts.append(f"h^{self.hexp}")
        return "*".join(parts) if parts else "1"


# The trusted constructor of kernels that know the weight of what they build
# (a sum or contraction of checked monomials): the 4-tuple (xexp, yexp, hexp,
# weight) is packed as given, without summing or checking.
_packed = partial(tuple.__new__, Monomial)


def unit_monomial(d: int) -> Monomial:
    return Monomial((0,) * d, (0,) * d, 0)


def _lower(exps: tuple, i: int) -> tuple:
    return exps[:i] + (exps[i] - 1,) + exps[i + 1 :]


def derivative(m: Monomial, v: int):
    """(e, m') with d/dv m = e m', or (0, None) if m lacks coordinate v;
    coordinates 0..d-1 are x's, d..2d-1 y's."""
    d, exps = len(m.xexp), m.xexp + m.yexp
    if not exps[v]:
        return 0, None
    less = _lower(exps, v)
    return exps[v], Monomial(less[:d], less[d:], m.hexp)


def _lowered(terms, v: int) -> dict:
    """d/dv of a term map; lowering an exponent is injective, so none merge."""
    return {m_v: c * e for m, c in terms.items() for e, m_v in (derivative(m, v),) if e}


def _key(m: Monomial, base: int) -> int:
    """The packed key sum_i a_i B^i + sum_i b_i B^(d+i) + c B^(2d) of
    x^a y^b h^c in base B (see `_pair_sum`)."""
    key = m[2]
    for e in reversed(m[0] + m[1]):
        key = key * base + e
    return key


class _Decoded(dict):
    """packed key -> `Monomial` at one (base, d): a key is decoded on its
    first lookup, and every later lookup returns the same immutable
    monomial.  The kernels' keys are of monomials of weight below the base,
    so a table holds at most those."""

    __slots__ = ("base", "d")

    def __init__(self, base: int, d: int):
        self.base, self.d = base, d

    def __missing__(self, key: int) -> Monomial:
        base, d, rest, fields = self.base, self.d, key, []
        for _ in range(2 * d):
            fields.append(rest % base)
            rest //= base
        weight = sum(fields) + 2 * rest
        mono = self[key] = _packed((tuple(fields[:d]), tuple(fields[d:]), rest, weight))
        return mono


_decoded = cache(_Decoded)  # the one process-wide table of each (base, d)


def _unpacked(sums: dict, base: int, d: int, den: int = 1) -> tuple:
    """The canonical (den, ints) of the sums of a key map (packed key ->
    nonzero int) over `den`, on the monomials of their keys, in the order
    of `sums`: each key is read from the (base, d) table, so it is decoded
    once per process, into a monomial packed with its weight."""
    table = _decoded(base, d)
    return reduced(den, {table[key]: n for key, n in sums.items()})


def _product_kernel(m1: Monomial, m2: Monomial, base: int):
    return ((0, 1),)


def _poisson_coefficients(m1: Monomial, m2: Monomial):
    """(i, a_i e_i - b_i c_i) for each i where it is nonzero, in order of i:
    {x^a y^b, x^c y^e} = sum_i (a_i e_i - b_i c_i) x^(a+c-1_i) y^(b+e-1_i),
    the standard bracket of h-free monomials."""
    a, b, c, e = m1[0], m1[1], m2[0], m2[1]
    out = []
    for i in range(len(a)):
        n = a[i] * e[i] - b[i] * c[i]
        if n:
            out.append((i, n))
    return out


def monomial_poisson(m1: Monomial, m2: Monomial):
    """{m1, m2} as (monomial, int) pairs (see `_poisson_coefficients`)."""
    terms = _poisson_coefficients(m1, m2)
    if terms:
        xs = tuple(map(int.__add__, m1[0], m2[0]))
        ys = tuple(map(int.__add__, m1[1], m2[1]))
        for i, n in terms:
            yield Monomial(_lower(xs, i), _lower(ys, i)), n


def _poisson_kernel(m1: Monomial, m2: Monomial, base: int):
    """{m1, m2} as (key shift, int) pairs: lowering x_i and y_i by one is
    the shift -(B^i + B^(d+i))."""
    d = len(m1[0])
    return [(-(base**i + base ** (d + i)), n) for i, n in _poisson_coefficients(m1, m2)]


def _pair_sum(left: tuple, right: tuple, room: int, kernel) -> tuple:
    """The sum of n1 * n2 * kernel(m1, m2) over the term pairs of two int
    term maps (den, ints) whose weights sum to at most `room`, summed on
    packed keys and returned as the canonical (den, ints) over the product
    of the two dens.

    Each monomial x^a y^b h^c is the int key sum_i a_i B^i + sum_i b_i
    B^(d+i) + c B^(2d) in base B = room + 1, so a product of monomials is a
    sum of keys.  `kernel(m1, m2, B)` gives (key shift, int) pairs: the
    terms key(m1) + key(m2) + shift within the truncation.  No field ever
    carries into the next: a pair is summed only when w1 + w2 <= `room`, so
    every exponent of it, of its product and of each of its terms is at most
    `room` < B, and a shift subtracts only from fields that hold at least
    that much (a contraction lowers x_i and y_i by k_i <= min(b_i, a_i), a
    Poisson term lowers fields that are at least 1).  The output keys are
    decoded through the (base, d) table of `_unpacked`, so a key this or an
    earlier sum at the same truncation has decoded is not decoded again.  A
    pair over `room` costs no kernel call and no coefficient product.
    """
    (la, left), (lb, right) = left, right
    if not left or not right:
        return 1, {}
    d, base = len(next(iter(left))[0]), room + 1
    left = [(m1, _key(m1, base), n1, room - m1[3]) for m1, n1 in left.items()]
    right = [(m2, _key(m2, base), n2, m2[3]) for m2, n2 in right.items()]
    sums = accumulate(
        (k + shift, n * c)
        for m1, k1, n1, rest in left
        for m2, k2, n2, w2 in right
        if w2 <= rest
        for out in (kernel(m1, m2, base),)
        if out
        for k, n in ((k1 + k2, n1 * n2),)
        for shift, c in out
    )
    return _unpacked(sums, base, d, la * lb)


def _checked_terms(terms, d: int, cutoff: int, h_order: int) -> tuple:
    """The term map of a public constructor, checked and stored: coefficients
    made exact, zeros and monomials past the h-order or the weight cutoff
    dropped, a monomial with an exponent that is not an int >= 0 or of
    another dimension refused, and the rest scaled to the canonical
    (den, ints) (`sparse.integral`)."""
    clean = {}
    for mono, coeff in (terms or {}).items():
        exponents = (*mono.xexp, *mono.yexp, mono.hexp)
        if not all(isinstance(e, int) and e >= 0 for e in exponents):
            raise UsageError(f"monomial {mono!r} needs exponents that are ints >= 0")
        coeff = as_fraction(coeff)
        if coeff == 0 or mono.hexp > h_order or mono.weight > cutoff:
            continue
        if mono.dimension != d or len(mono.yexp) != d:
            raise UsageError(f"monomial {mono} does not match dimension {d}")
        clean[mono] = coeff
    return integral(clean)


def _checked_cutoff(cutoff) -> int:
    if not isinstance(cutoff, int) or cutoff < 0:
        raise UsageError(f"cutoff must be >= 0, got {cutoff!r}")
    return cutoff


class TruncatedPoly(IntTerms):
    """Sparse polynomial over Q in x, y, h, truncated at a weight cutoff.

    Immutable by convention: no method mutates `ints`, and instances may be
    shared freely.  The terms are stored as `den` and `ints` (monomial ->
    nonzero int) in the canonical form of `sparse.reduced`, with no
    over-cutoff monomial, so equal values have equal ints; `terms` reads
    them as `Fraction`s.  The linear structure (+, -, scaled, ==, hash) is
    the shared one of `sparse.IntTerms`.
    """

    __slots__ = ("d", "cutoff", "den", "ints")

    def __init__(self, d: int, cutoff: int, terms=None):
        if not isinstance(d, int) or d < 1:
            raise UsageError(f"dimension must be >= 1, got {d!r}")
        self.d = d
        self.cutoff = _checked_cutoff(cutoff)
        # weight >= 2 * hexp, so h-order cutoff // 2 drops nothing more
        self.den, self.ints = _checked_terms(terms, d, cutoff, cutoff // 2)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(d: int, cutoff: int) -> "TruncatedPoly":
        return TruncatedPoly(d, cutoff)

    @staticmethod
    def constant(value, d: int, cutoff: int) -> "TruncatedPoly":
        return TruncatedPoly(d, cutoff, {unit_monomial(d): as_fraction(value)})

    @staticmethod
    def one(d: int, cutoff: int) -> "TruncatedPoly":
        return TruncatedPoly.constant(1, d, cutoff)

    @staticmethod
    def x(i: int, d: int, cutoff: int) -> "TruncatedPoly":
        if not 0 <= i < d:
            raise UsageError(f"x index {i} out of range for d={d}")
        e = tuple(1 if j == i else 0 for j in range(d))
        return TruncatedPoly(d, cutoff, {Monomial(e, (0,) * d, 0): Fraction(1)})

    @staticmethod
    def y(i: int, d: int, cutoff: int) -> "TruncatedPoly":
        if not 0 <= i < d:
            raise UsageError(f"y index {i} out of range for d={d}")
        e = tuple(1 if j == i else 0 for j in range(d))
        return TruncatedPoly(d, cutoff, {Monomial((0,) * d, e, 0): Fraction(1)})

    @staticmethod
    def h(d: int, cutoff: int) -> "TruncatedPoly":
        return TruncatedPoly(d, cutoff, {Monomial((0,) * d, (0,) * d, 1): Fraction(1)})

    @staticmethod
    def coordinate(v: int, d: int, cutoff: int) -> "TruncatedPoly":
        """Coordinate by flat index: 0..d-1 are x's, d..2d-1 are y's."""
        if 0 <= v < d:
            return TruncatedPoly.x(v, d, cutoff)
        if d <= v < 2 * d:
            return TruncatedPoly.y(v - d, d, cutoff)
        raise UsageError(f"coordinate index {v} out of range for d={d}")

    # -- bookkeeping -------------------------------------------------------

    def _check_compat(self, other: "TruncatedPoly"):
        if self.d != other.d:
            raise UsageError(f"dimension mismatch: {self.d} vs {other.d}")
        if self.cutoff != other.cutoff:
            raise UsageError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")

    def _truncation(self):
        return (self.d, self.cutoff)

    def _with(self, den: int, ints: dict) -> "TruncatedPoly":
        # +, -, neg, scaled and the subsets below hand over clean ints
        return TruncatedPoly._trusted(self.d, self.cutoff, *reduced(den, ints))

    def _scalar(self, value) -> "TruncatedPoly":
        return TruncatedPoly.constant(value, self.d, self.cutoff)

    @staticmethod
    def _trusted(d: int, cutoff: int, den: int, ints: dict) -> "TruncatedPoly":
        """Wrap a kernel output that is already clean (canonical nonzero ints
        on d-dimensional monomials within the cutoff) without re-checking it."""
        poly = object.__new__(TruncatedPoly)
        poly.d, poly.cutoff, poly.den, poly.ints = d, cutoff, den, ints
        return poly

    def constant_term(self) -> Fraction:
        return Fraction(self.ints.get(unit_monomial(self.d), 0), self.den)

    def depends_on_h(self) -> bool:
        return any(m.hexp > 0 for m in self.ints)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def truncated(self, cutoff: int) -> "TruncatedPoly":
        """Forget terms above a lower cutoff (weight >= 2 * hexp, so that
        bounds the h-order too)."""
        if _checked_cutoff(cutoff) > self.cutoff:
            raise UsageError("truncated() cannot raise the cutoff; use lifted()")
        ints = {m: n for m, n in self.ints.items() if m.weight <= cutoff}
        return TruncatedPoly._trusted(self.d, cutoff, *reduced(self.den, ints))

    def lifted(self, cutoff: int) -> "TruncatedPoly":
        """Reinterpret at a higher cutoff.

        The missing weights are taken to be zero; callers own the semantic
        choice of lift (used internally where an operation must look two
        weights past its result, e.g. bracket-by-h division).
        """
        if _checked_cutoff(cutoff) < self.cutoff:
            raise UsageError("lifted() cannot lower the cutoff; use truncated()")
        return TruncatedPoly._trusted(self.d, cutoff, self.den, self.ints)

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compat(other)
        product = _pair_sum(self.store, other.store, self.cutoff, _product_kernel)
        return TruncatedPoly._trusted(self.d, self.cutoff, *product)

    __rmul__ = __mul__  # a TruncatedPoly operand is always on the left

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise UsageError("exponent must be a non-negative integer")
        result = TruncatedPoly.one(self.d, self.cutoff)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, v: int) -> "TruncatedPoly":
        """Formal partial derivative in coordinate v (0..d-1 x's, d..2d-1 y's).

        h is a deformation parameter, not a disc coordinate, so it is not
        differentiable here; an out-of-range index is a usage error.
        """
        if not 0 <= v < 2 * self.d:
            raise UsageError(f"coordinate index {v} out of range for d={self.d}")
        return self._with(self.den, _lowered(self.ints, v))

    def substitute(self, sub: "Substitution") -> "TruncatedPoly":
        """Substitute coordinate v -> images[v] for all 2d disc coordinates.

        `sub` is the `Substitution` of the images: it checks them once and
        caches their powers and monomial images, so a caller that
        substitutes through fixed images many times (as
        `darboux.FormalCoordChange` does) passes the same one each time.
        h is left untouched.
        """
        if not isinstance(sub, Substitution):
            raise UsageError(f"need a Substitution, got {type(sub).__name__}")
        self._check_compat(sub)
        return TruncatedPoly._trusted(self.d, self.cutoff, *sub.apply(self.store))

    def homogeneous_part(self, weight: int) -> "TruncatedPoly":
        return self._with(self.den, {m: n for m, n in self.ints.items() if m.weight == weight})

    def min_weight(self):
        return min((m.weight for m in self.ints), default=None)

    # -- presentation ------------------------------------------------------

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            mono_txt = str(mono)
            if mono_txt == "1":
                text = exact_str(coeff)
            elif coeff == 1:
                text = mono_txt
            elif coeff == -1:
                text = f"-{mono_txt}"
            else:
                text = f"{exact_str(coeff)}*{mono_txt}"
            parts.append(text)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"TruncatedPoly(d={self.d}, N={self.cutoff}, {self})"

    def to_json(self):
        return {
            "d": self.d,
            "N": self.cutoff,
            "terms": [
                [list(m.xexp), list(m.yexp), m.hexp, exact_str(c, ratio=True)]
                for m, c in self.sorted_terms()
            ],
        }


class Substitution:
    """A fixed substitution u_v -> images[v] of the 2d disc coordinates, as a
    linear map on the monomial basis.

    The images are checked once, here: they share one dimension and cutoff,
    and are h-free with zero constant term (origin-preserving), so
    substitution never moves weight downwards and truncation stays exact.
    The term x^a y^b h^c maps to h^c * image(x^a y^b), truncated at the
    cutoff.  The powers of the images and the image of each monomial are
    cached as they are first needed; no cached value is handed out.  A
    monomial's image is cached as its canonical ints over their den on the
    packed keys of `_pair_sum` in base B = cutoff + 1 (no field of a
    monomial within the cutoff reaches B), so `apply` takes an int term map,
    multiplies and sums on ints and keys, then reads each output key from
    the (base, d) table of `_unpacked` and returns the sums reduced.
    """

    __slots__ = ("d", "cutoff", "_powers", "_free", "_images")

    def __init__(self, images):
        if not images:
            raise UsageError("need substitution images, got none")
        first = images[0]
        if len(images) != 2 * first.d:
            raise UsageError(f"need {2 * first.d} images, got {len(images)}")
        for img in images:
            first._check_compat(img)
            if img.depends_on_h():
                raise UsageError("substitution images must be h-free")
            if img.constant_term() != 0:
                raise UsageError("substitution images must vanish at the origin")
        d, cutoff = first.d, first.cutoff
        self.d, self.cutoff = d, cutoff
        one = TruncatedPoly.one(d, cutoff)
        # per coordinate v: [images[v]^0, images[v]^1, ...] as far as needed
        self._powers = [[one, img] for img in images]
        self._free = {unit_monomial(d): one}  # h-free monomial -> image
        self._images = {}  # monomial -> (den, (key, int) pairs) of its image

    def _power(self, v: int, e: int) -> TruncatedPoly:
        powers = self._powers[v]
        while len(powers) <= e:
            powers.append(powers[-1] * powers[1])
        return powers[e]

    def _free_image(self, mono: Monomial) -> TruncatedPoly:
        """image(x^a y^b) = image(its part before the last variable) * a power."""
        image = self._free.get(mono)
        if image is None:
            d = self.d
            exps = mono.xexp + mono.yexp
            v = max(i for i, e in enumerate(exps) if e)
            head = exps[:v] + (0,) * (2 * d - v)
            prefix = self._free_image(Monomial(head[:d], head[d:], 0))
            image = self._free[mono] = prefix * self._power(v, exps[v])
        return image

    def _image(self, mono: Monomial) -> tuple:
        """(den, (key, int) pairs): the image of `mono` times den, keyed."""
        image = self._images.get(mono)
        if image is None:
            c = mono.hexp
            free = self._free_image(Monomial(mono.xexp, mono.yexp, 0))
            room = self.cutoff - 2 * c
            base = self.cutoff + 1
            h_key = c * base ** (2 * self.d)
            den, ints = reduced(free.den, {m: n for m, n in free.ints.items() if m.weight <= room})
            pairs = tuple((_key(m, base) + h_key, n) for m, n in ints.items())
            image = self._images[mono] = (den, pairs)
        return image

    def apply(self, store: tuple) -> tuple:
        """The image of an int term map (den, monomial -> int), as a new
        canonical (den, ints): each monomial's image is raised to the lcm of
        the image denominators it uses, and the sums are reduced once.
        """
        den, ints = store
        images = [(n, self._image(mono)) for mono, n in ints.items()]
        scale = lcm(*[image_den for _, (image_den, _) in images])
        sums = accumulate(
            (key, f * k)
            for n, (image_den, pairs) in images
            for f in (n * (scale // image_den),)
            for key, k in pairs
        )
        return _unpacked(sums, self.cutoff + 1, self.d, den * scale)


# ---------------------------------------------------------------------------
# differential forms
# ---------------------------------------------------------------------------


def coordinate_name(v: int, d: int) -> str:
    return f"x{v + 1}" if v < d else f"y{v - d + 1}"


def parse_int(text: str, pos=None) -> int:
    """int(text) of ASCII digits; past Python's int digit limit, a UsageError."""
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        where = "" if pos is None else f" (at position {pos})"
        raise UsageError(
            f"an integer of {len(text)} digits is past the limit of {limit} digits{where}"
        )
    return int(text)


def parse_coordinate(name: str, d: int, pos=None, forms=True):
    """The coordinate a name of the expression grammar stands for, as
    (flat index, whether it is the 1-form): x1..xd are 0..d-1, y1..yd are
    d..2d-1, dx_i and dy_i their 1-forms, and h is (None, False).

    The inverse of `coordinate_name`, shared by the polynomial and the Weyl
    readers so that both refuse a name alike: a UsageError, with `pos` if
    given, for an unknown name, an index out of range and, unless `forms`,
    a 1-form.
    """
    where = "" if pos is None else f" (at position {pos})"
    if name == "h":
        return None, False
    form = name.startswith("d") and len(name) > 1
    body = name[1:] if form else name
    digits = body[1:]
    # ASCII digits without a leading zero: x01 is not x1
    if not (
        body[:1] in ("x", "y")
        and digits.isascii()
        and digits.isdigit()
        and (digits == "0" or not digits.startswith("0"))
    ):
        raise UsageError(f"unknown variable {name}{where}")
    index = parse_int(digits, pos) - 1
    if not 0 <= index < d:
        raise UsageError(f"unknown variable {name} for d={d}{where}")
    if form and not forms:
        raise UsageError(f"form symbol {name} is not a Weyl generator{where}")
    return (index if body[0] == "x" else d + index), form


def _merge_indices(left: tuple[int, ...], right: tuple[int, ...]):
    """Concatenate strictly increasing index tuples; None if any repeats.

    Returns (sign, sorted tuple) with the sign of the merging permutation:
    -1 to the number of (left, right) pairs that the merge puts in reverse.
    """
    merged = left + right
    if len(set(merged)) != len(merged):
        return None
    swaps = sum(a > b for a in left for b in right)
    return -1 if swaps % 2 else 1, tuple(sorted(merged))


def _checked_components(components, d: int, cutoff: int, degree: int) -> dict:
    """The components of a degree-`degree` form or of a bivector (degree 2),
    checked: each key a strictly increasing tuple of coordinates 0..2d-1,
    each value a TruncatedPoly of dimension d and cutoff `cutoff`; zero
    components are dropped."""
    if not 0 <= degree <= 2 * d:
        raise UsageError(f"form degree {degree} out of range for d={d}")
    clean = {}
    for idx, poly in (components or {}).items():
        idx = tuple(idx)
        if len(idx) != degree or list(idx) != sorted(set(idx)):
            raise UsageError(f"bad index tuple {idx} for degree {degree}")
        if any(not 0 <= v < 2 * d for v in idx):
            raise UsageError(f"index tuple {idx} out of range for d={d}")
        if not isinstance(poly, TruncatedPoly):
            raise UsageError(f"component {idx} is not a TruncatedPoly: {poly!r}")
        if poly.d != d or poly.cutoff != cutoff:
            raise UsageError("component truncation mismatch")
        if poly.ints:
            clean[idx] = poly
    return clean


class DifferentialForm(LinearTerms):
    """A degree-k form with TruncatedPoly components on the 2d-disc.

    `terms` maps strictly increasing tuples over the 2d coordinate 1-forms
    (0..d-1 = dx_i, d..2d-1 = dy_i) to nonzero components.  The linear
    structure (+, -, scaled, ==, hash) is the shared one of
    `sparse.LinearTerms`, with components for coefficients: forms of another
    truncation or degree are refused, and so is a scalar operand.
    """

    __slots__ = ("d", "cutoff", "degree", "terms")

    def __init__(self, d: int, cutoff: int, degree: int, components=None):
        self.d = d
        self.cutoff = cutoff
        self.degree = degree
        self.terms = _checked_components(components, d, cutoff, degree)

    @staticmethod
    def zero(d: int, cutoff: int, degree: int) -> "DifferentialForm":
        return DifferentialForm(d, cutoff, degree)

    @staticmethod
    def from_poly(p: TruncatedPoly) -> "DifferentialForm":
        return DifferentialForm(p.d, p.cutoff, 0, {(): p})

    @staticmethod
    def d_coordinate(v: int, d: int, cutoff: int) -> "DifferentialForm":
        """The constant 1-form dx_i (v < d) or dy_i (v >= d)."""
        if not 0 <= v < 2 * d:
            raise UsageError(f"coordinate index {v} out of range for d={d}")
        return DifferentialForm(
            d, cutoff, 1, {(v,): TruncatedPoly.one(d, cutoff)}
        )

    # -- linear structure ----------------------------------------------------

    def _check_compat(self, other: "DifferentialForm"):
        if self.d != other.d or self.cutoff != other.cutoff:
            raise UsageError("form truncation mismatch")
        if self.degree != other.degree:
            raise UsageError("cannot add forms of different degree")

    def _truncation(self):
        return (self.d, self.cutoff, self.degree)

    def _with(self, terms) -> "DifferentialForm":
        # sums and multiples of checked components: only the zeros to drop
        form = object.__new__(DifferentialForm)
        form.d, form.cutoff, form.degree = self.d, self.cutoff, self.degree
        form.terms = {idx: poly for idx, poly in terms.items() if poly.ints}
        return form

    def _scalar(self, value):
        raise UsageError(f"cannot add the scalar {value} to a {self.degree}-form")

    def component(self, idx) -> TruncatedPoly:
        return self.terms.get(tuple(idx), TruncatedPoly.zero(self.d, self.cutoff))

    def poly_mul(self, p: TruncatedPoly) -> "DifferentialForm":
        return self._with({idx: poly * p for idx, poly in self.terms.items()})

    def __str__(self):
        """The form as the expression grammar reads it back: each component
        times its basis form, (p)*dx1/\\dy1; a zero k-form, k > 0, is
        0 times the first basis k-form, so that it keeps its degree."""
        if self.degree == 0:
            return str(self.component(()))
        terms = self.terms or {tuple(range(self.degree)): "0"}
        return " + ".join(
            f"({poly})*" + "/\\".join(f"d{coordinate_name(v, self.d)}" for v in idx)
            for idx, poly in sorted(terms.items())
        )

    def __repr__(self):
        return f"DifferentialForm(d={self.d}, N={self.cutoff}, deg={self.degree}, {self})"


def de_rham_d(form: DifferentialForm) -> DifferentialForm:
    """Exterior derivative; satisfies d(d(form)) = 0 exactly."""
    if form.degree >= 2 * form.d:
        raise UsageError("de Rham differential undefined above top degree")

    def pieces():
        for idx, poly in form.terms.items():
            for v in range(2 * form.d):
                merged = _merge_indices((v,), idx)
                if merged is None:
                    continue
                sign, new_idx = merged
                dpoly = poly.partial(v)
                yield new_idx, dpoly if sign == 1 else -dpoly

    return DifferentialForm(form.d, form.cutoff, form.degree + 1, accumulate(pieces()))


def wedge(a: DifferentialForm, b: DifferentialForm) -> DifferentialForm:
    """Exterior product; graded-commutative and associative."""
    if a.d != b.d or a.cutoff != b.cutoff:
        raise UsageError("form truncation mismatch")
    degree = a.degree + b.degree
    if degree > 2 * a.d:
        raise UsageError("wedge degree overflow")

    def pieces():
        for ia, pa in a.terms.items():
            for ib, pb in b.terms.items():
                merged = _merge_indices(ia, ib)
                if merged is None:
                    continue
                sign, idx = merged
                piece = pa * pb
                yield idx, piece if sign == 1 else -piece

    return DifferentialForm(a.d, a.cutoff, degree, accumulate(pieces()))


def euler_contraction(form: DifferentialForm) -> DifferentialForm:
    """Interior product with the Euler field sum_v u_v d/du_v."""
    if form.degree == 0:
        raise UsageError("cannot contract a 0-form")

    def pieces():
        for idx, poly in form.terms.items():
            for pos, v in enumerate(idx):
                piece = poly * TruncatedPoly.coordinate(v, form.d, form.cutoff)
                yield idx[:pos] + idx[pos + 1 :], -piece if pos % 2 else piece

    return DifferentialForm(form.d, form.cutoff, form.degree - 1, accumulate(pieces()))


# ---------------------------------------------------------------------------
# Poisson structures
# ---------------------------------------------------------------------------


class PoissonBivector:
    """Antisymmetric 2d x 2d matrix of coefficients Theta_{uv}.

    The bracket convention is {f, g} = sum_{u,v} Theta_{uv} d_u f d_v g, and
    the standard bivector is normalized so {x_i, y_j} = delta_ij, matching
    the Weyl commutator [x_i, y_j] = delta_ij h.  The upper triangle
    `entries` is checked as the components of a 2-form are.
    """

    __slots__ = ("d", "cutoff", "entries")

    def __init__(self, d: int, cutoff: int, upper=None):
        self.d = d
        self.cutoff = cutoff
        self.entries = _checked_components(upper, d, cutoff, 2)

    @staticmethod
    def standard(d: int, cutoff: int) -> "PoissonBivector":
        one = TruncatedPoly.one(d, cutoff)
        return PoissonBivector(d, cutoff, {(i, d + i): one for i in range(d)})

    def __eq__(self, other):
        if not isinstance(other, PoissonBivector):
            return NotImplemented
        return (
            self.d == other.d
            and self.cutoff == other.cutoff
            and self.entries == other.entries
        )


def poisson_bracket(
    f: TruncatedPoly, g: TruncatedPoly, theta: PoissonBivector
) -> TruncatedPoly:
    """{f, g} = sum Theta_uv d_u f d_v g for h-free functions on the disc:
    each derivative taken once, and each upper-triangle entry (i, j) of Theta
    times d_i f d_j g - d_j f d_i g, every product a `_pair_sum` of int term
    maps and every sum a `sparse.combined`.  No intermediate polynomial is
    built."""
    f._check_compat(g)
    if f.d != theta.d or f.cutoff != theta.cutoff:
        raise UsageError("bivector truncation mismatch")
    if f.depends_on_h() or g.depends_on_h():
        raise UsageError("poisson_bracket inputs must be h-free")
    df, dg = ([(p.den, _lowered(p.ints, v)) for v in range(2 * f.d)] for p in (f, g))
    product = partial(_pair_sum, room=f.cutoff, kernel=_product_kernel)
    bracket = combined(
        *(
            product(entry.store, combined(product(df[i], dg[j]), (-den, ji)))
            for (i, j), entry in theta.entries.items()
            for den, ji in (product(df[j], dg[i]),)
        )
    )
    return TruncatedPoly._trusted(f.d, f.cutoff, *bracket)


def standard_poisson(f: TruncatedPoly, g: TruncatedPoly) -> TruncatedPoly:
    """{f, g} for the constant standard bivector: the Poisson kernel summed
    over the term pairs whose weights fit under cutoff + 2."""
    if f.depends_on_h() or g.depends_on_h():
        raise UsageError("standard_poisson inputs must be h-free")
    f._check_compat(g)
    bracket = _pair_sum(f.store, g.store, f.cutoff + 2, _poisson_kernel)
    return TruncatedPoly._trusted(f.d, f.cutoff, *bracket)


def all_monomials(d: int, max_degree: int, min_degree: int = 0):
    """All h-free monomials in 2d variables with degree in the given range."""
    if d < 1:
        raise UsageError(f"dimension must be >= 1, got {d}")
    result = []
    for total in range(min_degree, max_degree + 1):
        for exps in _compositions(total, 2 * d):
            result.append(Monomial(tuple(exps[:d]), tuple(exps[d:]), 0))
    return result


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
