"""Sparse coefficient vectors: a dict from key to nonzero exact coefficient.

This module is the one owner of that format.  Polynomials and Weyl elements
(keyed by monomial), Lie algebra vectors (keyed by basis index), cochain
values, form components and transported symbols all sum their terms through
`accumulate`, so a change of key or coefficient representation is made here.
A stored vector never holds a zero.  `exact_str` writes a coefficient in
full, also past Python's limit on the digits of str(int).

Polynomials and Weyl elements store a term map once (`IntTerms`), as `den`
and key -> nonzero int with gcd(den, *ints) == 1 (`reduced`).  Their
kernels (`series._pair_sum`, behind `TruncatedPoly.__mul__`, both Poisson
brackets, `weyl.star` and `weyl.commutator`, and `Substitution.apply`) take
and return that form, summing on ints through `accumulate` on packed
monomial keys (see `series`); `integral` makes it at a checked constructor.

The verification sweeps of `liealg` check their sums on ints too, reading
the structure constants as `liealg` stores them: rows[a][b] and rows[b][a],
a < b, are one tuple of the nonzero (t, int) terms of den * [e_a, e_b], read
negated in row b.  Each in-cutoff pair is one call of a kernel:
`jacobi_sums` for the cyclic sums of `verify_jacobi` over the pair's
k-range, `map_defects` for f([e_i, e_j]) - [f e_i, f e_j] in
`LieMap.verify`.  A kernel runs its row lookups, its one sign comparison per
term and its int multiply-adds in one loop, with no tuple or generator frame
per term.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import UsageError

EMPTY = MappingProxyType({})


def accumulate(pairs, start=None) -> dict:
    """Sum (key, coeff) pairs onto a copy of `start`; keys that cancel are dropped.

    Zeros are dropped after the sum, so every surviving key keeps the
    position of its first occurrence.  Always returns a new dict.
    """
    out = dict(start) if start else {}
    get = out.get
    for key, coeff in pairs:
        old = get(key)
        out[key] = coeff if old is None else old + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def integral(terms):
    """(den, terms scaled by den as int coefficients), den the lcm of the
    denominators of `terms` (1 for an empty map)."""
    den = lcm(*[c.denominator for c in terms.values()])
    return den, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def reduced(den: int, ints: dict) -> tuple:
    """(den, ints) divided by gcd(den, *ints), for den >= 1: the canonical
    form of an int term map, (1, {}) when it has no terms."""
    g = gcd(den, *ints.values())
    return (den, ints) if g == 1 else (den // g, {key: n // g for key, n in ints.items()})


def combined(*stores) -> tuple:
    """The canonical (den, ints) of the sum of int term maps (den, ints),
    each raised to the lcm of the denominators; a negative den subtracts its
    map.  Keys keep the order of `accumulate`."""
    den = lcm(*[d for d, _ in stores])
    return reduced(
        den, accumulate((key, n * (den // d)) for d, ints in stores for key, n in ints.items())
    )


def rational(pairs, den: int) -> dict:
    """Sum (key, int or Fraction) pairs and divide each sum by `den`, as
    Fractions.

    The rational side of `integral`: keys whose sums cancel are dropped and
    the order is that of `accumulate`.
    """
    return {key: Fraction(n, den) for key, n in accumulate(pairs).items()}


_NONE = ()


def jacobi_sums(rows, i: int, j: int, ks) -> dict:
    """The cyclic sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    for every k of `ks`, i < j < k, on the ints of an algebra's store.

    rows[a][b] holds the (t, int) terms of [e_a, e_b] when a < b, and of
    [e_b, e_a] when a > b, so a read there is negated.  The sum for k and
    component t is keyed k * n + t, n the number of rows, and only the
    nonzero sums are kept.  Each term [[e_a,e_b],e_c] is read as
    -[e_c,[e_a,e_b]], in row c.
    """
    n = len(rows)
    out = {}
    get = out.get
    row_i, row_j = rows[i], rows[j]
    ij = row_i.get(j, _NONE)
    for k in ks:
        base = k * n
        row_k = rows[k]
        for m, c in ij:
            if k > m:
                c = -c
            for t, v in row_k.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
        for m, c in row_j.get(k, _NONE):
            if i > m:
                c = -c
            for t, v in row_i.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
        # [e_k, e_i] is the stored [e_i, e_k] negated
        for m, c in row_k.get(i, _NONE):
            if j < m:
                c = -c
            for t, v in row_j.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
    return {key: v for key, v in out.items() if v} if any(out.values()) else {}


def map_defects(source, target, columns, i: int, j: int, source_scale, target_scale):
    """f([e_i, e_j]) - [f e_i, f e_j] on ints, keyed by target index; only
    the nonzero sums are kept.

    `source` and `target` are the rows of two algebras' stores (see
    `jacobi_sums`), i < j, and `columns[k]` holds the (t, int) terms of
    f(e_k).  The source side is multiplied by `source_scale` and the target
    side by `target_scale`, the factors under which the two sides agree.
    """
    out = {}
    get = out.get
    for k, c in source[i].get(j, _NONE):
        c *= source_scale
        for t, v in columns[k]:
            out[t] = get(t, 0) + c * v
    for a, ca in columns[i]:
        row = target[a]
        ca *= target_scale
        for b, cb in columns[j]:
            cab = ca * cb if a < b else -ca * cb
            for t, v in row.get(b, _NONE):
                out[t] = get(t, 0) - cab * v
    return {key: v for key, v in out.items() if v} if any(out.values()) else {}


def add(u, v) -> dict:
    return accumulate(v.items(), u)


def sub(u, v) -> dict:
    return accumulate(((key, -coeff) for key, coeff in v.items()), u)


def scale(u, value) -> dict:
    if not value:
        return {}
    return {key: coeff * value for key, coeff in u.items()}


def check_exact_vectors(vectors: Mapping, what: str) -> int:
    """Refuse, with a UsageError naming `what` and the key, the first value
    in the vectors of `vectors` that is not an int or a Fraction: the rule
    of every constructor that takes vectors.  Returns the lcm of the
    denominators of their values (1 for none)."""
    dens = {1}
    for key, vec in vectors.items():
        for c in vec.values():
            if not isinstance(c, (int, Fraction)):
                raise UsageError(f"{what} {key!r}: not an exact rational: {c!r}")
            dens.add(c.denominator)
    return lcm(*dens)


def exact_str(c, ratio=False) -> str:
    """str(c) of an int or a Fraction, in full, or "p/q" when `ratio` (the
    JSON form).  Past `sys.get_int_max_str_digits()`, which guards the
    reading of text, an int is written half by half around a power of ten."""
    if ratio or c.denominator != 1:
        return f"{exact_str(c.numerator)}/{exact_str(c.denominator)}"
    try:
        return str(c)
    except ValueError:
        n = abs(c.numerator)
        k = n.bit_length() * 3 // 20  # about half its digits
        high, low = divmod(n, 10**k)
        return "-" * (c < 0) + exact_str(high) + exact_str(low).zfill(k)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise UsageError(f"not an exact rational: {value!r}")


class LinearTerms:
    """The vector-space structure of an element held as a `terms` vector.

    Subclasses store `terms` (key -> nonzero coefficient, all within their
    truncation: for differential forms, a nonzero polynomial on an index
    tuple) and provide `_check_compat(other)`, `_truncation()` (what two
    elements must share to be equal), `_with(terms)` (an element of the same
    truncation, dropping what the sum left zero where the coefficients are
    not plain numbers) and `_scalar(value)` (a multiple of the unit, or a
    refusal).  An int or Fraction operand goes to `_scalar`.  `IntTerms`
    keeps the int form of polynomials and Weyl elements instead.
    """

    __slots__ = ()

    def _operand(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scalar(other)
        if type(other) is not type(self):
            return None
        self._check_compat(other)
        return other

    def __add__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self._sum(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self.scaled(-1)

    def _sum(self, other, sign: int):
        return self._with((add if sign > 0 else sub)(self.terms, other.terms))

    def scaled(self, value):
        return self._with(scale(self.terms, as_fraction(value)))

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def store(self):
        return self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._truncation() == other._truncation() and self.store == other.store

    def __hash__(self):
        return hash(self._truncation() + (frozenset(self.terms.items()),))


class FractionView(Mapping):
    """The term map of an `IntTerms` element read as `Fraction`s, each built
    when its key is read; length, iteration and keys read the ints alone."""

    __slots__ = ("den", "ints")

    def __init__(self, den: int, ints: dict):
        self.den, self.ints = den, ints

    def __getitem__(self, key):
        return Fraction(self.ints[key], self.den)

    def __iter__(self):
        return iter(self.ints)

    def __len__(self):
        return len(self.ints)


class IntTerms(LinearTerms):
    """The linear structure of an element whose term map is stored once, as
    `den` and `ints` (key -> nonzero int) in the canonical form of
    `reduced`.  The form is unique, so == and hash read the ints, and
    `terms` is a read-only `FractionView` of them.  `_with(den, ints)`
    gives the element of the same truncation with those ints reduced.
    """

    __slots__ = ()

    @property
    def terms(self) -> FractionView:
        return FractionView(self.den, self.ints)

    @property
    def store(self) -> tuple:
        return self.den, self.ints

    def _sum(self, other, sign: int):
        return self._with(*combined(self.store, (sign * other.den, other.ints)))

    def scaled(self, value):
        value = as_fraction(value)
        ints = {key: n * value.numerator for key, n in self.ints.items()} if value else {}
        return self._with(self.den * value.denominator, ints)

    def is_zero(self) -> bool:
        return not self.ints

    def __hash__(self):
        return hash(self._truncation() + (self.den, frozenset(self.ints.items())))
