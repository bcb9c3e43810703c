"""Sparse coefficient vectors: a dict from key to nonzero exact coefficient.

This module is the one owner of that format.  Polynomials and Weyl elements
(keyed by monomial), Lie algebra vectors (keyed by basis index), cochain
values, form components and transported symbols all sum their terms through
`accumulate`, so a change of key or coefficient representation is made here.
A stored vector never holds a zero.  Vectors kept inside shared objects
(cached structure constants, map columns) are held in `FrozenVectors`, so a
caller cannot change them in place.

The products of term maps (`series._pair_sum`, the one pair loop behind
`TruncatedPoly.__mul__`, `standard_poisson`, `weyl.star` and
`weyl.commutator`, and `Substitution.apply`) compute integer-first here:
`integral` scales a term map by the lcm of its denominators to int
coefficients, the products are summed on ints, and `rational` divides each
summed int by the common scale, so one `Fraction` is built per output term.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
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


def integral(terms, den=None):
    """(den, terms scaled by den as int coefficients).

    `den` defaults to the lcm of the denominators of `terms` (1 for an
    empty map); a given one must be a multiple of each of them.
    """
    if den is None:
        den = lcm(*[c.denominator for c in terms.values()])
    return den, {key: c.numerator * (den // c.denominator) for key, c in terms.items()}


def common_denominator(vectors) -> int:
    """The lcm of the denominators of every coefficient of the vectors."""
    return lcm(*{c.denominator for vec in vectors for c in vec.values()})


def rational(pairs, den: int) -> dict:
    """Sum (key, int) pairs and divide each sum by `den`, as Fractions.

    The rational side of `integral`: keys whose ints cancel are dropped and
    the order is that of `accumulate`.
    """
    return {key: Fraction(n, den) for key, n in accumulate(pairs).items()}


def add(u, v) -> dict:
    return accumulate(v.items(), u)


def sub(u, v) -> dict:
    return accumulate(((key, -coeff) for key, coeff in v.items()), u)


def scale(u, value) -> dict:
    if not value:
        return {}
    return {key: coeff * value for key, coeff in u.items()}


class FrozenVectors(Mapping):
    """A read-only map of vectors whose vectors also read as read-only.

    It takes the dict of vectors over.  The vectors stay plain dicts inside,
    so freezing costs no memory per vector; each read wraps one in a
    `MappingProxyType`.
    """

    __slots__ = ("_vectors",)

    def __init__(self, vectors):
        self._vectors = vectors

    def __getitem__(self, key):
        return MappingProxyType(self._vectors[key])

    def get(self, key, default=None):
        vec = self._vectors.get(key)
        return default if vec is None else MappingProxyType(vec)

    def __contains__(self, key):
        return key in self._vectors

    def __iter__(self):
        return iter(self._vectors)

    def __len__(self):
        return len(self._vectors)


def check_exact_vectors(vectors: Mapping, what: str):
    """Refuse, with a UsageError naming `what` and the key, the first value
    in the vectors of `vectors` that is not an int or a Fraction: the rule
    of every constructor that stores vectors as given."""
    for key, vec in vectors.items():
        for c in vec.values():
            if not isinstance(c, (int, Fraction)):
                raise UsageError(f"{what} {key!r}: not an exact rational: {c!r}")


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise UsageError(f"not an exact rational: {value!r}")


class LinearTerms:
    """The vector-space structure of an element held as a `terms` vector.

    Subclasses store `terms` (monomial -> nonzero Fraction, all within their
    truncation) and provide `_check_compat(other)`, `_truncation()` (what two
    elements must share to be equal), `_with(terms)` (an element of the same
    truncation) and `_scalar(value)` (a multiple of the unit).  An int or
    Fraction operand acts as a multiple of the unit.
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
        if other is None:
            return NotImplemented
        return self._with(add(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._with(sub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._with({key: -coeff for key, coeff in self.terms.items()})

    def scaled(self, value):
        return self._with(scale(self.terms, as_fraction(value)))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._truncation() == other._truncation() and self.terms == other.terms

    def __hash__(self):
        return hash(self._truncation() + (frozenset(self.terms.items()),))
