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

The verification sweeps of `liealg` check their sums on ints too.  Each
sweep reads its stored brackets once into a `bracket_table` (row a, column b:
the (t, int) terms of [e_a, e_b]; the Jacobi table holds both orientations)
and checks each in-cutoff pair with one call of a kernel: `jacobi_sums` for
the cyclic sums of `verify_jacobi` over the pair's k-range, `map_defects`
for f([e_i, e_j]) - [f e_i, f e_j] in `LieMap.verify`.  A kernel runs its
table lookups and int multiply-adds in one loop, with no tuple or generator
frame per term.  The tables are dropped with their sweep.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping, ValuesView
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


def rational(pairs, den: int) -> dict:
    """Sum (key, int) pairs and divide each sum by `den`, as Fractions.

    The rational side of `integral`: keys whose ints cancel are dropped and
    the order is that of `accumulate`.
    """
    return {key: Fraction(n, den) for key, n in accumulate(pairs).items()}


def bracket_table(items, dim: int, den: int, factor: int = 1, both=True) -> list:
    """The integer table of an antisymmetric bracket on a basis of `dim`.

    `items` gives each stored pair (a, b), a < b, with [e_a, e_b], whose
    denominators divide `den`.  Row a of the table maps b to the terms of
    [e_a, e_b] as a tuple of (t, int) pairs, scaled by den * factor, and,
    when `both`, row b maps a to the same terms negated; a pair not given
    and the diagonal are absent.
    """
    rows = [{} for _ in range(dim)]
    scale = den * factor
    for (a, b), vec in items:
        terms = tuple(
            [(t, c.numerator * (scale // c.denominator)) for t, c in vec.items()]
        )
        rows[a][b] = terms
        if both:
            rows[b][a] = tuple([(t, -n) for t, n in terms])
    return rows


_NONE = ()


def jacobi_sums(table, i: int, j: int, ks) -> dict:
    """The cyclic sums [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
    for every k of `ks`, on the ints of a `bracket_table`.

    The sum for k and component t is keyed k * n + t, n the dimension of
    the table, and only the nonzero sums are kept.  Each term [[e_a,e_b],e_c]
    is read as -[e_c,[e_a,e_b]], in row c of the table.
    """
    n = len(table)
    out = {}
    get = out.get
    row_i, row_j = table[i], table[j]
    ij = row_i.get(j, _NONE)
    for k in ks:
        base = k * n
        row_k = table[k]
        for m, c in ij:
            for t, v in row_k.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
        for m, c in row_j.get(k, _NONE):
            for t, v in row_i.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
        for m, c in row_k.get(i, _NONE):
            for t, v in row_j.get(m, _NONE):
                t += base
                out[t] = get(t, 0) - c * v
    return {key: v for key, v in out.items() if v} if any(out.values()) else {}


def map_defects(source, target, columns, i: int, j: int) -> dict:
    """f([e_i, e_j]) - [f e_i, f e_j] on ints, keyed by target index; only
    the nonzero sums are kept.

    `source` and `target` are `bracket_table`s in the orientation a < b
    only, and `columns[k]` holds the (t, int) terms of f(e_k), all at
    scales under which the two sides agree.
    """
    out = {}
    get = out.get
    for k, c in source[i].get(j, _NONE):
        for t, v in columns[k]:
            out[t] = get(t, 0) + c * v
    for a, ca in columns[i]:
        for b, cb in columns[j]:
            if a < b:
                cab, terms = ca * cb, target[a].get(b, _NONE)
            else:
                cab, terms = -ca * cb, target[b].get(a, _NONE)
            for t, v in terms:
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


class FrozenVectors(Mapping):
    """A read-only map of vectors whose vectors also read as read-only.

    It takes the dict of vectors over.  The vectors stay plain dicts inside,
    so freezing costs no memory per vector; each read wraps one in a
    `MappingProxyType`.  `items()` and `values()` walk the inner dict.
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

    def items(self):
        return _FrozenItems(self)

    def values(self):
        return _FrozenValues(self)


class _FrozenItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        for key, vec in self._mapping._vectors.items():
            yield key, MappingProxyType(vec)


class _FrozenValues(ValuesView):
    __slots__ = ()

    def __iter__(self):
        return map(MappingProxyType, self._mapping._vectors.values())


def check_exact_vectors(vectors: Mapping, what: str) -> int:
    """Refuse, with a UsageError naming `what` and the key, the first value
    in the vectors of `vectors` that is not an int or a Fraction: the rule
    of every constructor that stores vectors as given.  Returns the lcm of
    the denominators of their values (1 for none)."""
    dens = {1}
    for key, vec in vectors.items():
        for c in vec.values():
            if not isinstance(c, (int, Fraction)):
                raise UsageError(f"{what} {key!r}: not an exact rational: {c!r}")
            dens.add(c.denominator)
    return lcm(*dens)


def as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise UsageError(f"not an exact rational: {value!r}")


class LinearTerms:
    """The vector-space structure of an element held as a `terms` vector.

    Subclasses store `terms` (key -> nonzero coefficient, all within their
    truncation: a Fraction on a monomial for polynomials and Weyl elements,
    a nonzero polynomial on an index tuple for differential forms) and
    provide `_check_compat(other)`, `_truncation()` (what two elements must
    share to be equal), `_with(terms)` (an element of the same truncation,
    dropping what the sum left zero where the coefficients are not plain
    numbers) and `_scalar(value)` (a multiple of the unit, or a refusal).
    An int or Fraction operand goes to `_scalar`.
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
