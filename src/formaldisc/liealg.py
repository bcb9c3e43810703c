"""Weight-graded Lie algebras given by exact structure constants.

A GradedLieAlgebra has a finite ordered basis with integer weights.  It
keeps its structure constants once, as ints over `den`, the lcm of their
denominators: each nonzero [e_i, e_j], i < j, is one tuple of the (t, int)
terms of den * [e_i, e_j], none of them zero.  Row a of the store maps b to
the tuple of the pair {a, b}, so both orientations share it and a reader
negates it when a > b.  `brackets` is the read-only map of the stored pairs
i < j to their tuples, and `bracket(i, j)` reads one back as Fractions.  A
LinearMap keeps its nonzero columns as (t, int) tuples over its own `den`.
The sweeps (`sparse.jacobi_sums`, `sparse.map_defects`), `restriction` and
the CE rows of `cohomology` read the ints as stored.  Tuples cannot change
in place, so built algebras are cached and shared as they are.

Brackets are graded: [w_a, w_b] lands in weight w_a + w_b.  Since some
weights are negative, the span of over-cutoff weights is not an ideal, so a
pair of basis elements is "in cutoff" only when the weight of its bracket
fits under the cutoff; verification sweeps exempt (and count) the others.
`tabulate` builds an algebra from a basis of tags and a bracket on tags,
reading the bracket on the in-cutoff pairs only; `restriction` reads a
subalgebra, or a quotient by an ideal of tags, off an algebra already built.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import comb, gcd
from types import MappingProxyType

from . import linalg
from .errors import CheckFailure, UsageError
from .sparse import (
    accumulate,
    check_exact_vectors,
    jacobi_sums,
    map_defects,
    rational,
    sub,
)

# basis index -> nonzero Fraction
Vector = dict


def _integer_terms(vectors, what: str, size: int):
    """(den, {key: the nonzero (t, int) terms of den * vector}) for the
    vectors that are not zero, den the lcm of their denominators.  A nonzero
    term off the basis 0..size-1 is a UsageError naming `what`, the key and
    the index."""
    den = check_exact_vectors(vectors, what)
    stored = {}
    for key, vec in vectors.items():
        terms = tuple(
            [(t, c.numerator * (den // c.denominator)) for t, c in vec.items() if c]
        )
        if terms:
            if min(terms)[0] < 0 or max(terms)[0] >= size:
                bad = next(t for t, _ in terms if not 0 <= t < size)
                raise UsageError(
                    f"{what} {key!r}: index {bad} is off the basis 0..{size - 1}"
                )
            stored[key] = terms
    return den, stored


def _later_indices(weights):
    """later(j, bound): the indices k > j with weights[k] <= bound, ascending.

    The weights need not be sorted: there is one ascending index list per
    distinct weight level, holding every index at or below it.
    """
    levels = sorted(set(weights))
    below = [[k for k, w in enumerate(weights) if w <= level] for level in levels]

    def later(j: int, bound: int):
        pos = bisect_right(levels, bound)
        if not pos:
            return ()
        ks = below[pos - 1]
        return ks[bisect_right(ks, j):]

    return later


@dataclass
class GradedLieAlgebra:
    name: str
    labels: tuple[str, ...]
    weights: tuple[int, ...]
    # given as Fraction vectors on pairs i < j, kept as their int tuples
    brackets: dict[tuple[int, int], Vector]
    cutoff: int
    tags: tuple = ()
    den: int = field(init=False)

    def __post_init__(self):
        if len(self.labels) != len(self.weights):
            raise UsageError("labels and weights must align")
        for (i, j) in self.brackets:
            if not 0 <= i < j < len(self.labels):
                raise UsageError(f"bracket key ({i},{j}) must satisfy i<j")
        self._index = {label: k for k, label in enumerate(self.labels)}
        what = f"{self.name}: bracket"
        self._keep(*_integer_terms(self.brackets, what, len(self.labels)))

    def _keep(self, den: int, stored: dict):
        """Store `stored`, pairs i < j to their nonzero (t, int) terms over
        den, with den reduced to the lcm of the denominators."""
        if den > 1:
            g = gcd(den, *(n for terms in stored.values() for _, n in terms))
            if g > 1:
                den //= g
                stored = {
                    key: tuple([(t, n // g) for t, n in terms])
                    for key, terms in stored.items()
                }
        self._rows = [{} for _ in self.labels]
        for (i, j), terms in stored.items():
            self._rows[i][j] = self._rows[j][i] = terms
        self.den, self.brackets = den, MappingProxyType(stored)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def bracket(self, i: int, j: int) -> Vector:
        terms = self._rows[i].get(j, ())
        return {t: Fraction(n if i < j else -n, self.den) for t, n in terms}

    def bracket_vec(self, u: Vector, v: Vector) -> Vector:
        rows = self._rows
        pairs = (
            (t, c * n)
            for i, ci in u.items()
            for j, cj in v.items()
            for terms in (rows[i].get(j),)
            if terms
            for c in (ci * cj if i < j else -ci * cj,)
            for t, n in terms
        )
        return accumulate(pairs) if self.den == 1 else rational(pairs, self.den)

    def in_cutoff_pair(self, i: int, j: int) -> bool:
        return self.weights[i] + self.weights[j] <= self.cutoff

    def weight_dims(self) -> Counter:
        return Counter(self.weights)

    def basis_indices_of_weight(self, w: int):
        return [i for i, wi in enumerate(self.weights) if wi == w]

    # -- verification ------------------------------------------------------

    def verify_graded(self):
        """Every stored bracket component sits in weight w_i + w_j."""
        for (i, j), terms in self.brackets.items():
            for k, _ in terms:
                if self.weights[k] != self.weights[i] + self.weights[j]:
                    raise CheckFailure(
                        f"{self.name}: bracket [{self.labels[i]},{self.labels[j]}] "
                        f"has off-weight component {self.labels[k]}",
                        witness={"pair": (i, j), "component": k},
                    )

    def verify_jacobi(self):
        """Exact Jacobi on all in-cutoff basis triples.

        Only the in-cutoff triples i<j<k are visited, in lexicographic order.
        The sums run on the stored ints, den times the brackets; Jacobi is
        homogeneous quadratic, so a cyclic sum vanishes iff den^2 times it
        does.  Each pair (i, j) is one call of `sparse.jacobi_sums` over its
        k-range, and the smallest k left with a nonzero sum is the first
        violation.  Returns the number of exempt (overflowing) triples,
        C(dim, 3) minus those checked; raises on the first violation with the
        offending triple and its defect over Q as witness.
        """
        n, w, cutoff, rows = self.dim, self.weights, self.cutoff, self._rows
        later = _later_indices(w)
        checked = 0
        for i in range(n):
            wi = w[i]
            for j in later(i, cutoff - wi):
                wj = w[j]
                ks = later(j, min(cutoff - wi, cutoff - wj, cutoff - wi - wj))
                checked += len(ks)
                defects = jacobi_sums(rows, i, j, ks)
                if defects:
                    k = min(defects) // n
                    raise CheckFailure(
                        f"{self.name}: Jacobi fails on "
                        f"({self.labels[i]}, {self.labels[j]}, {self.labels[k]})",
                        witness={
                            "triple": (i, j, k),
                            "defect": self._jacobi_defect(i, j, k),
                        },
                    )
        return comb(n, 3) - checked

    def _jacobi_defect(self, i: int, j: int, k: int) -> Vector:
        """The cyclic sum [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] over Q."""
        return accumulate(
            term
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
            for term in self.bracket_vec(self.bracket(a, b), {c: Fraction(1)}).items()
        )

    def with_corrupted_bracket(self, i: int, j: int, k: int, delta) -> "GradedLieAlgebra":
        """A copy with one structure constant shifted; for fault-injection tests."""
        if i >= j:
            i, j = j, i
        brackets = {key: self.bracket(*key) for key in self.brackets}
        brackets[(i, j)] = accumulate([(k, Fraction(delta))], brackets.get((i, j)))
        return replace(self, name=self.name + "(corrupted)", brackets=brackets)

    def restriction(self, name, indices, ideal=frozenset(), cutoff=None):
        """The algebra on the basis elements `indices`, bracketed as here.

        The stored ints of the kept pairs are reindexed, in ascending pair
        order, and cut at `cutoff` (by default this algebra's; never
        above it).  Components whose tags lie in `ideal` are dropped, which
        is the quotient by that ideal; any other component off the kept basis
        raises the CheckFailure of `tabulate`, naming the pair and its tag.
        Labels, weights and tags are this algebra's, and the result is
        verified graded.
        """
        cutoff = self.cutoff if cutoff is None else cutoff
        if cutoff > self.cutoff or any(b <= a for a, b in zip(indices, indices[1:])):
            raise UsageError(
                f"{name}: a restriction of {self.name} keeps ascending indices "
                f"at a cutoff of at most {self.cutoff}"
            )
        pos = {k: r for r, k in enumerate(indices)}
        labels = tuple(self.labels[k] for k in indices)
        weights = tuple(self.weights[k] for k in indices)
        stored = {}
        for (i, j), terms in sorted(self.brackets.items()):
            a, b = pos.get(i), pos.get(j)
            if a is None or b is None or weights[a] + weights[b] > cutoff:
                continue
            kept = []
            for k, n in terms:
                r = pos.get(k)
                if r is not None:
                    kept.append((r, n))
                elif self.tags[k] not in ideal:
                    raise _off_basis(name, labels, a, b, self.tags[k])
            if kept:
                stored[(a, b)] = tuple(kept)
        tags = tuple(self.tags[k] for k in indices)
        algebra = GradedLieAlgebra(name, labels, weights, {}, cutoff, tags)
        algebra._keep(self.den, stored)
        algebra.verify_graded()
        return algebra


def tabulate(name, tags, labels, weights, cutoff, bracket) -> GradedLieAlgebra:
    """The graded Lie algebra on the basis `tags` with bracket `bracket`.

    bracket(tag_i, tag_j) gives [e_i, e_j] as (tag, coefficient) pairs; it is
    read on the in-cutoff pairs i < j only, and its terms are summed through
    `accumulate`.  A component whose tag is not in the basis raises
    CheckFailure naming the pair and that tag.  The algebra is verified
    graded before it is returned.
    """
    tags = tuple(tags)
    index = {tag: k for k, tag in enumerate(tags)}

    def components(i, j):
        for tag, c in bracket(tags[i], tags[j]):
            k = index.get(tag)
            if k is None:
                raise _off_basis(name, labels, i, j, tag)
            yield k, c

    later = _later_indices(weights)
    brackets = {}
    for i in range(len(tags)):
        for j in later(i, cutoff - weights[i]):
            vec = accumulate(components(i, j))
            if vec:
                brackets[(i, j)] = vec
    algebra = GradedLieAlgebra(
        name, tuple(labels), tuple(weights), brackets, cutoff, tags
    )
    algebra.verify_graded()
    return algebra


@dataclass
class LinearMap:
    """Weight-preserving linear map between graded algebras (no bracket claim)."""

    source: GradedLieAlgebra
    target: GradedLieAlgebra
    # given as Fraction vectors, kept as the int tuples of the nonzero ones
    columns: dict[int, Vector] = field(default_factory=dict)
    den: int = field(init=False)

    def __post_init__(self):
        src, tgt = self.source, self.target
        for i in self.columns:
            if not 0 <= i < src.dim:
                raise UsageError(
                    f"map {src.name} -> {tgt.name}: column {i} is off the source "
                    f"basis 0..{src.dim - 1}"
                )
        what = f"map {src.name}: column"
        self.den, columns = _integer_terms(self.columns, what, tgt.dim)
        for i, terms in columns.items():
            for k, _ in terms:
                if tgt.weights[k] != src.weights[i]:
                    raise UsageError(
                        f"map {src.name} -> {tgt.name} shifts weight on {src.labels[i]}"
                    )
        self.columns = MappingProxyType(columns)

    def column(self, i: int) -> Vector:
        return {t: Fraction(n, self.den) for t, n in self.columns.get(i, ())}

    def apply(self, vec: Vector) -> Vector:
        columns = self.columns
        pairs = ((k, c * n) for i, c in vec.items() for k, n in columns.get(i, ()))
        return accumulate(pairs) if self.den == 1 else rational(pairs, self.den)


class LieMap(LinearMap):
    """A LinearMap verified bracket-preserving on every in-cutoff basis pair."""

    @staticmethod
    def build(source, target, columns, name="map") -> "LieMap":
        m = LieMap(source, target, columns)
        m.verify(name)
        return m

    def verify(self, name="map"):
        """Raises on the first in-cutoff pair i<j, in lexicographic order,
        whose bracket the map does not preserve.

        Each pair is one call of `sparse.map_defects` on the stored ints:
        the source brackets over Ls, the columns over Lc and the target
        brackets over Lt.  The source side is scaled by Lc Lt and the target
        side by Ls, so that both sides of f([e_i, e_j]) = [f(e_i), f(e_j)]
        sit at Ls Lc^2 Lt.  On a mismatch both sides are recomputed over Q
        for the witness.
        """
        src, tgt = self.source, self.target
        cols = [self.columns.get(k, ()) for k in range(src.dim)]
        scales = self.den * tgt.den, src.den
        later = _later_indices(src.weights)
        for i in range(src.dim):
            for j in later(i, src.cutoff - src.weights[i]):
                if map_defects(src._rows, tgt._rows, cols, i, j, *scales):
                    raise CheckFailure(
                        f"{name}: bracket not preserved on "
                        f"({src.labels[i]}, {src.labels[j]})",
                        witness={
                            "pair": (i, j),
                            "lhs": self.apply(src.bracket(i, j)),
                            "rhs": tgt.bracket_vec(self.column(i), self.column(j)),
                        },
                    )


def _off_basis(name, labels, i, j, tag) -> CheckFailure:
    """The refusal of a bracket [e_i, e_j] with a component `tag` off the basis."""
    return CheckFailure(
        f"{name}: bracket [{labels[i]},{labels[j]}] has off-basis component {tag}",
        witness={"pair": (i, j), "component": tag},
    )


def _rank_at(linear_map: LinearMap, weight: int) -> int:
    """The rank of a map restricted to one weight: its stored int columns
    there, read as the sparse rows of its transpose."""
    rows = [
        dict(linear_map.columns.get(i, ()))
        for i in linear_map.source.basis_indices_of_weight(weight)
    ]
    return linalg.rank_rows(rows, linear_map.target.dim)


@dataclass
class ExtensionData:
    """A short exact sequence 0 -> sub -> total -> quotient -> 0 with a
    chosen linear (not necessarily bracket-preserving) section of project."""

    sub: GradedLieAlgebra
    total: GradedLieAlgebra
    quotient: GradedLieAlgebra
    inject: LieMap
    project: LieMap
    splitting: LinearMap

    def __post_init__(self):
        # total index -> sub index; sub_coordinates reads coordinates off it
        self._sub_index = {}
        for m in range(self.sub.dim):
            column = self.inject.columns.get(m, ())
            k, n = column[0] if len(column) == 1 else (None, 0)
            if n != self.inject.den or k in self._sub_index:
                raise UsageError(
                    f"{self.total.name}: inject must send {self.sub.labels[m]} "
                    "to a basis element of its own with coefficient 1"
                )
            self._sub_index[k] = m

    def weights_involved(self):
        return sorted(set(self.total.weights) | set(self.sub.weights) | set(self.quotient.weights))

    def check_exact(self):
        """Weight-by-weight: inject injective, project surjective,
        ker(project) = im(inject), and project o inject = 0."""
        for i in range(self.sub.dim):
            if self.project.apply(self.inject.column(i)):
                raise CheckFailure(
                    f"{self.total.name}: project o inject nonzero on {self.sub.labels[i]}",
                    witness={"sub_index": i},
                )
        for w in self.weights_involved():
            sub_dim = len(self.sub.basis_indices_of_weight(w))
            quot_dim = len(self.quotient.basis_indices_of_weight(w))
            total_dim = len(self.total.basis_indices_of_weight(w))
            inj_rank = _rank_at(self.inject, w)
            proj_rank = _rank_at(self.project, w)
            if inj_rank != sub_dim:
                raise CheckFailure(
                    f"{self.total.name}: inject not injective at weight {w}",
                    witness={"weight": w, "rank": inj_rank, "dim": sub_dim},
                )
            if proj_rank != quot_dim:
                raise CheckFailure(
                    f"{self.total.name}: project not surjective at weight {w}",
                    witness={"weight": w, "rank": proj_rank, "dim": quot_dim},
                )
            if total_dim - proj_rank != inj_rank:
                raise CheckFailure(
                    f"{self.total.name}: ker(project) != im(inject) at weight {w}",
                    witness={
                        "weight": w,
                        "kernel_dim": total_dim - proj_rank,
                        "image_dim": inj_rank,
                    },
                )

    def check_splitting(self):
        """The splitting is a section: project o splitting is the identity.
        Its only callers are the tests and the benchmark (`perfbench`)."""
        for i in range(self.quotient.dim):
            back = self.project.apply(self.splitting.column(i))
            if back != {i: Fraction(1)}:
                raise CheckFailure(
                    f"{self.total.name}: splitting is not a section at "
                    f"{self.quotient.labels[i]}",
                    witness={"index": i, "projected": back},
                )

    def check_sub_central(self):
        """Brackets of injected sub elements with everything vanish."""
        for i in range(self.sub.dim):
            img = self.inject.column(i)
            for j in range(self.total.dim):
                if self.total.bracket_vec(img, {j: Fraction(1)}):
                    raise CheckFailure(
                        f"{self.total.name}: sub element {self.sub.labels[i]} "
                        f"not central against {self.total.labels[j]}",
                        witness={"sub_index": i, "total_index": j},
                    )

    def check_sub_abelian(self):
        if self.sub.brackets:
            i, j = next(iter(self.sub.brackets))
            raise CheckFailure(
                f"{self.sub.name}: sub not abelian at ({i},{j})",
                witness={"pair": (i, j)},
            )

    def sub_coordinates(self, vec: Vector) -> Vector:
        """Express a total-algebra vector lying in im(inject) in sub basis.

        Every inject column is a unit vector, so this is a lookup by index.
        Raises CheckFailure if the vector is not in the image, naming the
        first weight, in the order of the set of weights of `vec`, that has
        a component outside it.
        """
        index = self._sub_index
        outside = {self.total.weights[k] for k in vec if k not in index}
        if outside:
            weights = {self.total.weights[k] for k in vec}
            w = next(w for w in weights if w in outside)
            raise CheckFailure("vector not in image of inject", witness={"weight": w})
        return {index[k]: c for k, c in vec.items()}

    def defect(self, i: int, j: int) -> Vector:
        """[s(e_i), s(e_j)] - s([e_i, e_j]) in sub coordinates."""
        lhs = self.total.bracket_vec(self.splitting.column(i), self.splitting.column(j))
        rhs = self.splitting.apply(self.quotient.bracket(i, j))
        return self.sub_coordinates(sub(lhs, rhs))


def aligned_columns(source: GradedLieAlgebra, target: GradedLieAlgebra) -> dict:
    """Each source basis element to the target element with the same tag, or to 0."""
    index = {tag: k for k, tag in enumerate(target.tags)}
    return {
        i: {index[tag]: Fraction(1)} if tag in index else {}
        for i, tag in enumerate(source.tags)
    }


def aligned_extension(
    total: GradedLieAlgebra, quotient: GradedLieAlgebra, sub_name: str
) -> ExtensionData:
    """0 -> sub -> total -> quotient -> 0 read off the basis tags.

    The quotient's tags are some of the total's, and the sub is the abelian
    span of the rest, with the total's labels, weights, tags and cutoff.
    Inject, project and the splitting send each tag to itself or to zero;
    inject and project are verified bracket-preserving as they are built.
    """
    kept = set(quotient.tags)
    rest = [k for k, tag in enumerate(total.tags) if tag not in kept]
    sub = GradedLieAlgebra(
        sub_name,
        tuple(total.labels[k] for k in rest),
        tuple(total.weights[k] for k in rest),
        {},
        total.cutoff,
        tuple(total.tags[k] for k in rest),
    )
    inject = LieMap.build(
        sub, total, aligned_columns(sub, total), name=f"{sub.name}->{total.name}"
    )
    project = LieMap.build(
        total,
        quotient,
        aligned_columns(total, quotient),
        name=f"{total.name}->{quotient.name}",
    )
    splitting = LinearMap(quotient, total, aligned_columns(quotient, total))
    return ExtensionData(sub, total, quotient, inject, project, splitting)


def extension_defect_cochain(e: ExtensionData) -> dict[tuple[int, int], Vector]:
    """The splitting defect on all in-cutoff quotient basis pairs.

    This is the raw 2-cochain of the extension; the cohomology layer wraps it
    with the module action and verifies the cocycle identity.
    """
    out = {}
    for i in range(e.quotient.dim):
        for j in range(i + 1, e.quotient.dim):
            if not e.quotient.in_cutoff_pair(i, j):
                continue
            vec = e.defect(i, j)
            if vec:
                out[(i, j)] = vec
    return out
