"""Chevalley-Eilenberg cochains of graded Lie algebras with module coefficients.

The differential preserves the total weight of a cochain (inputs minus
output), so every computation here is blocked by degree and weight: each
(k, w) block is an independent finite matrix over Q, and ranks are exact.
Tuples whose brackets or actions overflow a cutoff are excluded from sweeps
and counted, never silently truncated.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import CheckFailure, UsageError
from .liealg import (
    ExtensionData,
    GradedLieAlgebra,
    Vector,
    _later_indices,
    aligned_extension,
    extension_defect_cochain,
)
from .sparse import EMPTY, accumulate, add, scale, sub

ZERO = Fraction(0)


@dataclass
class LieModule:
    """A finite module over a GradedLieAlgebra, given by action constants.

    action[(i, m)] is the vector rho(e_i) @ v_m in module coordinates; absent
    keys act by zero.  The module carries its own weight cutoff; actions that
    would land above it must not be stored.
    """

    algebra: GradedLieAlgebra
    name: str
    labels: tuple[str, ...]
    weights: tuple[int, ...]
    action: dict[tuple[int, int], Vector]
    cutoff: int
    # (k, w) -> (dim C^k(w), rank of d_k there), filled by cohomology_dim
    _block_ranks: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return len(self.labels)

    def act(self, i: int, vec: Vector) -> Vector:
        return accumulate(
            (k, c * a)
            for m, c in vec.items()
            for k, a in self.action.get((i, m), EMPTY).items()
        )

    def module_indices_of_weight(self, w: int):
        return [m for m, wm in enumerate(self.weights) if wm == w]

    def verify_representation(self):
        """rho([x,y]) = [rho(x), rho(y)] wherever no weight overflows.

        Returns the number of exempt triples (algebra pair, module vector).
        They are counted, not visited: a pair over the cutoff exempts every
        module vector, and an in-cutoff pair (i, j) every m of weight above
        cutoff - max(w_i, w_j, w_i + w_j).
        """
        g = self.algebra
        exempt = 0
        partners = _later_indices(g.weights)
        acting = _later_indices(self.weights)
        for i in range(g.dim):
            wi = g.weights[i]
            js = partners(i, g.cutoff - wi)
            exempt += (g.dim - 1 - i - len(js)) * self.dim
            for j in js:
                wj = g.weights[j]
                checked = acting(-1, self.cutoff - max(wi, wj, wi + wj))
                exempt += self.dim - len(checked)
                bracket = g.bracket(i, j)
                for m in checked:
                    via_bracket = accumulate(
                        (t, a * c)
                        for k, c in bracket.items()
                        for t, a in self.action.get((k, m), EMPTY).items()
                    )
                    direct = sub(
                        self.act(i, self.action.get((j, m), EMPTY)),
                        self.act(j, self.action.get((i, m), EMPTY)),
                    )
                    if via_bracket != direct:
                        raise CheckFailure(
                            f"{self.name}: not a representation on "
                            f"({self.algebra.labels[i]}, {self.algebra.labels[j]}, "
                            f"{self.labels[m]})",
                            witness={"pair": (i, j), "module_index": m},
                        )
        return exempt


def trivial_module(algebra: GradedLieAlgebra, labels=("1",), weights=(0,), name="k"):
    cutoff = max(weights) if weights else 0
    return LieModule(algebra, name, tuple(labels), tuple(weights), {}, cutoff)


@dataclass
class Cochain:
    """A k-cochain: alternating map on basis tuples with module values.

    values maps strictly increasing index tuples to module vectors; absent
    tuples are zero.  excluded counts input tuples a producing computation
    had to skip for weight overflow.
    """

    module: LieModule
    degree: int
    values: dict[tuple, Vector] = field(default_factory=dict)
    excluded: int = 0

    def value(self, idx: tuple) -> Vector:
        return self.values.get(idx, {})

    def is_zero(self) -> bool:
        return not any(self.values.values())

    def support_weights(self):
        """Cochain weight of each supported tuple: sum(inputs) - output."""
        g = self.module.algebra
        out = set()
        for idx, vec in self.values.items():
            ins = sum(g.weights[i] for i in idx)
            for m, c in vec.items():
                if c != 0:
                    out.add(ins - self.module.weights[m])
        return sorted(out)

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.module is not other.module or self.degree != other.degree:
            raise UsageError("cochain mismatch")
        values = dict(self.values)
        for idx, vec in other.values.items():
            values[idx] = add(values.get(idx, EMPTY), vec)
        values = {idx: vec for idx, vec in values.items() if vec}
        return Cochain(self.module, self.degree, values, self.excluded + other.excluded)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scaled(Fraction(-1))

    def scaled(self, value) -> "Cochain":
        return Cochain(
            self.module,
            self.degree,
            {idx: scale(vec, value) for idx, vec in self.values.items()},
            self.excluded,
        )

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        clean_self = {k: v for k, v in self.values.items() if v}
        clean_other = {k: v for k, v in other.values.items() if v}
        return (
            self.module is other.module
            and self.degree == other.degree
            and clean_self == clean_other
        )


def ce_differential(cochain: Cochain, module: LieModule | None = None) -> Cochain:
    """The standard CE differential with both action and bracket terms.

    (d c)(x_0..x_k) = sum_i (-1)^i rho(x_i) c(..x_i^..)
                    + sum_{i<j} (-1)^{i+j} c([x_i,x_j], ..x_i^..x_j^..)

    Both terms keep the input weight minus the output weight, so (d c) can
    be nonzero only on tuples whose total weight is a support weight of c
    plus a module weight; only those tuples are visited, in lexicographic
    order.  Such a tuple containing a bracket pair that overflows the
    algebra cutoff is excluded (and counted), since the unknown bracket
    could meet the cochain's support.
    """
    module = module or cochain.module
    g = module.algebra
    k = cochain.degree
    support = set(cochain.support_weights())
    reachable_totals = {s + mw for s in support for mw in set(module.weights)}
    if not reachable_totals:  # the zero cochain
        return Cochain(module, k + 1)
    slots = list(combinations(range(k + 1), 2))
    values: dict[tuple, Vector] = {}
    excluded = 0
    lo, hi = min(reachable_totals), max(reachable_totals)
    for idx, total in _tuples_in_range(g.weights, k + 1, lo, hi):
        if total not in reachable_totals:
            continue
        if not all(g.in_cutoff_pair(idx[a], idx[b]) for a, b in slots):
            excluded += 1
            continue

        def terms():
            for a in range(k + 1):
                inner = cochain.value(idx[:a] + idx[a + 1 :])
                if inner:
                    sign = -1 if a % 2 else 1
                    for m, c in module.act(idx[a], inner).items():
                        yield m, c * sign
            for a, b in slots:
                rest = tuple(v for t, v in enumerate(idx) if t != a and t != b)
                sign = (-1) ** (a + b)
                for comp, c in g.bracket(idx[a], idx[b]).items():
                    inserted = _insert_sorted(comp, rest)
                    if inserted:
                        target, parity = inserted
                        for m, e in cochain.value(target).items():
                            yield m, e * (sign * parity * c)

        acc = accumulate(terms())
        if acc:
            values[idx] = acc
    return Cochain(module, k + 1, values, excluded)


def _insert_sorted(comp: int, rest: tuple):
    """(the increasing tuple rest with comp put in, sign) where sign is the
    parity of moving comp there from slot 0; None if comp is already in rest."""
    if comp in rest:
        return None
    pos = bisect_left(rest, comp)
    # moving comp from slot 0 to slot pos costs pos transpositions
    return rest[:pos] + (comp,) + rest[pos:], -1 if pos % 2 else 1


def tuple_weights(weights, k: int) -> list[int]:
    """The weight sums of the k-element subsets of `weights`, ascending."""
    if k < 0:
        return []
    sums = [{0}] + [set() for _ in range(k)]
    for w in weights:
        for r in range(k, 0, -1):
            sums[r].update(s + w for s in sums[r - 1])
    return sorted(sums[k])


def _tuples_in_range(weights, k: int, lo: int, hi: int):
    """Increasing k-tuples of indices whose weight sum lies in [lo, hi], in
    lexicographic order, each with its sum, generated lazily.

    A pruned recursion: least[i][r] and most[i][r] bound the sum of r more
    indices taken from i on, so no branch is entered that cannot reach the
    range; the last index is taken in a flat loop.  Weights need not be sorted.
    """
    n = len(weights)
    if k < 0 or k > n:
        return
    # filled for r <= n - i, the only (i, r) the recursion reaches
    least = [[0] * (k + 1) for _ in range(n + 1)]
    most = [[0] * (k + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        w = weights[i]
        for r in range(1, min(k, n - i) + 1):
            least[i][r] = w + least[i + 1][r - 1]
            most[i][r] = w + most[i + 1][r - 1]
            if r < n - i:  # index i may also be skipped
                least[i][r] = min(least[i][r], least[i + 1][r])
                most[i][r] = max(most[i][r], most[i + 1][r])

    def extend(start, r, total, prefix):
        if total + least[start][r] > hi or total + most[start][r] < lo:
            return
        if r == 0:  # k == 0: the empty tuple
            yield prefix, total
        elif r == 1:
            for j in range(start, n):
                if lo <= (t := total + weights[j]) <= hi:
                    yield prefix + (j,), t
        else:
            for j in range(start, n - r + 1):
                yield from extend(j + 1, r - 1, total + weights[j], prefix + (j,))

    yield from extend(0, k, 0, ())


def cochain_block_basis(module: LieModule, k: int, weight: int):
    """Basis of the (degree k, cochain weight w) block as (tuple, m) pairs.

    In lexicographic (tuple, m) order; only the tuples of a matching input
    weight are generated.
    """
    targets: dict[int, list] = {}  # input weight -> module indices it pairs with
    for m, wm in enumerate(module.weights):
        targets.setdefault(weight + wm, []).append(m)
    if not targets:
        return []
    tuples = _tuples_in_range(module.algebra.weights, k, min(targets), max(targets))
    return [(idx, m) for idx, total in tuples for m in targets.get(total, ())]


def _block_rows(module: LieModule, k: int, weight: int):
    """The CE differential C^k(w) -> C^{k+1}(w) as sparse rows.

    Built in a single pass over the target tuples: each target tuple's CE
    formula names exactly the source basis elements it reads, so the block
    costs O(#target tuples) rather than one full differential per column.
    Every target tuple pairs with a module vector of weight (tuple total - w),
    so a tuple with an over-cutoff bracket pair could meet the block; it is
    dropped (its rows stay empty) and counted.  Returns (rows, source basis,
    target basis, excluded tuple count), where rows[r] maps source positions
    to the nonzero entries of the row of tgt[r], summed through `accumulate`.
    """
    g = module.algebra
    src = cochain_block_basis(module, k, weight)
    tgt = cochain_block_basis(module, k + 1, weight)
    src_pos = {key: c for c, key in enumerate(src)}
    slots = list(combinations(range(k + 1), 2))
    # tgt lists the module indices of each tuple next to each other
    tuples_in_block: dict[tuple, list] = {}
    for idx, m in tgt:
        tuples_in_block.setdefault(idx, []).append(m)
    rows = []
    excluded = 0
    for idx, ms in tuples_in_block.items():
        if not all(g.in_cutoff_pair(idx[a], idx[b]) for a, b in slots):
            excluded += 1
            rows.extend({} for _ in ms)
            continue
        terms = {m: [] for m in ms}  # (source position, value) pairs per row
        for a in range(k + 1):
            rest = idx[:a] + idx[a + 1 :]
            rest_total = sum(g.weights[i] for i in rest)
            sign = -1 if a % 2 else 1
            for m_src in module.module_indices_of_weight(rest_total - weight):
                col = src_pos.get((rest, m_src))
                if col is None:
                    continue
                for m_out, c in module.action.get((idx[a], m_src), EMPTY).items():
                    if m_out in terms:
                        terms[m_out].append((col, sign * c))
        for a, b in slots:
            bracket = g.bracket(idx[a], idx[b])
            if not bracket:
                continue
            rest = tuple(v for t, v in enumerate(idx) if t != a and t != b)
            sign = -1 if (a + b) % 2 else 1
            for comp, cb in bracket.items():
                inserted = _insert_sorted(comp, rest)
                if inserted:
                    target, parity = inserted
                    for m in ms:
                        col = src_pos.get((target, m))
                        if col is not None:
                            terms[m].append((col, sign * parity * cb))
        rows.extend(accumulate(pairs) for pairs in terms.values())
    return rows, src, tgt, excluded


def differential_block(module: LieModule, k: int, weight: int):
    """Dense view of the CE differential C^k(w) -> C^{k+1}(w), for the tests
    and the benchmark.

    The rows of `_block_rows` written out as lists of Fractions.  Returns
    (matrix with rows indexed by the target basis, source basis, target
    basis, excluded tuple count).
    """
    rows, src, tgt, excluded = _block_rows(module, k, weight)
    matrix = [[ZERO] * len(src) for _ in rows]
    for dense, row in zip(matrix, rows):
        for col, value in row.items():
            dense[col] = value
    return matrix, src, tgt, excluded


def _block_rank(module: LieModule, k: int, weight: int):
    """(dim C^k(w), rank of d_k on it), built and ranked once per module."""
    key = (k, weight)
    if key not in module._block_ranks:
        rows, src, _, _ = _block_rows(module, k, weight)
        module._block_ranks[key] = (len(src), linalg.rank_rows(rows, len(src)))
    return module._block_ranks[key]


def cohomology_dim(module: LieModule, k: int, weight: int) -> int:
    """dim H^k at one cochain weight, by exact rank-nullity."""
    dim_ck, rank_k = _block_rank(module, k, weight)
    rank_prev = _block_rank(module, k - 1, weight)[1] if k else 0
    return dim_ck - rank_k - rank_prev


def is_cocycle(cochain: Cochain) -> bool:
    return ce_differential(cochain).is_zero()


def is_coboundary(cochain: Cochain):
    """Exact solve for a primitive, weight block by weight block.

    Returns (True, primitive Cochain) or (False, None).  The input must be a
    cocycle; anything else is a usage error.
    """
    if not is_cocycle(cochain):
        raise UsageError("is_coboundary input is not a cocycle")
    module = cochain.module
    k = cochain.degree
    if k == 0:
        return (cochain.is_zero(), Cochain(module, 0) if cochain.is_zero() else None)
    primitive_values: dict[tuple, Vector] = {}
    for w in cochain.support_weights():
        rows, src, tgt, _ = _block_rows(module, k - 1, w)
        tgt_pos = {key: r for r, key in enumerate(tgt)}
        rhs = [ZERO] * len(tgt)
        for idx, vec in cochain.values.items():
            ins = sum(module.algebra.weights[i] for i in idx)
            for m, c in vec.items():
                if ins - module.weights[m] == w:
                    rhs[tgt_pos[(idx, m)]] = c
        sol = linalg.solve_rows(rows, len(src), rhs)
        if sol is None:
            return (False, None)
        # each (idx, m) lies in exactly one weight block, so nothing sums
        for (idx, m), c in zip(src, sol):
            if c != 0:
                primitive_values.setdefault(idx, {})[m] = c
    primitive = Cochain(module, k - 1, primitive_values)
    return (True, primitive)


@dataclass
class CohomologyClass:
    degree: int
    weight: int
    representative: Cochain

    def is_nonzero(self) -> bool:
        found, _ = is_coboundary(self.representative)
        return not found


# ---------------------------------------------------------------------------
# cochains and modules out of extensions
# ---------------------------------------------------------------------------


def module_from_extension(e: ExtensionData, name=None) -> LieModule:
    """The quotient-action module carried by an abelian kernel.

    rho(xi) v = [splitting(xi), inject(v)] read back in sub coordinates;
    independence of the splitting holds because the kernel is abelian, which
    is verified here.
    """
    e.check_sub_abelian()
    action: dict[tuple[int, int], Vector] = {}
    for i in range(e.quotient.dim):
        lifted = e.splitting.column(i)
        for m in range(e.sub.dim):
            bracket = e.total.bracket_vec(lifted, e.inject.column(m))
            if bracket:
                action[(i, m)] = e.sub_coordinates(bracket)
    cutoff = max(e.sub.weights) if e.sub.weights else 0
    module = LieModule(
        e.quotient,
        name or f"{e.sub.name} as {e.quotient.name}-module",
        e.sub.labels,
        e.sub.weights,
        action,
        cutoff,
    )
    return module


def extension_cocycle(e: ExtensionData, module: LieModule | None = None) -> Cochain:
    """The CE 2-cocycle of an extension with abelian kernel.

    c(xi, eta) = [s(xi), s(eta)] - s([xi, eta]) in sub coordinates, verified
    to satisfy the cocycle identity for the quotient action on the kernel.
    """
    module = module or module_from_extension(e)
    raw = extension_defect_cochain(e)
    cochain = Cochain(module, 2, raw)
    boundary = ce_differential(cochain, module)
    if not boundary.is_zero():
        bad = next(idx for idx, vec in boundary.values.items() if vec)
        raise CheckFailure(
            f"extension defect of {e.total.name} is not a cocycle",
            witness={"triple": bad, "value": boundary.values[bad]},
        )
    return cochain


def omega_class(d: int, n: int) -> CohomologyClass:
    """The class of the standard symplectic form on Hamiltonian fields.

    Built from the central extension 0 -> constants -> functions -> H -> 0
    with the nonconstant-monomial splitting: the resulting 2-cocycle sends a
    pair of Hamiltonians to the constant term of their Poisson bracket.  It
    is supported on pairs of degree-1 symbols, is weight-homogeneous of
    cochain weight -2, and is not a coboundary.
    """
    from .tower import build_a_poisson, build_h

    if d < 1 or n < 2:
        raise UsageError(f"omega class needs d >= 1 and N >= 2; got d={d}, N={n}")
    h_alg = build_h(d, n)
    extension = aligned_extension(build_a_poisson(d, n), h_alg, "k")
    extension.check_exact()
    extension.check_sub_central()
    module = trivial_module(h_alg, labels=("1",), weights=(0,), name="k")
    cochain = extension_cocycle(extension, module)
    return CohomologyClass(2, -2, cochain)

