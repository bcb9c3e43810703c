"""Chevalley-Eilenberg cochains of graded Lie algebras with module coefficients.

The differential preserves the total weight of a cochain (inputs minus
output), so every computation here is blocked by degree and weight: each
(k, w) block is an independent finite matrix over Q, and ranks are exact.
Tuples whose brackets or actions overflow a cutoff are excluded from sweeps
and counted, never silently truncated.  The CE formula of a target tuple
is written once, in `_ce_terms`, for cochains and block rows alike.

Blocks split further into torus slices, read off the tables (`_torus`),
which the differential keeps.  `_slices` enumerates a block's tuples once,
by weight alone, and buckets them by torus weight; every consumer builds
its rows (`_rows`) one slice at a time.  By the Cartan homotopy formula a
slice of nonzero torus weight is acyclic unless one of its degree-k tuples
is excluded, so `cohomology_dim` ranks only the zero slice and the slices
with exclusions; needing d^2 = 0, it refuses a module that is not a
representation of the stored bracket.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import merge
from itertools import chain, combinations

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
from . import sparse
from .sparse import EMPTY, accumulate, check_exact_vectors, scale

ZERO = Fraction(0)


@dataclass
class LieModule:
    """A finite module over a GradedLieAlgebra, given by action constants.

    action[(i, m)] is the vector rho(e_i) @ v_m in module coordinates; absent
    keys act by zero.  The module carries its own weight cutoff; actions that
    would land above it must not be stored.  An action constant that is not
    an int or a Fraction, a key off the algebra or the module basis and a
    component off the module basis are refused with a UsageError.
    """

    algebra: GradedLieAlgebra
    name: str
    labels: tuple[str, ...]
    weights: tuple[int, ...]
    action: dict[tuple[int, int], Vector]
    cutoff: int
    # (k, w, tau) -> rank of d_k on the torus slice tau of C^k(w), ints
    # only, filled by cohomology_dim once it has checked the action
    _ranks: dict | None = field(default=None, init=False, repr=False, compare=False)
    # the torus weights that `_torus` reads off the tables
    _torus: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        what = f"{self.name}: action on"
        check_exact_vectors(self.action, what)
        for key, vec in self.action.items():
            i, m = key
            indices = [(i, self.algebra.dim, "algebra")]
            indices += [(t, self.dim, "module") for t in (m, *vec)]
            for index, size, basis in indices:
                if not 0 <= index < size:
                    raise UsageError(
                        f"{what} {key!r}: index {index} is off the {basis} basis "
                        f"0..{size - 1}"
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

    def acts_as_bracket(self, i: int, j: int, m: int) -> bool:
        """rho([e_i, e_j]) v_m == [rho(e_i), rho(e_j)] v_m, as stored."""
        via_bracket = accumulate(
            (t, a * c)
            for k, c in self.algebra.bracket(i, j).items()
            for t, a in self.action.get((k, m), EMPTY).items()
        )
        direct = sparse.sub(
            self.act(i, self.action.get((j, m), EMPTY)),
            self.act(j, self.action.get((i, m), EMPTY)),
        )
        return via_bracket == direct

    def verify_representation(self):
        """rho([x,y]) = [rho(x), rho(y)] wherever no weight overflows.

        Returns the number of exempt triples (algebra pair, module vector).
        They are counted, not visited: a pair over the cutoff exempts every
        module vector, and an in-cutoff pair (i, j) every m of weight above
        cutoff - max(w_i, w_j, w_i + w_j).

        This rule is weaker than the one `cohomology_dim` needs, which
        exempts no vector of an in-cutoff pair: the tower's V modules pass
        here and are refused there, tower_obstruction(1, 1, 6).module on
        (h^-1*y1, h^-1*y1^3, h^-1*x1^2*h^2).
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
                for m in checked:
                    if not self.acts_as_bracket(i, j, m):
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
    had to skip for weight overflow.  A key that is not a strictly
    increasing `degree`-tuple of algebra indices, a module index out of
    range and a coefficient that is not an int or a Fraction are refused
    with a UsageError.  Zero coefficients, and then the vectors left empty,
    are dropped (clean values are kept as given), so equal cochains compare
    equal.
    """

    module: LieModule
    degree: int
    values: dict[tuple, Vector] = field(default_factory=dict)
    excluded: int = 0

    def __post_init__(self):
        n, dim = self.module.algebra.dim, self.module.dim
        for idx, vec in self.values.items():
            if not (
                isinstance(idx, tuple)
                and len(idx) == self.degree
                and all(isinstance(i, int) for i in idx)
                and all(a < b for a, b in zip((-1, *idx), (*idx, n)))
            ):
                raise UsageError(
                    f"cochain key {idx!r} is not an increasing {self.degree}-tuple "
                    f"of indices below {n}"
                )
            for m in vec:
                if not (isinstance(m, int) and 0 <= m < dim):
                    raise UsageError(f"module index {m!r} is not below {dim}")
        check_exact_vectors(self.values, "cochain value at")
        if not all(vec and all(vec.values()) for vec in self.values.values()):
            values = {
                idx: {m: c for m, c in vec.items() if c}
                for idx, vec in self.values.items()
            }
            self.values = {idx: vec for idx, vec in values.items() if vec}

    def value(self, idx: tuple) -> Vector:
        return self.values.get(idx, {})

    def is_zero(self) -> bool:
        return not self.values

    def support_weights(self):
        """Cochain weight of each supported tuple: sum(inputs) - output."""
        g = self.module.algebra
        out = set()
        for idx, vec in self.values.items():
            ins = sum(g.weights[i] for i in idx)
            for m in vec:
                out.add(ins - self.module.weights[m])
        return sorted(out)

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.module is not other.module or self.degree != other.degree:
            raise UsageError("cochain mismatch")
        values = dict(self.values)
        for idx, vec in other.values.items():
            values[idx] = sparse.add(values.get(idx, EMPTY), vec)
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
        return (
            self.module is other.module
            and self.degree == other.degree
            and self.values == other.values
        )


def ce_differential(cochain: Cochain) -> Cochain:
    """The standard CE differential with both action and bracket terms.

    (d c)(x_0..x_k) = sum_i (-1)^i rho(x_i) c(..x_i^..)
                    + sum_{i<j} (-1)^{i+j} c([x_i,x_j], ..x_i^..x_j^..)

    read term by term off `_ce_terms`.  Both terms keep the input weight
    minus the output weight, so (d c) can be nonzero only on tuples whose
    total weight is a support weight of c plus a module weight; only those
    tuples are visited, in lexicographic order.  Such a tuple containing a
    bracket pair that overflows the algebra cutoff is excluded (and
    counted), since the unknown bracket could meet the cochain's support.
    """
    module = cochain.module
    g = module.algebra
    k = cochain.degree
    support = set(cochain.support_weights())
    reachable_totals = {s + mw for s in support for mw in set(module.weights)}
    if not reachable_totals:  # the zero cochain
        return Cochain(module, k + 1)
    values: dict[tuple, Vector] = {}
    excluded = 0
    tuples = (_tuples_in_range(g.weights, k + 1, t) for t in reachable_totals)
    for idx in merge(*tuples):
        if not _in_cutoff(g, idx):
            excluded += 1
            continue
        pairs = []
        for source, acting, sign, c in _ce_terms(g, idx):
            inner = cochain.values.get(source)
            if inner:
                if acting is not None:
                    inner = module.act(acting, inner)
                pairs.extend((m, sign * c * e) for m, e in inner.items())
        acc = accumulate(pairs)
        if acc:
            values[idx] = acc
    return Cochain(module, k + 1, values, excluded)


def _in_cutoff(g: GradedLieAlgebra, idx: tuple) -> bool:
    """Whether every bracket pair of the increasing tuple idx is in cutoff."""
    return all(g.in_cutoff_pair(i, j) for i, j in combinations(idx, 2))


def _ce_terms(g: GradedLieAlgebra, idx: tuple):
    """The CE formula of the target tuple idx = (x_0..x_k), term by term:
    (source tuple, acting index or None, sign, coefficient).  First the
    action terms (idx without x_a, x_a, (-1)^a, 1); then, for a < b, each
    component of [x_a, x_b] not already in the rest, sorted into it:
    (that tuple, None, (-1)^(a+b) times the parity of the move from slot 0,
    its coefficient, an int when den is 1).  Sign and coefficient stay
    apart, so a consumer multiplies them only where the source has a value.
    """
    for a, x in enumerate(idx):
        yield idx[:a] + idx[a + 1 :], x, -1 if a % 2 else 1, 1
    rows, den = g._rows, g.den
    for (a, x), (b, y) in combinations(enumerate(idx), 2):
        terms = rows[x].get(y)
        if terms is None:
            continue
        rest = idx[:a] + idx[a + 1 : b] + idx[b + 1 :]
        sign = -1 if (a + b) % 2 else 1
        for comp, n in terms:
            if comp in rest:
                continue
            pos = bisect_left(rest, comp)
            parity_sign = -sign if pos % 2 else sign
            c = n if den == 1 else Fraction(n, den)
            yield rest[:pos] + (comp,) + rest[pos:], None, parity_sign, c


def tuple_weights(weights, k: int) -> list[int]:
    """The weight sums of the k-element subsets of `weights`, ascending;
    none when k is negative or exceeds the number of weights."""
    if not 0 <= k <= len(weights):
        return []
    sums = [{0}] + [set() for _ in range(k)]
    for w in weights:
        for r in range(k, 0, -1):
            sums[r].update(s + w for s in sums[r - 1])
    return sorted(sums[k])


def _tuples_in_range(weights, k: int, total: int, cutoff=None):
    """Increasing k-tuples of indices whose weights sum to `total`, in
    lexicographic order, generated lazily; with a cutoff, only those whose
    pairs all have weight sums within it.

    A pruned recursion on the room left between the total and the sum so
    far.  The tables least[i][r] and most[i][r] bound the weight sum of r
    more indices taken from i on; they are built once per call, in one pass
    from the last index back.  An index is taken only when the indices
    after it can still fill the room, and the loop over the next index stops
    once no index from there on can (least[j][r] only grows with j, and
    most[j][r] only falls).  The cutoff caps the weight of each later index
    by cutoff minus the largest weight taken, so r more indices add at most
    r caps.  The last index is looked up by its weight.  Weights need not be
    sorted.
    """
    n = len(weights)
    if k == 0 and total == 0:
        yield ()
    if k < 1 or k > n:
        return
    # filled for r <= n - i, the only (i, r) the recursion reaches
    least = [[0] * (k + 1) for _ in range(n + 1)]
    most = [[0] * (k + 1) for _ in range(n + 1)]
    indices_of: dict[int, list] = {}  # weight -> its indices, ascending
    for i in range(n - 1, -1, -1):
        w = weights[i]
        indices_of.setdefault(w, []).insert(0, i)
        for r in range(1, min(k, n - i) + 1):
            low, high = w + least[i + 1][r - 1], w + most[i + 1][r - 1]
            if r < n - i:  # index i may also be skipped
                low, high = min(low, least[i + 1][r]), max(high, most[i + 1][r])
            least[i][r], most[i][r] = low, high

    def extend(start, r, room, cap, prefix):
        if r == 1:
            js = indices_of.get(room, ()) if room <= cap else ()
            yield from (prefix + (j,) for j in js[bisect_left(js, start) :])
            return
        for j in range(start, n - r + 1):
            if not least[j][r] <= room <= most[j][r]:
                break
            w = weights[j]
            inner = min(cap, cutoff - w)
            rest = room - w
            if w <= cap and least[j + 1][r - 1] <= rest <= min(
                most[j + 1][r - 1], (r - 1) * inner
            ):
                yield from extend(j + 1, r - 1, rest, inner, prefix + (j,))

    top = most[0][1]  # the largest weight
    if cutoff is None:
        cutoff = 2 * top  # caps no index
    yield from extend(0, k, total, top, ())


def _slices(module: LieModule, k: int, weight: int, cutoff=None, taus=None):
    """The (tuple, m) pairs of the (degree k, cochain weight w) block by
    torus weight, {tau: its pairs}: with a cutoff only the tuples without an
    over-cutoff pair, with `taus` only those buckets.  (X, m) has torus
    weight the sum of those of the x in X, minus that of v_m (see `_torus`).
    Buckets fill straight off one tuple stream per input weight, so they
    keep the module indices of a tuple together (as `_rows` needs) but not
    block order, which sorting restores."""
    lams, mus = _torus(module)
    minus_mus = [tuple(-c for c in mu) for mu in mus]
    totals: dict[int, list] = {}  # input weight -> module indices it pairs with
    for m, wm in enumerate(module.weights):
        totals.setdefault(weight + wm, []).append(m)
    buckets: dict[tuple, list] = {}
    for total, ms in totals.items():
        for idx in _tuples_in_range(module.algebra.weights, k, total, cutoff):
            for m in ms:
                tau = tuple(map(sum, zip(minus_mus[m], *(lams[i] for i in idx))))
                if taus is None or tau in taus:
                    buckets.setdefault(tau, []).append((idx, m))
    return buckets


def _torus(module: LieModule):
    """(torus weights of each algebra basis element, those of each module
    vector), one entry per torus element, read off the tables once a module.

    A torus element is a weight-0 basis element t with [t, e_j] in cutoff
    and equal to lambda_t(j) e_j for every j, and rho(t) v_m = mu_t(m) v_m
    for every m; the multiples are read exactly.  An element acting by 0
    throughout adds nothing and is left out, and so is one under which a
    stored bracket component e_k of [e_i, e_j] or action component v_n of
    rho(e_i) v_m breaks torus weight.  So each row of the differential
    keeps torus weight, which is all that slicing needs.
    """
    if module._torus is None:
        g, action = module.algebra, module.action
        lams, mus = [], []
        basis_in_cutoff = all(w <= g.cutoff for w in g.weights)
        components = {key: [k for k, _ in terms] for key, terms in g.brackets.items()}
        for t in g.basis_indices_of_weight(0) if basis_in_cutoff else ():
            lam = _eigenvalues([g.bracket(t, j) for j in range(g.dim)])
            mu = _eigenvalues([action.get((t, m), EMPTY) for m in range(module.dim)])
            if lam is None or mu is None or not (any(lam) or any(mu)):
                continue
            if _keeps_weight(components, lam, lam) and _keeps_weight(action, lam, mu):
                lams.append(lam)
                mus.append(mu)
        module._torus = (
            [tuple(lam[i] for lam in lams) for i in range(g.dim)],
            [tuple(mu[m] for mu in mus) for m in range(module.dim)],
        )
    return module._torus


def _keeps_weight(table, lam, mu):
    """Whether each component n of each table[(i, m)] is in weight lam[i] + mu[m]."""
    return all(mu[n] == lam[i] + mu[m] for (i, m), vec in table.items() for n in vec)


def _eigenvalues(images):
    """[c_j] when images[j] is c_j e_j for every j, else None; a c_j that is
    an integer is kept as an int."""
    out = []
    for j, vec in enumerate(images):
        if any(i != j for i in vec):
            return None
        c = vec.get(j, 0)
        out.append(c.numerator if c.denominator == 1 else c)
    return out


def _rows(module: LieModule, weight: int, src, tgt):
    """The CE differential from the span of `src` to that of `tgt`, in
    cochain weight w, as sparse rows.

    Built in a single pass over the target tuples: the `_ce_terms` of each
    name exactly the source basis elements it reads, so the block costs
    O(#target tuples) rather than one full differential per column.
    Every target tuple pairs with a module vector of weight (tuple total - w),
    so a tuple with an over-cutoff bracket pair could meet the block; it is
    dropped (its rows stay empty) and counted.  Returns (rows, excluded tuple
    count), where rows[r] maps source positions to the nonzero entries of the
    row of tgt[r], summed through `accumulate`.
    """
    g = module.algebra
    src_pos = {key: c for c, key in enumerate(src)}
    of_weight: dict[int, list] = {}  # module weight -> its module indices
    for m, wm in enumerate(module.weights):
        of_weight.setdefault(wm, []).append(m)
    # tgt lists the module indices of each tuple next to each other
    tuples_in_block: dict[tuple, list] = {}
    for idx, m in tgt:
        tuples_in_block.setdefault(idx, []).append(m)
    rows = []
    excluded = 0
    for idx, ms in tuples_in_block.items():
        if not _in_cutoff(g, idx):
            excluded += 1
            rows.extend({} for _ in ms)
            continue
        terms = {m: [] for m in ms}  # (source position, value) pairs per row
        total = sum(g.weights[i] for i in idx)
        for source, acting, sign, c in _ce_terms(g, idx):
            if acting is None:
                for m in ms:
                    col = src_pos.get((source, m))
                    if col is not None:
                        terms[m].append((col, sign * c))
                continue
            for m_src in of_weight.get(total - g.weights[acting] - weight, ()):
                col = src_pos.get((source, m_src))
                if col is None:
                    continue
                for m_out, a in module.action.get((acting, m_src), EMPTY).items():
                    if m_out in terms:
                        terms[m_out].append((col, sign * c * a))
        rows.extend(accumulate(pairs) for pairs in terms.values())
    return rows, excluded


def differential_block(module: LieModule, k: int, weight: int):
    """Dense view of the CE differential C^k(w) -> C^{k+1}(w), for the tests
    and the benchmark.

    The `_rows` of the sorted union of the block's torus slices, written out
    as lists of Fractions.  Returns (matrix with rows indexed by the target
    basis, source basis, target basis, excluded tuple count), each basis in
    lexicographic (tuple, m) order.
    """
    src, tgt = (sorted(chain(*_slices(module, j, weight).values())) for j in (k, k + 1))
    rows, excluded = _rows(module, weight, src, tgt)
    matrix = [[ZERO] * len(src) for _ in rows]
    for dense, row in zip(matrix, rows):
        for col, value in row.items():
            dense[col] = value
    return matrix, src, tgt, excluded


def _slice_ranks(module: LieModule, k: int, weight: int, taus, source=None):
    """The sum of the ranks of d_k on the torus slices `taus` of C^k(w),
    each slice built and ranked once per module.

    The block's source (`source`, its `_slices`, when the caller has them)
    and its in-cutoff target are enumerated once for every slice not yet
    ranked, and only those slices are kept: the rows of excluded target
    tuples are empty.  A slice absent from the source has rank 0.
    """
    ranks = module._ranks
    missing = {tau for tau in taus if (k, weight, tau) not in ranks}
    if missing:
        source = source or _slices(module, k, weight, taus=missing)
        target = _slices(module, k + 1, weight, module.algebra.cutoff, missing)
        for tau in missing:
            src = source.get(tau, [])
            rows, _ = _rows(module, weight, src, target.get(tau, []))
            ranks[(k, weight, tau)] = linalg.rank_rows(rows, len(src))
    return sum(ranks[(k, weight, tau)] for tau in taus)


def cohomology_dim(module: LieModule, k: int, weight: int) -> int:
    """dim H^k at one cochain weight, by exact rank-nullity on torus slices.

    Each torus element t (see `_torus`) acts on a cochain basis element
    (X, m) of torus weight tau = sum of lambda_t(x) over x in X, minus
    mu_t(m), by the Lie derivative L_t = -tau_t.  The differential keeps
    tau, and a truncated block only drops whole target rows, so every block
    is block-diagonal in tau and H^k(w) is the sum over slices of
    dim C^k_tau - rank d_{k,tau} - rank d_{k-1,tau}.

    A slice tau != 0 with no excluded k-tuple adds 0 (Fuks, Cohomology of
    Infinite-Dimensional Lie Algebras, 1986):
    - L_t = d i_t + i_t d holds formally, from antisymmetry and a diagonal
      ad t alone;
    - t has weight 0 and the basis sits in cutoff, so [t, x] is in cutoff
      for every x: a k-tuple X without an over-cutoff pair gives a row
      (t, X) of d_k without one;
    - so a cocycle c of the slice has i_t dc = 0, and c = -(1/tau_t) d(i_t c)
      for a t with tau_t != 0, a coboundary of d_{k-1}, which no exclusion
      in the slice cuts.
    C^k(w) is enumerated once and bucketed by tau; only the zero slice and
    the slices holding an excluded k-tuple are ranked.  An algebra without a
    torus has the one slice ().

    Rank-nullity needs d^2 = 0, which a truncated action can break (a
    negative weight brings an action past the module cutoff back under it).
    So, once per module, the action must represent the stored bracket on
    every in-cutoff pair and every vector, or a UsageError names a failure.
    """
    g = module.algebra
    if module._ranks is None:
        for i, j in combinations(range(g.dim), 2) if module.action else ():
            for m in range(module.dim) if g.in_cutoff_pair(i, j) else ():
                if not module.acts_as_bracket(i, j, m):
                    raise UsageError(
                        f"{module.name}: not a representation on "
                        f"({g.labels[i]}, {g.labels[j]}, {module.labels[m]})"
                    )
        module._ranks = {}
    source = _slices(module, k, weight)
    live = [
        tau
        for tau, basis in source.items()
        if not any(tau) or not all(_in_cutoff(g, idx) for idx, _ in basis)
    ]
    rank_prev = _slice_ranks(module, k - 1, weight, live) if k else 0
    rank_k = _slice_ranks(module, k, weight, live, source)
    return sum(len(source[tau]) for tau in live) - rank_k - rank_prev


def is_cocycle(cochain: Cochain) -> bool:
    return ce_differential(cochain).is_zero()


def is_coboundary(cochain: Cochain):
    """Exact solve for a primitive, one torus slice at a time.

    Returns (True, primitive Cochain) or (False, None).  The input must be a
    cocycle with no value on a tuple with an over-cutoff bracket pair, where
    d of a primitive is unknown; anything else is a usage error.  Each slice
    of C^k(w) that the cocycle meets is solved from its in-cutoff rows over
    its source in block order, so the free-variables-zero primitive is the
    one the whole block gives.
    """
    if not is_cocycle(cochain):
        raise UsageError("is_coboundary input is not a cocycle")
    module, k = cochain.module, cochain.degree
    g = module.algebra
    for idx in cochain.values:
        if not _in_cutoff(g, idx):
            labels = ", ".join(g.labels[i] for i in idx)
            raise UsageError(
                f"is_coboundary input has a value on ({labels}), past the cutoff"
            )
    primitive_values: dict[tuple, Vector] = {}
    for w in cochain.support_weights():
        target = _slices(module, k, w, g.cutoff)
        rhs = {}  # the slices the cocycle meets -> its values on their targets
        for tau, tgt in target.items():
            values = [cochain.value(idx).get(m, ZERO) for idx, m in tgt]
            if any(values):
                rhs[tau] = values
        source = _slices(module, k - 1, w, taus=rhs)
        for tau, values in rhs.items():
            src = sorted(source.get(tau, []))
            rows, _ = _rows(module, w, src, target[tau])
            sol = linalg.solve_rows(rows, len(src), values)
            if sol is None:
                return (False, None)
            # each (idx, m) lies in exactly one slice, so nothing sums
            for (idx, m), c in zip(src, sol):
                if c != 0:
                    primitive_values.setdefault(idx, {})[m] = c
    return (True, Cochain(module, k - 1, primitive_values))


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
    name = name or f"{e.sub.name} as {e.quotient.name}-module"
    cutoff = max(e.sub.weights, default=0)
    return LieModule(e.quotient, name, e.sub.labels, e.sub.weights, action, cutoff)


def extension_cocycle(e: ExtensionData, module: LieModule) -> Cochain:
    """The CE 2-cocycle of an extension with abelian kernel.

    c(xi, eta) = [s(xi), s(eta)] - s([xi, eta]) in sub coordinates, verified
    to satisfy the cocycle identity in `module`, the kernel with the
    quotient action.
    """
    cochain = Cochain(module, 2, extension_defect_cochain(e))
    boundary = ce_differential(cochain)
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

