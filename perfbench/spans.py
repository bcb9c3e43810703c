"""Spans and counters for the traced pass, recorded from outside the package.

The tracer wraps public functions and methods of the formaldisc modules.
Each call records a span (name, start, end, parent span, op id) into flat
arrays kept in memory; `write` dumps them when the pass ends.  Counters
(sizes, call counts) are recorded at the same boundaries by small hooks.

Wrapping is alias-complete: a module-level function is replaced in every
formaldisc module that binds it (`darboux.star`, `tower.commutator`, the
package root, ...), and `assert_no_stale_bindings` fails if any binding of
an original is left, so a missed alias cannot silently undercount.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from math import comb
from time import perf_counter

LEVEL_NAMES = {
    "build_g_level": "G",
    "build_derd_level": "DerD",
    "build_h": "H",
    "build_a_poisson": "A",
    "build_w": "W",
}


def formaldisc_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "formaldisc" or name.startswith("formaldisc."))
    ]


def replace_everywhere(original, replacement):
    """Rebind every formaldisc module global that is `original`."""
    hits = 0
    for mod in formaldisc_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module binds {original!r}")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.op = 0
        self.counters: dict[str, float] = {}
        self.fractions_made = None
        self.originals: list = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def maximum(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call; hooks run outside the span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(starts)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1])
            self.span_op.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_function(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        self.originals.append(original)
        replace_everywhere(original, self.wrap(name, original, before, after))

    def wrap_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        self.originals.append(original)
        setattr(cls, attr, self.wrap(name, original, before, after))

    def assert_no_stale_bindings(self):
        stale = [
            f"{mod.__name__}.{attr}"
            for mod in formaldisc_modules()
            for attr, value in vars(mod).items()
            if any(value is original for original in self.originals)
        ]
        if stale:
            raise RuntimeError(f"unwrapped aliases left: {stale}")

    # -- results -------------------------------------------------------------

    def layer_times(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        n = len(self.span_start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            dur = end[i] - start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def write(self, path):
        """Spans as five little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "count": len(self.span_start),
            "arrays": ["name:i32", "parent:i32", "op:i32", "start:f64", "end:f64"],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode())
            for arr in (
                self.span_name,
                self.span_parent,
                self.span_op,
                self.span_start,
                self.span_end,
            ):
                arr.tofile(handle)


def install(tracer, count_fractions):
    """Wrap every layer the benchmark reports on.  Call after importing
    formaldisc.cli (which imports every module) and before any work.

    `count_fractions` also counts every `Fraction` built.  That hook runs
    Python code inside the hottest arithmetic, so it slows Fraction-heavy
    layers more than others; layer times come from a pass without it."""
    from formaldisc import cohomology, darboux, liealg, linalg, tower, weyl
    from formaldisc.series import TruncatedPoly

    t = tracer

    def star_after(args, result, _):
        a, b = args
        t.count("weyl.star.terms_in", len(a.terms) + len(b.terms))
        t.count("weyl.star.terms_out", len(result.terms))

    t.wrap_function(weyl, "star", "weyl.star", after=star_after)
    t.wrap_function(weyl, "commutator", "weyl.commutator")

    t.wrap_method(
        TruncatedPoly,
        "substitute",
        "series.substitute",
        after=lambda args, result, _: t.count(
            "series.substitute.terms_out", len(result.terms)
        ),
    )
    t.wrap_method(TruncatedPoly, "__mul__", "series.mul")

    t.wrap_function(darboux, "darboux_normalize", "darboux.normalize")
    t.wrap_method(darboux.FormalCoordChange, "inverse", "darboux.inverse")
    t.wrap_function(darboux, "transported_product_symbol", "darboux.transport")
    t.wrap_function(darboux, "transported_induced_poisson", "darboux.induced_poisson")

    def jacobi_after(args, exempt, _):
        visited = comb(args[0].dim, 3)
        t.count("liealg.jacobi.triples_visited", visited)
        t.count("liealg.jacobi.triples_checked", visited - exempt)

    algebra = liealg.GradedLieAlgebra
    t.wrap_method(algebra, "verify_jacobi", "liealg.verify_jacobi", after=jacobi_after)
    t.wrap_method(algebra, "bracket_vec", "liealg.bracket_vec")
    for attr in ("check_exact", "check_sub_central", "check_sub_abelian"):
        t.wrap_method(liealg.ExtensionData, attr, "liealg.ladder_checks")
    t.wrap_method(liealg.ExtensionData, "check_splitting", "liealg.ladder_checks")
    t.wrap_method(liealg.LieMap, "verify", "liealg.ladder_checks")

    seen_algebras = set()

    def build_before(args):
        return len(tower._build_cache)

    def build_after_for(builder):
        def after(args, algebra, cache_size):
            if len(tower._build_cache) == cache_size:
                t.count("tower.build.cache_hits")
            if id(algebra) in seen_algebras:
                return
            seen_algebras.add(id(algebra))
            level = LEVEL_NAMES[builder]
            if builder in ("build_g_level", "build_derd_level"):
                level += f"_{args[1]}"
            t.counters[f"tower.basis_dim.{level}"] = algebra.dim
            t.count(
                "tower.bracket_entries",
                sum(len(vec) for vec in algebra.brackets.values()),
            )

        return after

    for builder in LEVEL_NAMES:
        t.wrap_function(
            tower, builder, "tower.build", build_before, build_after_for(builder)
        )
    t.wrap_function(tower, "commu_diagram_check", "tower.check")

    def block_after(args, result, _):
        matrix, src, tgt, excluded = result
        t.maximum("cohomology.differential_block.rows_max", len(tgt))
        t.maximum("cohomology.differential_block.cols_max", len(src))
        t.count("cohomology.differential_block.entries", len(tgt) * len(src))
        t.count(
            "cohomology.differential_block.nnz",
            sum(1 for row in matrix for v in row if v != 0),
        )
        t.count("cohomology.differential_block.excluded", excluded)

    t.wrap_function(
        cohomology,
        "differential_block",
        "cohomology.differential_block",
        after=block_after,
    )
    t.wrap_function(cohomology, "cohomology_dim", "cohomology.cohomology_dim")

    def rank_after(args, result, _):
        matrix = args[0]
        t.count("linalg.rank.entries", len(matrix) * (len(matrix[0]) if matrix else 0))

    t.wrap_function(linalg, "rank", "linalg.rank", after=rank_after)
    t.wrap_function(linalg, "inverse", "linalg.inverse")
    t.wrap_function(linalg, "solve", "linalg.solve")

    t.assert_no_stale_bindings()
    if not count_fractions:
        return

    # every coefficient the kernel builds; a bare closure keeps this cheap
    original_new = Fraction.__new__
    made = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal made
        made += 1
        return original_new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    t.fractions_made = lambda: made


def per_layer(tracer, elapsed):
    """Counters, plus calls, inclusive and self time of every span name, in
    seconds and as a share of `elapsed` (set-up start to result).  Shares of
    one repetition cancel the host's speed, which drifts between runs."""
    out = dict(tracer.counters)
    if tracer.fractions_made is not None:
        out["coeff.fraction_new.calls"] = tracer.fractions_made()
    for name, (calls, total, own) in tracer.layer_times().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = own
        out[f"{name}.pct"] = 100 * total / elapsed
        out[f"{name}.self_pct"] = 100 * own / elapsed
    visited = out.get("liealg.jacobi.triples_visited", 0)
    checked = out.get("liealg.jacobi.triples_checked", 0)
    out["liealg.jacobi.useful_ratio"] = checked / visited if visited else 0.0
    return out
