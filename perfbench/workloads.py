"""The three benchmark workloads: fixed inputs, the timed work, output checks.

Each workload runs in a fresh interpreter (see worker.py), so the level cache
in `tower` starts empty, as it does for a CLI user.  `setup` builds the
fixed inputs, `run` is the timed work up to a result, and `check` compares
the result with known values outside the timed region.  Only transport's
inputs depend on the seed; tower and cohomology are fixed by their CLI
arguments.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

from formaldisc import cli, cohomology, darboux, tower
from formaldisc.series import (
    DifferentialForm,
    Monomial,
    TruncatedPoly,
    poisson_bracket,
)
from formaldisc.weyl import TruncationSpec

from spans import replace_everywhere


class OpClock:
    """Latency of each unit operation; tags trace spans with the op id."""

    def __init__(self, tracer=None):
        self.samples: list[float] = []
        self.tracer = tracer

    def time(self, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.samples) + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.samples.append(perf_counter() - start)
            if self.tracer is not None:
                self.tracer.op = 0


class Workload:
    """Defaults for the hooks a workload may leave out."""

    def install_hooks(self):
        pass

    def setup(self):
        pass


class Transport(Workload):
    """Criterion-9a shape: the form (1 + x1) dx1^dy1 at N=8, normalized at
    weight 10, then seeded triples and pairs of 3-term h-free polynomials
    through the transported product.  One op is one
    `transported_product_symbol` call."""

    name = "transport-d1n8"
    N = 8
    TRIPLES = 10
    PAIRS = 10
    UNIT_EVERY = 5
    # 9a's monomial pool: x^a y^b with a, b <= 3 and weight <= 5
    POOL = [
        Monomial((a,), (b,), 0) for a in range(4) for b in range(4) if a + b <= 5
    ]

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def setup(self):
        n = self.N
        base = DifferentialForm(
            1, n, 2, {(0, 1): TruncatedPoly.one(1, n) + TruncatedPoly.x(0, 1, n)}
        )
        self.theta = darboux.form_to_bivector(darboux.check_symplectic(base))
        deep = darboux.check_symplectic(darboux.lift_form(base, n + 2))
        self.phi = darboux.darboux_normalize(deep)
        self.phi_inv = self.phi.inverse()
        self.spec = TruncationSpec(1, 2, self.phi.cutoff)
        self.one = TruncatedPoly.one(1, self.phi.cutoff)
        polys = self._polys(3 * self.TRIPLES + 2 * self.PAIRS)
        self.triples = [polys[3 * t : 3 * t + 3] for t in range(self.TRIPLES)]
        rest = polys[3 * self.TRIPLES :]
        self.pairs = [rest[2 * t : 2 * t + 2] for t in range(self.PAIRS)]

    def _polys(self, count):
        """Seeded 3-term polys; each run of five uses every pool monomial
        once, so every seed draws the same multiset of monomials."""
        out = []
        while len(out) < count:
            pool = self.POOL[:]
            self.rng.shuffle(pool)
            for k in range(0, len(pool), 3):
                terms = {
                    m: Fraction(self.rng.choice((-3, -2, -1, 1, 2, 3)))
                    for m in pool[k : k + 3]
                }
                out.append(TruncatedPoly(1, self.N, terms))
        return out[:count]

    def run(self, clock):
        phi, inv, spec, cut = self.phi, self.phi_inv, self.spec, self.phi.cutoff

        def prod(x, y):
            return clock.time(darboux.transported_product_symbol, phi, x, y, spec, inv)

        results = []
        for t, (a, b, c) in enumerate(self.triples):
            a2, b2, c2 = (q.lifted(cut) for q in (a, b, c))
            item = {"a": a2, "unit_check": t % self.UNIT_EVERY == 0}
            try:
                ab, bc = prod(a2, b2), prod(b2, c2)
                item["assoc"] = (prod(ab, c2), prod(a2, bc))
                item["comm"] = (ab, prod(b2, a2))
                if item["unit_check"]:
                    item["unit"] = (prod(a2, self.one), prod(self.one, a2))
            except Exception as exc:  # a failed op fails its checks
                item["error"] = repr(exc)
            results.append(item)
        brackets = []
        for a, b in self.pairs:
            try:
                got = darboux.transported_induced_poisson(phi, a, b, inv)
                brackets.append((a, b, got))
            except Exception as exc:
                brackets.append((a, b, exc))
        return results, brackets

    def check(self, outputs):
        results, brackets = outputs
        attempted = failed = 0
        for item in results:
            checks = 4 if item["unit_check"] else 2
            attempted += checks
            if "error" in item:
                failed += checks
                continue
            left, right = item["assoc"]
            failed += left != right
            ab, ba = item["comm"]
            failed += not all(m.hexp >= 1 for m in (ab - ba).terms)
            if item["unit_check"]:
                failed += sum(u != item["a"] for u in item["unit"])
        for a, b, got in brackets:
            attempted += 1
            if isinstance(got, Exception):
                failed += 1
            else:
                failed += got != poisson_bracket(a, b, self.theta)
        return attempted, failed, {}

    def cross_checks(self, c, ops):
        """Counts the wrappers must see if every alias of a layer was wrapped."""
        return {
            "transport calls = timed ops + 2 per bracket pair": (
                c["darboux.transport.calls"] == ops + 2 * self.PAIRS
            ),
            "weyl.star.calls = darboux.transport.calls": (
                c["weyl.star.calls"] == c["darboux.transport.calls"]
            ),
        }


class Tower(Workload):
    """`formaldisc tower check --d 2 --p 1 --N 6`; one op is the whole
    request.  Its 15 checks are too uneven to be ops: half take a few ms."""

    name = "tower-d2p1n6"
    ARGS = ["tower", "check", "--d", "2", "--p", "1", "--N", "6"]
    CHECKS = (
        "row2-jacobi",
        "row3-jacobi",
        "row2-exact",
        "row2-central",
        "row3-exact",
        "row3-central",
        "col2-exact",
        "col2-kernel-abelian",
        "col3-exact",
        "col2-kernel-is-A",
        "col3-kernel-is-H",
        "col1-exact-and-trivial",
        "square-inject",
        "square-project",
        "row1-exact",
    )

    def __init__(self, seed):
        self.report_path = os.path.join(".perfbench", f"tower-{os.getpid()}.json")
        os.makedirs(".perfbench", exist_ok=True)

    def run(self, clock):
        with redirect_stdout(io.StringIO()):
            code = clock.time(cli.main, self.ARGS + ["--json", self.report_path])
        with open(self.report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(self.report_path)
        return code, report

    def check(self, outputs):
        code, report = outputs
        status = {c["name"]: c["status"] for c in report["checks"]}
        failed = sum(status.get(name) != "pass" for name in self.CHECKS)
        if code != 0 and not failed:
            failed = 1
        return len(self.CHECKS), failed, {}

    def cross_checks(self, c, ops):
        return {
            "cli reaches tower.commu_diagram_check once": c["tower.check.calls"] == 1,
            "tower.commutator wrapped": c["weyl.commutator.calls"] > 0,
            "one Jacobi sweep per jacobi check": c["liealg.verify_jacobi.calls"] == 2,
            "one timed op per request": ops == 1,
        }


class Cohomology(Workload):
    """`formaldisc cohomology dims --algebra H --d 1 --N 8` and
    `--algebra W --d 1 --N 5`, degrees 0,1,2; one op is the pair of
    requests, so every sample is alike.  Single requests are not: W takes
    about twice as long as H, so the median of a pool of both would sit
    between the slowest H and the fastest W."""

    name = "cohomology-d1"
    RUNS = (("H", 8), ("W", 5))

    def __init__(self, seed):
        self.cells = []

    def install_hooks(self):
        compute, cells = cohomology.cohomology_dim, self.cells

        def recording(module, k, weight):
            dim = compute(module, k, weight)
            cells.append((module, k, weight, dim))
            return dim

        replace_everywhere(compute, recording)

    def setup(self):
        # the fixed inputs; the CLI below is served from the level cache
        tower.build_h(1, 8)
        tower.build_w(1, 5)

    def run(self, clock):
        return clock.time(self._requests)

    def _requests(self):
        tables = {}
        for algebra, n in self.RUNS:
            out = io.StringIO()
            args = ["cohomology", "dims", "--algebra", algebra, "--d", "1"]
            args += ["--N", str(n)]
            with redirect_stdout(out):
                code = cli.main(args)
            tables[algebra] = (code, json.loads(out.getvalue())["dimensions"])
        return tables

    @staticmethod
    def _known(algebra, k, weight):
        """Known dims: H^0(w=0) = 1, H^1 = 0, and the omega class H^2(H; w=-2)."""
        if k == 0 and weight == 0:
            return 1
        if k == 1:
            return 0
        if (algebra, k, weight) == ("H", 2, -2):
            return 1
        return None

    def check(self, tables):
        attempted = failed = 0
        recorded, by_algebra = {}, {}
        for module, k, weight, dim in self.cells:
            algebra = module.algebra.name.split("(")[0]
            by_algebra.setdefault(algebra, {})[(k, weight)] = dim
            expected = self._known(algebra, k, weight)
            blocks = [k] + ([k - 1] if k else [])
            if expected is None or any(
                cohomology.differential_block(module, j, weight)[3] for j in blocks
            ):
                # no known value, or rows excluded for overflow: kept, not pinned
                recorded[f"{algebra} H^{k}(w={weight})"] = dim
                continue
            attempted += 1
            failed += dim != expected
        for algebra, (code, table) in tables.items():
            # the CLI's table is exactly the nonzero cells it computed
            cells = by_algebra.get(algebra, {})
            nonzero = {f"H^{k}(w={w})": d for (k, w), d in cells.items() if d}
            attempted += 1
            failed += code != 0 or table != nonzero or not cells
        return attempted, failed, {"cells_recorded": recorded}

    def cross_checks(self, c, ops):
        return {
            "cli's cohomology.cohomology_dim wrapped": (
                c["cohomology.cohomology_dim.calls"] == len(self.cells) > 0
            ),
            "one timed op per request pair": ops == 1,
            "cli's tower.build_* wrapped (2 in set-up, 2 cached)": (
                c["tower.build.calls"] == 4 and c.get("tower.build.cache_hits") == 2
            ),
        }


WORKLOADS = {w.name: w for w in (Transport, Tower, Cohomology)}
