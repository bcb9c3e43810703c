"""formaldisc benchmark: cold-start workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every repetition is a fresh interpreter (perfbench/worker.py), as for a CLI
user.  With --trace 0 the run starts repetitions until --seconds have passed
(at least MIN_REPS), with set-up-only processes after each one, and reports
the end-to-end metrics of BENCHMARK.json as medians.  With --trace 1 it runs
one untraced repetition, two traced ones that also count every Fraction
built, and one traced one without that count, which gives the layer times.
It checks that every exact counter repeats and that the alias cross-checks
hold, and reports the per-layer metrics.  Human-readable lines come first;
the last line of stdout is one JSON object.  Results and spans are written
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
MIN_REPS = 2
# set-up-only processes after each repetition: more set-up samples, spread
# over the run (samples taken back to back all land in one phase of the host)
SETUPS_PER_REP = 4
DEADLINE_S = 170  # every invocation must end within 180 s


class BenchError(Exception):
    pass


def calibrate():
    """A fixed pure-Python Fraction loop, independent of formaldisc: host speed."""
    start = perf_counter()
    total = 0
    for i in range(40000):
        a = Fraction(i % 97 + 1, i % 89 + 1)
        b = Fraction(i % 13 + 1, 7)
        total += (a * b - a).numerator
    elapsed = perf_counter() - start
    if total != 5613:
        raise BenchError(f"calibration loop gave {total}")
    return elapsed


class Children:
    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.started = perf_counter()

    def spawn(self, mode, spans_path=None):
        worker = os.path.join(HERE, "worker.py")
        cmd = [sys.executable, worker, self.workload, str(self.seed), mode]
        if spans_path:
            cmd.append(spans_path)
        budget = DEADLINE_S - (perf_counter() - self.started)
        if budget <= 1:
            raise BenchError("out of time")
        spawned = perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=budget
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode} repetition timed out") from None
        if proc.returncode != 0:
            raise BenchError(
                f"{self.workload} {mode} repetition failed:\n{proc.stderr}"
            )
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["setup_end"] - spawned
        if "end" in result:
            result["wall_s"] = result["end"] - result["setup_end"]
        return result


def measure(children, seconds):
    children.spawn("setup")  # warm the bytecode cache; not counted
    reps, setups = [], []
    start = perf_counter()
    while True:
        reps.append(children.spawn("rep"))
        setups += [children.spawn("setup") for _ in range(SETUPS_PER_REP)]
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    ops = [t for r in reps for t in r["ops"]]
    deciles = statistics.quantiles(ops, n=10, method="inclusive")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reps + setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * deciles[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    extra = {
        "reps": len(reps),
        "rep_setup_s": [r["setup_s"] for r in reps],
        "setup_only_s": [r["setup_s"] for r in setups],
        "rep_wall_s": [r["wall_s"] for r in reps],
        "rep_ops_s": [r["ops"] for r in reps],
        "op_samples": len(ops),
        "op_samples_beyond_p90": sum(t > deciles[8] for t in ops),
        "info": [r["info"] for r in reps],
    }
    return metrics, reps, extra


def is_timing(name):
    """Times and time shares vary run to run; every other metric is exact."""
    return name.endswith((".s", "_s", ".pct", "_pct"))


def traced(children, seed, calib):
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    base = children.spawn("rep")
    counted = [children.spawn("count") for _ in range(2)]
    path = os.path.join(OUT, "spans", f"{children.workload}-seed{seed}.bin")
    timed = children.spawn("trace", path)
    runs = counted + [timed]
    first, last = counted[0]["per_layer"], timed["per_layer"]
    counters = [k for k in first if not is_timing(k)]
    differing = [
        k
        for k in counters
        if counted[1]["per_layer"].get(k) != first[k]
        or (k in last and last[k] != first[k])
    ]
    checks = {
        "exact counters repeat": not differing,
        "tower.build.* identical on first and last run (cold start)": all(
            first[k] == last.get(k) for k in counters if k.startswith("tower.build")
        ),
    }
    for label in timed["cross_checks"]:
        checks[label] = all(r["cross_checks"][label] for r in runs)
    layers = {k: last[k] if is_timing(k) else first[k] for k in first}
    layers["trace.overhead_pct"] = 100 * (timed["wall_s"] / base["wall_s"] - 1)
    counted_wall = statistics.fmean(r["wall_s"] for r in counted)
    layers["trace.fraction_hook_overhead_pct"] = 100 * (
        counted_wall / base["wall_s"] - 1
    )
    layers["host.calib_s"] = calib
    extra = {
        "untraced_wall_s": base["wall_s"],
        "traced_wall_s": timed["wall_s"],
        "counted_wall_s": [r["wall_s"] for r in counted],
        "differing_counters": differing,
        "per_layer": layers,
        "checks": checks,
        "info": [r["info"] for r in [base] + runs],
    }
    return layers, [base] + runs, extra, checks


def run_workload(spec, name, seed, seconds, trace):
    calib = calibrate()
    children = Children(name, seed)
    if trace:
        values, reps, extra, checks = traced(children, seed, calib)
        wanted = spec["per_layer"]
    else:
        values, reps, extra = measure(children, seconds)
        checks = {}
        wanted = spec["end_to_end"]
    attempted = sum(r["attempted"] for r in reps) + len(checks)
    failed = sum(r["failed"] for r in reps) + sum(not ok for ok in checks.values())
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }

    print(f"== {name}  seed={seed}  trace={trace}  reps={len(reps)}")
    for key, entry in metrics.items():
        secs = values.get(key.replace("pct", "s")) if key.endswith("pct") else None
        also = "" if secs is None else f"  ({secs:.6g} s)"
        print(f"  {key:44s} {entry['value']:.6g} {entry['unit']}{also}")
    frac = f"{failed / attempted:.6g} ({failed}/{attempted} checks)"
    print(f"  {'failed_frac':44s} {frac}")
    if "host.calib_s" not in metrics:
        print(f"  {'host.calib_s':44s} {calib:.6g} s")
    for key in ("op_samples", "op_samples_beyond_p90", "untraced_wall_s"):
        if key in extra:
            print(f"  {key:44s} {extra[key]}")
    for label, ok in checks.items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {label}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({**result, "host.calib_s": calib, **extra}, handle, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "formaldisc", "__init__.py")):
        print("error: no formaldisc sources under src/", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = args.seconds or spec["run_seconds"]

    results = []
    try:
        for name in chosen:
            results.append(run_workload(spec, name, args.seed, seconds, args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
