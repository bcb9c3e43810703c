"""One cold repetition of one workload, in its own interpreter.

Usage (from the checkout root; run.py does this):
    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is `setup` (stop after building the fixed inputs), `rep` (untraced
timed run), `trace` (the same run with every layer wrapped; SPANS_PATH
receives the spans) or `count` (as `trace`, and also counting every
`Fraction` built).  Prints one JSON line with perf_counter timestamps,
which share CLOCK_MONOTONIC with the parent, so the parent can time
interpreter start and imports as part of set-up.
"""

import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import formaldisc.cli  # noqa: E402,F401  (imports every module, as the CLI does)
from formaldisc import tower  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, OpClock  # noqa: E402


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    if tower._build_cache:
        raise RuntimeError("level cache is not empty at start")
    tracer = None
    if mode in ("trace", "count"):
        tracer = spans.Tracer()
        spans.install(tracer, count_fractions=mode == "count")
    workload = WORKLOADS[name](seed)
    clock = OpClock(tracer)
    workload.install_hooks()
    setup_start = perf_counter()
    workload.setup()
    out = {"setup_end": perf_counter()}
    if mode != "setup":
        error = None
        try:
            outputs = workload.run(clock)
        except Exception as exc:  # counted as a failed check, not a crash
            error = repr(exc)
        out["end"] = perf_counter()
        out["ops"] = clock.samples
        if tracer is not None:
            # snapshot before checking, so check-time calls are not counted
            layers = spans.per_layer(tracer, out["end"] - setup_start)
            out["per_layer"] = layers
            out["cross_checks"] = workload.cross_checks(layers, len(clock.samples))
            if len(argv) > 3:
                tracer.write(argv[3])
        if error is None:
            try:
                attempted, failed, info = workload.check(outputs)
            except Exception as exc:
                error = repr(exc)
        if error is not None:
            attempted, failed, info = 1, 1, {"error": error}
        out.update(attempted=attempted, failed=failed, info=info)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
