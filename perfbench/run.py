#!/usr/bin/env python3
"""Round-trip benchmark of regionir.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 35 --trace 0

Runs one workload closed-loop in this one process: one compile
operation after another, no threads.  The first pass over the
workload's fixed work set always runs whole and checks everything;
timing rounds then repeat each operation until --seconds have passed.
Each time is divided by the machine's pace around it (calibrate.py),
and an operation's time is the median of its samples.  Every metric is
printed with its unit, and the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from traced passes that alternate with untraced
ones.  perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from stats import geomean, loglog_fit, percentile, ratio

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(ROOT, "tests", "corpus")
TRACE_DIR = os.path.join(ROOT, ".bench_out")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# End-to-end metrics that are put against the machine's pace.
TIMED = ("compile_instr_per_s", "compile_ms_p50", "compile_ms_p95",
         "oracle_steps_per_s")
SETUP_SAMPLES = 7
# Pace samples taken before and after each set-up sample.
SETUP_PACE_BURST = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("ladder", "passwise", "corpus-exec"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="only the smallest rung of the workload")
    p.add_argument("--setup-only", action="store_true",
                   help="import and build the work set, then exit "
                        "(how setup_s is sampled)")
    return p.parse_args(argv)


def measure_setup(ns, pace):
    """Median wall time of fresh processes that import the program and
    build the work set, each divided by the machine's pace around it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", ns.workload, "--seed", str(ns.seed)]
    if ns.smoke:
        cmd.append("--smoke")
    spans = []
    for _ in range(SETUP_SAMPLES):
        pace.burst(SETUP_PACE_BURST)
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls and rounds to 50 ms.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        spans.append((t0, time.perf_counter()))
    pace.burst(SETUP_PACE_BURST)
    return statistics.median((t1 - t0) / pace.factor(t0, t1)
                             for t0, t1 in spans)


def end_to_end(first, timing, setup_s, pace):
    """End-to-end metrics from the whole pass `first` and the timing
    rounds, and the R^2 of the compile-time fit.  Times are put against
    the machine's pace, or left as measured when `pace` is None."""
    ok = [k for k in range(first.attempted) if timing.compile_samples[k]]
    samples = [timing.seconds(k, pace) for k in ok]
    compile_s = [statistics.median(c) for c, _ in samples]
    instrs = [first.instrs[k] for k in ok]
    exponent, r2 = loglog_fit(zip(instrs, compile_s))
    m = {
        "setup_s": setup_s,
        "compile_instr_per_s": ratio(sum(instrs), sum(compile_s)),
        "compile_ms_p50": percentile(compile_s, 50) * 1e3 if ok else 0.0,
        "compile_ms_p95": percentile(compile_s, 95) * 1e3 if ok else 0.0,
        "compile_exponent": exponent,
        "oracle_steps_per_s": geomean(
            [first.oracle_steps[k] for k in ok],
            [statistics.median(o) for _, o in samples]),
        "exec_steps_ratio": geomean(first.back_steps, first.src_steps),
        "code_size_ratio": geomean(first.back_instrs, first.instrs),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reconstruct_ok_share": ratio(first.reconstruct_ok, first.attempted),
    }
    return m, r2


def total(values):
    return sum(v for v in values if v is not None)


def main(argv=None):
    ns = parse_args(argv)
    sys.path.insert(0, SRC)
    try:
        import calibrate
        import tracer
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import regionir from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    if not os.path.isdir(CORPUS):
        print("perfbench: no corpus at %s" % CORPUS, file=sys.stderr)
        return 2

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    t0 = time.perf_counter()
    work = workloads.make_workset(ns.workload, CORPUS, smoke=ns.smoke)
    generate_s = time.perf_counter() - t0
    if ns.setup_only:
        return 0
    pace = calibrate.Pace()
    setup_s = measure_setup(ns, pace)
    # What lives for the whole run is frozen, so that the collection
    # before each timed operation only walks what is new.
    gc.collect()
    gc.freeze()
    tr = tracer.Tracer() if ns.trace else None
    plain, traced, timing, ranges = workloads.measure(
        work, ns.seed, ns.seconds, pace, tr)

    runs = plain + traced + ([timing] if timing else [])
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    digests = {r.digest for r in plain + traced if r.complete}
    for line in [e for r in runs for e in r.errors][:20]:
        print("perfbench: FAILED %s" % line, file=sys.stderr)
    if len(digests) > 1:
        print("perfbench: FAILED determinism gate: %d distinct digests over "
              "the whole passes" % len(digests), file=sys.stderr)
    correct = failed == 0 and len(digests) == 1

    first = plain[0]
    print("workload=%s seed=%d trace=%d passes=%d+%d timing_rounds=%d "
          "ops=%d triples=%d" % (ns.workload, ns.seed, ns.trace, len(plain),
                                 len(traced), timing.rounds if timing else 0,
                                 first.attempted, first.triples))
    print("digest=%s nodes_built=%d nodes_optimised=%d exec_steps=%d/%d "
          "code_size=%d/%d"
          % (first.digest, first.nodes_built, first.nodes_optimised,
             total(first.back_steps), total(first.src_steps),
             total(first.back_instrs), total(first.instrs)))
    checks = {
        "oracle.checks_per_s": ratio(sum(p.triples for p in plain),
                                     sum(total(p.oracle_s) for p in plain)),
        "oracle_fail_share": ratio(failed, attempted),
        "reconstruct_fail_share": ratio(first.reconstruct_failed,
                                        first.attempted),
    }
    print("oracle.checks_per_s=%r %s" % (checks["oracle.checks_per_s"],
                                         units["oracle.checks_per_s"]))
    print("oracle_fail_share=%r share (%d/%d)"
          % (checks["oracle_fail_share"], failed, attempted))
    print("reconstruct_fail_share=%r share (%d/%d)"
          % (checks["reconstruct_fail_share"], first.reconstruct_failed,
             first.attempted))
    if tr is None:
        metrics, compile_r2 = end_to_end(first, timing, setup_s, pace)
        for name, value in metrics.items():
            print("%s=%r %s" % (name, value, units[name]))
        counts = [len(c) for c in timing.compile_samples if c]
        print("(medians of %d to %d samples per operation, over %d "
              "operations; compile fit R^2 %.3f)"
              % (min(counts, default=0), max(counts, default=0),
                 len(counts), compile_r2))
        wall, _ = end_to_end(first, timing, setup_s, None)
        print("pace=%.4f over %d samples; as measured, not put against "
              "it: %s" % (pace.factor(), len(pace.samples), " ".join(
                  "%s=%.6g" % (k, wall[k]) for k in TIMED)))
    else:
        layers = tracer.per_layer(tr, ranges, plain, traced, pace)
        _, layers["compile.exponent_r2"] = loglog_fit(
            (n, t) for n, t in zip(first.instrs, first.compile_s)
            if t is not None)
        layers["randprog.generate_s"] = generate_s
        layers.update(checks)
        for name, value in layers.items():
            print("%s=%r %s" % (name, value, units[name]))
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "trace-%s-seed%d.json"
                            % (ns.workload, ns.seed))
        tr.write(path, {"workload": ns.workload, "seed": ns.seed,
                        "passes": ranges})
        print("spans=%d written to %s" % (len(tr.spans),
                                          os.path.relpath(path, ROOT)))
        metrics = layers
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
