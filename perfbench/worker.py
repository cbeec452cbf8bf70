"""One workload in a fresh process; ``run.py`` starts it and reads its result.

  python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
      --size full|tiny --spawned-at T --workdir DIR --out RESULT.json
      [--spans SPANS.json] [--setup-only] [--fault NAME ...]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux), so set-up time covers
interpreter start, imports and input generation.  With ``--setup-only`` the
worker exits after set-up.  A traced run alternates untraced and traced
repetitions; patches are installed only around the timed operations of the
traced ones.
"""

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def execute(op, tracer):
    """Run one operation (timed) and then its check (untimed).

    Returns (seconds, error or None, observed counts)."""
    error = None
    observed = {}
    patches = tracer.installed() if tracer else contextlib.nullcontext()
    with patches:
        span = tracer.span("op." + op.name) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                value = op.run()
        except Exception as exc:  # a raising operation is a failed one
            error = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if error is None:
        try:
            observed = op.check(value)
        except Exception as exc:  # a failed or broken check fails the operation
            error = f"check {type(exc).__name__}: {exc}"
    return seconds, error, observed


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--fault", action="append", default=[])
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import specgauss  # noqa: F401  (set-up includes the package import)
    import envinfo
    import metrics
    import tracer as tracing
    import workloads

    first_ops = workloads.rep_ops(args.workload, args.seed, args.size, 0, args.workdir, args.fault)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s}, fh)
        return 0

    # Repeat the workload while the next repetition, as long as the last one,
    # still fits in --seconds.  A traced run alternates untraced and traced
    # repetitions and makes at least one of each.
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    outcomes = []
    stat_fails = 0
    traced_counts = {}
    start = time.perf_counter()
    last = 0.0
    rep = 0
    while rep < 1 + args.trace or time.perf_counter() - start + last <= args.seconds:
        rep_start = time.perf_counter()
        traced = bool(args.trace) and rep % 2 == 1
        ops = first_ops if rep == 0 else workloads.rep_ops(
            args.workload, args.seed, args.size, rep, args.workdir, args.fault)
        tracer.run_id = rep
        wall = 0.0
        counts = {}
        for op in ops:
            workloads.clear_caches()
            seconds, error, observed = execute(op, tracer if traced else None)
            wall += seconds
            workloads.merge_counts(counts, op.counts)
            workloads.merge_counts(counts, observed)
            outcomes.append({"rep": rep, "op": op.name, "traced": traced,
                             "seconds": seconds, "error": error})
        stat_fails += counts.get("validate.stat_fail.count", 0)
        walls[traced].append(wall)
        if traced:
            traced_counts = counts
        if rep == 0:  # later repetitions only add allocator fragmentation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        last = time.perf_counter() - rep_start
        rep += 1

    result = {
        "n_reps": rep,
        "setup_s": setup_s,
        "walls_untraced": walls[False],
        "walls_traced": walls[True],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o["error"]),
        "stat_fails": stat_fails,
        "outcomes": outcomes,
        "env": envinfo.record(ROOT),
    }
    if args.trace:
        result["counts"] = traced_counts
        result["per_layer"] = metrics.per_layer(
            tracer.spans, traced_counts, walls[False], walls[True], stat_fails)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump([dataclasses.asdict(s) for s in tracer.spans], fh)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
