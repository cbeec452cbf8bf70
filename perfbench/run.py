"""specgauss benchmark: two workloads, each in a fresh Python process.

  python3 perfbench/run.py --workload deep-fbm|analysis|all \\
      --seed N --seconds S --trace 0|1

Workloads (see workloads.py):
  deep-fbm  validate-cov of fBm H=0.3 at N=32768, grid 33, 2048 paths, as a
            pair at --threads 1 and --threads 2; expansion sampling dominates.
  analysis  validate-cov of gen-OU on a 129-point grid, the rate probe,
            quantize under a 1000-codeword budget plus its Monte Carlo
            distortion, a generic-route type-B build, a series_cov sweep, and
            N = M = 1024 paths written as binary and CSV and read back;
            validation and quantization dominate, the fold is light or bypassed.

The seed derives every program seed; the program sees only those.  A run
repeats its workload for about --seconds; outputs are checked after each
operation, outside the timed region.

With --trace 0 the run reports the end-to-end metrics: setup_s (median over
several fresh processes), wall_s (median over repetitions) and peak_rss_mb.
failed_frac is printed with them and carried as attempted/failed.  With
--trace 1 the run alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, including trace.overhead_s.

Every metric is printed with its unit; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  A result file with
the environment record goes to .bench_work/results/.  The run exits 2 when the
specgauss sources are not next to the benchmark, and 1 when a workload process
fails, without printing a result in either case.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".bench_work")

# fresh set-up-only processes per run; the measuring process adds one sample
SETUP_PROBES = 2
# every run must end well inside three minutes
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, out, timeout):
    cmd = [sys.executable, WORKER, *args, "--out", out, "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise WorkerFailed(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"workload process exited with {proc.returncode}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _stats(values):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def _op_seconds(outcomes):
    """Seconds per operation name, untraced repetitions only."""
    out = {}
    for o in outcomes:
        if not o["traced"]:
            out.setdefault(o["op"], []).append(o["seconds"])
    return out


def run_workload(name, args, started):
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{name}-seed{args.seed}-trace{args.trace}")
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    common = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--size", args.size, "--workdir", workdir]
    for fault in args.fault:
        common += ["--fault", fault]
    try:
        setups = []
        for i in range(SETUP_PROBES):
            probe = _spawn(common + ["--setup-only"], os.path.join(workdir, f"setup{i}.json"), 60)
            setups.append(probe["setup_s"])
        remaining = DEADLINE_S - (time.monotonic() - started)
        res = _spawn(common + ["--spans", stem + ".spans.json"],
                     os.path.join(workdir, "result.json"), max(remaining, 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["setup_s"])
    failed_frac = res["failed"] / res["attempted"]
    end_to_end = {
        "setup_s": _stats(setups),
        "wall_s": _stats(res["walls_untraced"]),
        "peak_rss_mb": _stats([res["peak_rss_mb"]]),
    }
    if args.trace:
        reported = res["per_layer"]
    else:
        reported = {k: v["median"] for k, v in end_to_end.items()}
    summary = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "repetitions": res["n_reps"], "env": res["env"],
        "attempted": res["attempted"], "failed": res["failed"], "failed_frac": failed_frac,
        "stat_fails": res["stat_fails"],
        "failures": [o for o in res["outcomes"] if o["error"]],
        "op_seconds": _op_seconds(res["outcomes"]),
        "end_to_end": end_to_end,
        "per_layer": res.get("per_layer"),
        "per_layer_notes": {n: note for n, _, note in metrics.PER_LAYER},
        "counts": res.get("counts"),
        "units": metrics.UNITS,
        "metrics": reported,
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    _print_table(summary)
    return summary


def _print_table(s):
    mode = "traced" if s["trace"] else "untraced"
    print(f"{s['workload']}: seed {s['seed']}, {s['repetitions']} repetitions, {mode}")
    for name, unit, _ in metrics.END_TO_END:
        st = s["end_to_end"][name]
        print(f"  {name:<36} {st['median']:>14.6g} {unit:<9} "
              f"median of {st['n']} (q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    print(f"  {'failed_frac':<36} {s['failed_frac']:>14.6g} {metrics.FAILED_FRAC[1]:<9} "
          f"{s['failed']} of {s['attempted']} operations")
    for failure in s["failures"]:
        print(f"    FAILED rep {failure['rep']} {failure['op']}: {failure['error']}")
    if s["per_layer"]:
        for name, unit, note in metrics.PER_LAYER:
            print(f"  {name:<36} {s['per_layer'][name]:>14.6g} {unit:<9} {note}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=metrics.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny sizes are for the benchmark's own smoke test")
    p.add_argument("--fault", action="append", default=[],
                   help="inject a fault (smoke test): corrupt-report, corrupt-binary")
    args = p.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "specgauss", "__init__.py")):
        print(f"error: no specgauss sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = [run_workload(name, args, started) for name in names]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    reported = {}
    for s in summaries:
        for name, value in s["metrics"].items():
            key = name if len(summaries) == 1 else f"{s['workload']}.{name}"
            reported[key] = {"value": value, "unit": metrics.UNITS[name]}
    line = {
        "correct": all(s["failed"] == 0 for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": reported,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
