"""Metric names, units and the reduction of spans and counts to per-layer metrics.

End-to-end metrics are measured with tracing off; per-layer metrics come from
the traced repetitions of a separate traced run.  ``*.self_s`` is the self
time of a layer's spans in one repetition; counts marked "computed" follow
from the workload's input sizes, not from a measurement.
"""

import statistics

from tracer import root_names, self_times

WORKLOADS = ("deep-fbm", "analysis")

END_TO_END = (
    ("setup_s", "s", "process start until specgauss is imported and the inputs are generated"),
    ("wall_s", "s", "one repetition of the workload's operations, checks excluded"),
    ("peak_rss_mb", "MiB", "peak resident memory of the workload process through its first repetition"),
)

# Printed and recorded with the end-to-end metrics; it is 0 on correct code,
# so the benchmark result carries it as ``attempted``/``failed`` instead.
FAILED_FRAC = ("failed_frac", "fraction", "operations that raised or failed a check / attempted")

PER_LAYER = (
    ("expansion.sample_paths_fast.self_s", "s", "measured"),
    ("expansion.paths_per_s", "1/s", "paths through sample_paths_fast / its inclusive time"),
    ("expansion.normals.count", "count", "computed"),
    ("expansion.draw_bytes", "bytes", "computed"),
    ("expansion.grid_values.count", "count", "computed"),
    ("expansion.fold_bands", "count", "computed: max over calls of ceil(N / 2M), 2M doubled for type C"),
    ("expansion.thread_speedup", "ratio", "sample_paths_fast self time at 1 thread / at 2; 0 without a pair"),
    ("expansion.build.self_s", "s", "measured: all expansion builders"),
    ("fourier.fbm_coefficients.self_s", "s", "measured"),
    ("fourier.coeffs_quadrature.self_s", "s", "measured"),
    ("fourier.coeffs.count", "count", "computed: coefficient table entries built"),
    ("gamma.check_star.self_s", "s", "measured"),
    ("io.to_csv_text.self_s", "s", "measured"),
    ("io.to_binary_bytes.self_s", "s", "measured"),
    ("io.from_csv.self_s", "s", "measured"),
    ("io.from_binary.self_s", "s", "measured"),
    ("io.bytes_written", "bytes", "artifact file sizes; binary also checked against the computed size"),
    ("io.bytes_read", "bytes", "artifact file sizes"),
    ("io.write_mb_per_s", "MB/s", "bytes written / to_csv_text + to_binary_bytes self time"),
    ("io.read_mb_per_s", "MB/s", "bytes read / from_csv + from_binary self time"),
    ("validate.covariance_report.self_s", "s", "measured"),
    ("validate.pairs.count", "count", "computed: M(M+1)/2 per report"),
    ("validate.pairs_per_s", "1/s", "pairs / covariance_report inclusive time"),
    ("validate.series_cov.calls", "count", "measured"),
    ("validate.series_cov.self_s", "s", "measured"),
    ("validate.rate_probe.self_s", "s", "measured"),
    ("validate.stat_fail.count", "count", "validate-cov or rate exit 1 over the whole run"),
    ("quantize.product_quantizer.self_s", "s", "measured"),
    ("quantize.allocate_levels.self_s", "s", "measured"),
    ("quantize.kl_reduce.self_s", "s", "measured"),
    ("quantize.distortion_mc.self_s", "s", "measured"),
    ("quantize.codewords.count", "count", "product of the sidecar's levels per dimension"),
    ("cli.main.calls", "count", "measured"),
    ("cli.main.self_s", "s", "measured"),
    ("trace.overhead_s", "s", "median traced minus median untraced wall_s"),
    ("trace.spans.count", "count", "measured"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + (FAILED_FRAC,) + PER_LAYER}

_COUNTS = (
    "expansion.normals.count", "expansion.draw_bytes", "expansion.grid_values.count",
    "expansion.fold_bands", "fourier.coeffs.count", "io.bytes_written", "io.bytes_read",
    "validate.pairs.count", "quantize.codewords.count",
)


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def _per_rep(spans, run_ids, name_prefix, value):
    """Median over repetitions of the sum of ``value(span)`` over matching spans."""
    totals = {r: 0.0 for r in run_ids}
    for s in spans:
        if s.name.startswith(name_prefix) and s.run_id in totals:
            totals[s.run_id] += value(s)
    return statistics.median(totals.values())


def per_layer(spans, rep_counts, walls_untraced, walls_traced, stat_fails):
    """Every per-layer metric from the spans and counts of the traced repetitions.

    ``rep_counts`` holds the computed and observed counts of one traced
    repetition; they are equal across repetitions of the same inputs.
    """
    run_ids = sorted({s.run_id for s in spans}) or [0]
    selft = self_times(spans)
    roots = root_names(spans)
    out = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):  # spans are named after the metric's layer.function
            prefix = name[: -len(".self_s")]
            out[name] = _per_rep(spans, run_ids, prefix, lambda s: selft[s.id])
    for key in _COUNTS:
        out[key] = rep_counts.get(key, 0)

    def inclusive(prefix):
        return _per_rep(spans, run_ids, prefix, lambda s: s.end - s.start)

    def calls(prefix):
        return _per_rep(spans, run_ids, prefix, lambda s: 1)

    out["expansion.paths_per_s"] = _ratio(
        rep_counts.get("sampled_paths", 0), inclusive("expansion.sample_paths_fast"))
    sample_self = {}
    for s in spans:
        if s.name == "expansion.sample_paths_fast":
            root = roots[s.id]
            sample_self[root] = sample_self.get(root, 0.0) + selft[s.id]
    out["expansion.thread_speedup"] = _ratio(
        sample_self.get("op.validate-cov-t1", 0.0), sample_self.get("op.validate-cov-t2", 0.0))
    out["io.write_mb_per_s"] = _ratio(
        out["io.bytes_written"] / 1e6, out["io.to_csv_text.self_s"] + out["io.to_binary_bytes.self_s"])
    out["io.read_mb_per_s"] = _ratio(
        out["io.bytes_read"] / 1e6, out["io.from_csv.self_s"] + out["io.from_binary.self_s"])
    out["validate.pairs_per_s"] = _ratio(
        out["validate.pairs.count"], inclusive("validate.covariance_report"))
    out["validate.series_cov.calls"] = calls("validate.series_cov")
    out["validate.stat_fail.count"] = stat_fails
    out["cli.main.calls"] = calls("cli.main")
    out["trace.overhead_s"] = statistics.median(walls_traced) - statistics.median(walls_untraced)
    out["trace.spans.count"] = calls("")
    return {name: out[name] for name, _, _ in PER_LAYER}
