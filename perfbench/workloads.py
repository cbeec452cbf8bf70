"""The benchmark's workloads: inputs derived from the benchmark seed, the
timed operations, their untimed output checks and the counts computed from
input sizes.

Operations drive ``specgauss.cli.main`` in-process wherever the CLI exposes
them and call public library functions only for what it lacks.  Every
operation returns a value that an untimed check inspects; an operation fails
when it raises, when the CLI exits with 2 or 3, or when a deterministic check
fails.  A ``validate-cov`` or ``rate`` exit code 1 is a statistical verdict,
not a failure: correct code fails a 4-sigma bound over hundreds of grid pairs
a few percent of the time, so it is counted in ``validate.stat_fail.count``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import specgauss
from specgauss import cli, expansion, fourier, gamma, quantize, validate
from specgauss.expansion import PathBatch

SIZES = {
    "full": {
        "deep-fbm": dict(N=32768, grid=33, paths=2048, direct_paths=4),
        "analysis": dict(
            ou_N=512, ou_grid=129, ou_paths=20000,
            rate_Ns=(128, 256, 512, 1024, 2048), rate_replicates=200,
            budget=1000, mc_paths=4000, b_N=1000, sweep_N=4096, sweep_points=8193,
            io_N=1024, io_grid=1024, bin_paths=2000, csv_paths=250,
        ),
    },
    # for the benchmark's own smoke test; deep-fbm keeps two path chunks so
    # that --threads 2 still splits the work
    "tiny": {
        "deep-fbm": dict(N=256, grid=9, paths=1100, direct_paths=4),
        "analysis": dict(
            ou_N=32, ou_grid=9, ou_paths=200,
            rate_Ns=(16, 32), rate_replicates=100,
            budget=8, mc_paths=200, b_N=50, sweep_N=64, sweep_points=65,
            io_N=64, io_grid=64, bin_paths=40, csv_paths=10,
        ),
    },
}

# Counts reduced by max over operations; every other count is summed.
MAX_COUNTS = ("expansion.fold_bands",)

# The CLI's defaults for the quantize command, which the workload relies on.
QUANTIZE_N = 64
MC_GRID_POINTS = 257


class CheckFailed(Exception):
    """An operation's output failed a deterministic check."""


@dataclass
class Op:
    """One timed operation and the untimed check of what it returned.

    ``check`` returns a dict of counts observed in the output (artifact bytes,
    codewords, statistical verdicts); ``counts`` holds the counts computed
    from the operation's input sizes.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    counts: dict = field(default_factory=dict)


def clear_caches():
    """Empty the package's memo caches, as every CLI process starts with them
    empty; the benchmark repeats operations inside one process."""
    for module in (cli, expansion, fourier, gamma, quantize, validate):
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def derive_seed(seed, *tags):
    """Program seed for one operation; the program sees only these."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 1


def sampling_counts(paths, N, M, *, doubled, init):
    """Normals, draw bytes, grid values and fold bands of one sampling call.

    Each path draws 2N+1 normals (plus one for an initial value) and lands on
    M+1 grid points; the fold maps N frequencies onto the DST/DCT base band
    of M cells, or 2M for the doubled type-C period.
    """
    normals = paths * (2 * N + 1 + (1 if init else 0))
    return {
        "expansion.normals.count": normals,
        "expansion.draw_bytes": 8 * normals,
        "expansion.grid_values.count": paths * (M + 1),
        "expansion.fold_bands": math.ceil(N / (2 * (2 * M if doubled else M))),
        "sampled_paths": paths,
    }


def merge_counts(total, more):
    for key, value in more.items():
        if key in MAX_COUNTS:
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


# ---------------------------------------------------------------------------
# shared operation builders and checks
# ---------------------------------------------------------------------------


def _run_cli(argv):
    """``specgauss.cli.main`` in-process, resolved at call time so the traced
    run sees the patched entry point; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 2


def check_exit(code, statistical=False):
    """Exit 1 is a statistical verdict for ``validate-cov`` and ``rate`` and a
    failure otherwise; 2 and 3 always fail."""
    if code == 1 and statistical:
        return {"validate.stat_fail.count": 1}
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    return {}


def cli_op(name, argv, check, counts, *, statistical=False):
    """An operation running one CLI command, then its exit-code and output checks."""
    return Op(
        name,
        lambda: _run_cli(argv),
        lambda code: merge_counts(check_exit(code, statistical), check(code)),
        dict(counts),
    )


def check_report(path, code, command, seed):
    """A validate-cov or rate JSON report agrees with its exit code and run."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("command") != command or report.get("seed") != seed:
        raise CheckFailed(f"{path}: command/seed stamp does not match the run")
    if report.get("version") != specgauss.__version__ or not report.get("config"):
        raise CheckFailed(f"{path}: missing version/config stamp")
    if report.get("passed") is not (code == 0):
        raise CheckFailed(f"{path}: 'passed' disagrees with exit code {code}")
    return report


def flip_byte(path, offset):
    """Fault injection: flip the lowest bit of one byte of an artifact."""
    with open(path, "r+b") as fh:
        fh.seek(offset)
        b = fh.read(1)
        fh.seek(offset)
        fh.write(bytes([b[0] ^ 1]))


def _last_digit_offset(path):
    with open(path, "rb") as fh:
        data = fh.read()
    return max(i for i, c in enumerate(data) if 0x30 <= c <= 0x39)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def deep_fbm_ops(sz, seed, rep, workdir, faults):
    """validate-cov on fBm H=0.3 with a deep truncation, as a pair with the
    same seed at one and two threads.  The reports must be byte-identical;
    the fast sampler must agree with direct synthesis on a few paths."""
    N, G, P = sz["N"], sz["grid"], sz["paths"]
    s = derive_seed(seed, "deep-fbm", rep)
    out = {t: os.path.join(workdir, f"deep-fbm-{rep}-t{t}.json") for t in (1, 2)}
    argv = ["validate-cov", "--model", "fbm", "--hurst", "0.3", "--N", str(N),
            "--grid", str(G), "--paths", str(P), "--seed", str(s)]
    counts = sampling_counts(P, N, G - 1, doubled=False, init=False)
    counts["validate.pairs.count"] = G * (G + 1) // 2
    counts["fourier.coeffs.count"] = (N + 1) + 2  # table plus build_fbm's c_1 probe

    def check_t1(code):
        report = check_report(out[1], code, "validate-cov", s)
        if report["report"]["n_paths"] != P:
            raise CheckFailed("report covers the wrong number of paths")
        exp = expansion.build_fbm(0.3, 1.0, N, fourier.fbm_coefficients(0.3, 1.0, N))
        k = sz["direct_paths"]
        fast = expansion.sample_paths_fast(exp, G - 1, k, s)
        direct = expansion.sample_paths(exp, fast.grid, k, s)
        gap = float(np.max(np.abs(fast.values - direct.values)))
        if not gap <= 1e-10:
            raise CheckFailed(f"fast vs direct sampling differ by {gap:.3e} > 1e-10")
        return {}

    def check_t2(code):
        if "corrupt-report" in faults:
            flip_byte(out[2], _last_digit_offset(out[2]))
        with open(out[1], "rb") as a, open(out[2], "rb") as b:
            if a.read() != b.read():
                raise CheckFailed("--threads 2 report differs from --threads 1")
        return {}

    return [
        cli_op("validate-cov-t1", argv + ["--threads", "1", "--out", out[1]],
               check_t1, counts, statistical=True),
        cli_op("validate-cov-t2", argv + ["--threads", "2", "--out", out[2]],
               check_t2, counts, statistical=True),
    ]


_IO_MODELS = (
    ("fbm", ["--model", "fbm", "--hurst", "0.75"], False),
    ("gen-ou", ["--model", "gen-ou", "--theta", "2", "--sigma0", "0.5"], True),
)

_CSV_STAMP = re.compile(r"# seed=(\d+) version=(\S+) config=([0-9a-f]+)\n")


def io_pair_ops(sz, label, flags, type_c, s, stem, faults):
    """simulate with N = M, so the fold is bypassed, written as binary and as
    CSV and read back; the CSV read-back must equal the first paths of the
    binary one exactly."""
    N, M = sz["io_N"], sz["io_grid"]
    nb, nc = sz["bin_paths"], sz["csv_paths"]
    binp, csvp = stem + ".bin", stem + ".csv"
    argv = ["simulate", *flags, "--N", str(N), "--grid", str(M), "--seed", str(s)]
    coeffs = {"fourier.coeffs.count": (N + 1) + (0 if type_c else 2)}
    got = {}

    def check_bin(code):
        size = os.path.getsize(binp)
        expect = 24 + 8 * (M + 1) * (nb + 1)
        if size != expect:
            raise CheckFailed(f"binary artifact has {size} bytes, expected {expect}")
        if "corrupt-binary" in faults:
            flip_byte(binp, 24 + 8 * (M + 1) + 8 * (M // 2))  # path 0, mid-grid
        return {"io.bytes_written": size}

    def check_csv(code):
        with open(csvp, encoding="utf-8") as fh:
            stamp = _CSV_STAMP.fullmatch(fh.readline())
        if stamp is None or int(stamp.group(1)) != s or stamp.group(2) != specgauss.__version__:
            raise CheckFailed("CSV header lacks the seed/version/config stamp of the run")
        return {"io.bytes_written": os.path.getsize(csvp)}

    def check_read_bin(batch):
        if batch.n_paths != nb or batch.grid.size != M + 1 or batch.seed != s:
            raise CheckFailed("binary read-back has the wrong shape or seed")
        got["bin"] = batch
        return {"io.bytes_read": os.path.getsize(binp)}

    def check_read_csv(batch):
        ref = got.pop("bin", None)
        nbytes = os.path.getsize(csvp)
        os.remove(binp)
        os.remove(csvp)
        if ref is None:
            raise CheckFailed("no binary read-back to compare against")
        if not (np.array_equal(batch.grid, ref.grid)
                and np.array_equal(batch.values, ref.values[:nc])):
            raise CheckFailed("CSV read-back differs from the binary read-back")
        return {"io.bytes_read": nbytes}

    return [
        cli_op(f"simulate-bin-{label}",
               argv + ["--paths", str(nb), "--format", "bin", "--out", binp],
               check_bin, {**sampling_counts(nb, N, M, doubled=type_c, init=type_c), **coeffs}),
        cli_op(f"simulate-csv-{label}",
               argv + ["--paths", str(nc), "--format", "csv", "--out", csvp],
               check_csv, {**sampling_counts(nc, N, M, doubled=type_c, init=type_c), **coeffs}),
        Op(f"read-bin-{label}", lambda: PathBatch.from_binary(binp), check_read_bin),
        Op(f"read-csv-{label}", lambda: PathBatch.from_csv(csvp), check_read_csv),
    ]


@contextlib.contextmanager
def _capture_return(module, attr, into):
    """Keep the return value of ``module.attr`` while the block runs."""
    original = getattr(module, attr)

    def capturing(*args, **kwargs):
        into["value"] = original(*args, **kwargs)
        return into["value"]

    setattr(module, attr, capturing)
    try:
        yield
    finally:
        setattr(module, attr, original)


def analysis_ops(sz, seed, rep, workdir, faults):
    """validate-cov on gen-OU with a wide grid, the uniform-rate probe, a
    quantizer under a 1000-codeword budget and its Monte Carlo distortion,
    a type-B expansion through the generic coefficient route, a series
    variance sweep in the shape of the mean-square-rate acceptance test, and
    binary and CSV artifacts of fBm H=0.75 and gen-OU paths read back."""
    s_cov, s_rate, s_mc = (derive_seed(seed, "analysis", rep, t) for t in ("cov", "rate", "mc"))
    cov_out = os.path.join(workdir, f"analysis-{rep}-cov.json")
    rate_out = os.path.join(workdir, f"analysis-{rep}-rate.json")
    book = os.path.join(workdir, f"analysis-{rep}-book.csv")
    N, G, P = sz["ou_N"], sz["ou_grid"], sz["ou_paths"]
    Ns = sz["rate_Ns"]
    n_ref = 8 * Ns[-1]  # rate_probe's reference truncation and sup grid
    m_rate = 16 * Ns[-1]
    reps = sz["rate_replicates"]
    spec_b = gamma.negate_spec(gamma.builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0))
    sweep_grid = np.linspace(0.0, 1.0, sz["sweep_points"])
    state = {}

    def check_cov(code):
        check_report(cov_out, code, "validate-cov", s_cov)
        return {}

    def check_rate(code):
        report = check_report(rate_out, code, "rate", s_rate)
        ests = report["sup_err_estimates"]
        if report["Ns"] != list(Ns) or not all(math.isfinite(e) and e > 0 for e in ests):
            raise CheckFailed("rate report has missing or non-finite estimates")
        if not math.isfinite(report["fitted_slope"]):
            raise CheckFailed("rate report slope is not finite")
        return {}

    def check_quantize(code):
        with open(book, encoding="utf-8") as fh:
            if not fh.readline().startswith(f"# version={specgauss.__version__} config="):
                raise CheckFailed("codebook CSV lacks its version/config stamp")
        with open(os.path.splitext(book)[0] + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        levels = sidecar["levels_per_dim"]
        codewords = math.prod(levels)
        q = state.get("q")
        if q is None or list(q.levels_per_dim) != levels or codewords > sz["budget"]:
            raise CheckFailed("quantize sidecar disagrees with the quantizer or budget")
        return {"quantize.codewords.count": codewords}

    def run_distortion():
        q = state.pop("q", None)
        if q is None:
            raise CheckFailed("no quantizer from the quantize operation")
        return quantize.distortion_mc(q, q.expansion, sz["mc_paths"], s_mc)

    def check_distortion(result):
        est, se = result
        if not (math.isfinite(est) and est > 0 and math.isfinite(se) and se > 0):
            raise CheckFailed(f"distortion estimate {est!r} +- {se!r} is not positive and finite")
        return {}

    def check_type_b(exp):
        closed = fourier.coeffs_closed("generalized_ou", 0.5, sz["b_N"], theta=2.0, sigma2=4.0)
        gap = float(np.max(np.abs(exp.coeff_series.values + closed.values)))
        if not gap <= 1e-10:
            raise CheckFailed(f"generic-route coefficients differ from closed form by {gap:.3e}")
        return {}

    def run_sweep():
        n = sz["sweep_N"]
        series = fourier.fbm_coefficients(0.75, 1.0, n)
        exp = expansion.build_fbm(0.75, 1.0, n, series)
        return series, np.array([validate.series_cov(exp, t, t) for t in sweep_grid])

    def check_sweep(result):
        series, var = result
        err = float(np.max(np.abs(var - sweep_grid ** 1.5)))
        bound = 2.0 * fourier.tail_sum(series, sz["sweep_N"])
        if not err <= bound:
            raise CheckFailed(f"series variance error {err:.3e} exceeds the tail bound {bound:.3e}")
        return {}

    def run_quantize():
        with _capture_return(cli, "product_quantizer", state):
            code = _run_cli(["quantize", "--model", "fbm", "--hurst", "0.4",
                             "--budget", str(sz["budget"]), "--out", book])
        state["q"] = state.pop("value", None)
        return code

    mc = sampling_counts(sz["mc_paths"], QUANTIZE_N, MC_GRID_POINTS - 1, doubled=False, init=False)
    mc.pop("sampled_paths")  # not through sample_paths_fast
    rate_counts = {
        "expansion.normals.count": reps * (2 * n_ref + 1),
        "expansion.draw_bytes": 8 * reps * (2 * n_ref + 1),
        "expansion.grid_values.count": reps * len(Ns) * (m_rate + 1),
        "expansion.fold_bands": math.ceil(n_ref / (2 * m_rate)),
        "fourier.coeffs.count": n_ref + 1,
    }
    cov_counts = sampling_counts(P, N, G - 1, doubled=True, init=True)
    cov_counts["validate.pairs.count"] = G * (G + 1) // 2
    cov_counts["fourier.coeffs.count"] = N + 1
    return [
        cli_op("validate-cov-gen-ou",
               ["validate-cov", "--model", "gen-ou", "--theta", "2", "--sigma", "2",
                "--sigma0", "0.5", "--N", str(N), "--grid", str(G), "--paths", str(P),
                "--seed", str(s_cov), "--out", cov_out],
               check_cov, cov_counts, statistical=True),
        cli_op("rate",
               ["rate", "--hurst", "0.3", "--Ns", ",".join(str(n) for n in Ns),
                "--replicates", str(reps), "--seed", str(s_rate), "--out", rate_out],
               check_rate, rate_counts, statistical=True),
        Op("quantize", run_quantize,
           lambda code: merge_counts(check_exit(code), check_quantize(code)),
           {"fourier.coeffs.count": QUANTIZE_N + 1 + 2}),
        Op("distortion-mc", run_distortion, check_distortion, mc),
        Op("build-type-b", lambda: expansion.build_type_b(spec_b, 1.0, sz["b_N"]),
           check_type_b, {"fourier.coeffs.count": sz["b_N"] + 1}),
        Op("series-cov-sweep", run_sweep, check_sweep,
           {"fourier.coeffs.count": sz["sweep_N"] + 1 + 2}),
    ] + [
        op
        for label, flags, type_c in _IO_MODELS
        for op in io_pair_ops(sz, label, flags, type_c, derive_seed(seed, "analysis", rep, label),
                              os.path.join(workdir, f"analysis-{rep}-{label}"), faults)
    ]


BUILDERS = {"deep-fbm": deep_fbm_ops, "analysis": analysis_ops}


def rep_ops(name, seed, size, rep, workdir, faults=()):
    """Operations of repetition ``rep`` of one workload.

    ``faults`` (the smoke test's "corrupt-report", "corrupt-binary") corrupt
    an artifact between its write and its check, to prove the checks fail."""
    return BUILDERS[name](SIZES[size][name], seed, rep, workdir, frozenset(faults))
