"""Release gate: the eleven end-to-end guarantees the package ships under.

Each test prints one PASS/FAIL line straight to the terminal (bypassing
capture) so the whole gate can be read off a plain pytest run.  Criteria
are asserted at their stated tolerances; nothing here is tuned per seed
beyond freezing one.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from specgauss import (
    CovModel,
    build_fbm,
    build_generalized_ou,
    build_type_a,
    build_type_b,
    build_type_c,
    builtin_gamma,
    covariance_report,
    distortion_mc,
    fbm_coefficients,
    gauss1d_quantizer,
    kl_reduce,
    lemma1_check,
    negate_spec,
    product_quantizer,
    rate_probe,
    sample_paths,
    sample_paths_aliased,
    sample_paths_fast,
    allocate_levels,
)
from specgauss.cli import main as cli_main
from specgauss.fourier import coeffs_closed, coeffs_quadrature, decay_fit, tail_sum
from specgauss.quantize import _scalar_distortion
from specgauss.validate import series_var_uniform

pytestmark = [
    pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning"),
]

HURSTS = (0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.75, 0.9)
HORIZONS = (1.0, 2.5)


def _verdict(capsys, tag, ok, detail):
    with capsys.disabled():
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def fbm_tables():
    t0 = time.perf_counter()
    tabs = {
        (h, t): fbm_coefficients(h, t, 4096) for h in HURSTS for t in HORIZONS
    }
    return tabs, time.perf_counter() - t0


def test_01_coefficient_sign(fbm_tables, capsys):
    tabs, build_s = fbm_tables
    worst = -math.inf
    for series in tabs.values():
        worst = max(worst, float(np.max(series.values[1:] - series.error_bounds[1:])))
    ok = worst <= 1e-12 and build_s < 60.0
    _verdict(capsys, "sign", ok,
             f"16 tables k<=4096, worst c_k above bound {worst:.2e} "
             f"(limit 1e-12), built in {build_s:.2f}s (limit 60s)")


def test_02_decay_exponents(fbm_tables, capsys):
    tabs, _ = fbm_tables
    gaps = []
    for (h, t), series in tabs.items():
        gaps.append(abs(decay_fit(series, 64, 4096) + (2.0 * h + 1.0)))
    worst_fbm = max(gaps)
    bseries = coeffs_closed("brownian_example", 1.0, 4096)
    bgap = abs(decay_fit(bseries, 64, 4096) + 2.0)
    ok = worst_fbm <= 0.1 and bgap <= 0.05
    _verdict(capsys, "decay", ok,
             f"slope gap max {worst_fbm:.4f} over 16 tables (limit 0.1), "
             f"odd-mode quadratic gap {bgap:.4f} (limit 0.05)")


def test_03_closed_vs_quadrature(capsys):
    cl_b = coeffs_closed("brownian_example", 1.0, 1000)
    qu_b = coeffs_quadrature(builtin_gamma("minus_abs", 2.0), 1000)
    gap_b = float(np.max(np.abs(cl_b.values - qu_b.values)))
    cl_o = coeffs_closed("generalized_ou", 1.0, 1000, theta=2.0, sigma2=4.0)
    qu_o = coeffs_quadrature(
        builtin_gamma("exp_decay", 2.0, theta=2.0, sigma2=4.0), 1000
    )
    gap_o = float(np.max(np.abs(cl_o.values - qu_o.values)))
    ok = gap_b <= 1e-10 and gap_o <= 1e-10
    _verdict(capsys, "closed-form", ok,
             f"k<=1000 vs generic quadrature: {gap_b:.2e} / {gap_o:.2e} "
             f"(limit 1e-10)")


def test_04_reconstruction(capsys):
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)  # t^0.6
    grid = np.linspace(-1.0, 1.0, 201)
    err_a = lemma1_check(spec, 100000, grid)
    bound_a = 2.0 * tail_sum(coeffs_quadrature(spec, 100000), 100000)

    series = fbm_coefficients(0.75, 1.0, 100000)
    exp = build_fbm(0.75, 1.0, 100000, series)
    tg = np.linspace(0.0, 1.0, 201)
    # tg is exactly the uniform grid j / 200
    err_b = float(np.max(np.abs(series_var_uniform(exp, tg.size - 1) - tg**1.5)))
    bound_b = 2.0 * tail_sum(series, 100000)
    ok = err_a <= bound_a and err_b <= bound_b
    _verdict(capsys, "reconstruction", ok,
             f"t^0.6 partial sum K=1e5: {err_a:.2e} <= {bound_a:.2e}; "
             f"|t|^1.5 variance: {err_b:.2e} <= {bound_b:.2e}")


def test_05_mean_square_rate(capsys):
    tgrid = np.linspace(0.0, 1.0, 8193)
    detail = []
    ok = True
    for h in (0.3, 0.75):
        ratios = []
        for p in range(6, 13):
            n = 2**p
            exp = build_fbm(h, 1.0, n, fbm_coefficients(h, 1.0, n))
            # tgrid is exactly the uniform grid j / 8192
            var_n = series_var_uniform(exp, tgrid.size - 1)
            # exact tail variance: independent coordinates make the
            # truncation error variance the analytic-minus-partial gap
            e2 = np.maximum(tgrid ** (2.0 * h) - var_n, 0.0)
            ratios.append(math.sqrt(float(e2.max())) * n**h)
        spread = max(ratios) / min(ratios)
        ok = ok and spread < 2.0
        detail.append(f"H={h} spread {spread:.3f}")
    _verdict(capsys, "ms-rate", ok,
             "sup error x N^H over N=2^6..2^12: " + ", ".join(detail)
             + " (limit 2.0)")


def test_06_uniform_rate_probe(capsys):
    t0 = time.perf_counter()
    detail = []
    ok = True
    for h in (0.3, 0.75):
        res = rate_probe(
            CovModel.fbm(h, 1.0), [128, 256, 512, 1024, 2048], 200, 2026
        )
        gap = abs(res.fitted_slope - res.reference_slope)
        ok = ok and gap <= 0.15
        detail.append(f"H={h} slope {res.fitted_slope:+.3f} (gap {gap:.3f})")
    dt = time.perf_counter() - t0
    ok = ok and dt < 600.0
    _verdict(capsys, "sup-rate", ok,
             ", ".join(detail) + f" (limit 0.15), {dt:.0f}s (limit 600s)")


def test_07_distributional_validation(capsys):
    cases = [
        ("fbm 0.3", CovModel.fbm(0.3, 1.0),
         lambda: build_fbm(0.3, 1.0, 32768, fbm_coefficients(0.3, 1.0, 32768)), 101,
         sample_paths_fast),
        ("fbm 0.75", CovModel.fbm(0.75, 1.0),
         lambda: build_fbm(0.75, 1.0, 512, fbm_coefficients(0.75, 1.0, 512)), 102,
         sample_paths_fast),
        ("brownian", CovModel.brownian(1.0),
         lambda: build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 512), 103,
         sample_paths_fast),
        ("gen-ou s0=0", CovModel.gen_ou(2.0, 0.0, 0.0, 2.0, 0.0, 1.0),
         lambda: build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.0, 1.0, 512), 104,
         sample_paths_fast),
        ("gen-ou s0=0.5", CovModel.gen_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0),
         lambda: build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 512), 105,
         sample_paths_fast),
        ("fbm 0.3 aliased N=2^18", CovModel.fbm(0.3, 1.0),
         lambda: build_fbm(0.3, 1.0, 1 << 18, fbm_coefficients(0.3, 1.0, 1 << 18)), 106,
         sample_paths_aliased),
    ]
    detail = []
    ok = True
    for name, model, make, seed, sample in cases:
        exp = make()
        batch = sample(exp, 32, 20000, seed)
        rep = covariance_report(model, exp, batch)
        z = next(c["statistic"] for c in rep["checks"]
                 if c["name"] == "empirical_vs_analytic")
        ok = ok and rep["passed"]
        detail.append(f"{name} z={z:.2f}")
    _verdict(capsys, "covariance", ok,
             "2e4 paths, 33-point grid, 4 se: " + ", ".join(detail))


def test_08_fast_path_exactness(capsys):
    n = 1024
    families = {
        "fbm_low": lambda: build_fbm(0.3, 1.0, n, fbm_coefficients(0.3, 1.0, n)),
        "fbm_high": lambda: build_fbm(0.75, 1.0, n, fbm_coefficients(0.75, 1.0, n)),
        "type_a": lambda: build_type_a(
            builtin_gamma("power2H", 1.0, hurst=0.3), 1.0, n),
        "type_b": lambda: build_type_b(
            negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)),
            1.0, n),
        "type_c": lambda: build_type_c(
            builtin_gamma("linear", 2.0, slope=1.0), 1.0, n),
        "gen_ou": lambda: build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.5, 1.0, n),
    }
    grid = np.linspace(0.0, 1.0, n + 1)
    worst = 0.0
    for make in families.values():
        exp = make()
        direct = sample_paths(exp, grid, 4, 99)
        fast = sample_paths_fast(exp, n, 4, 99)
        worst = max(worst, float(np.max(np.abs(direct.values - fast.values))))
    ok = worst <= 1e-10
    _verdict(capsys, "fast-path", ok,
             f"N=M=1024, 6 families: max |direct - fast| {worst:.2e} "
             f"(limit 1e-10)")


def test_09_kl_reduction(capsys):
    exp_b = build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 64)
    red_b = kl_reduce(exp_b, 24)
    truth = np.array([1.0 / ((j + 0.5) ** 2 * math.pi**2) for j in range(11)])
    mu_err = float(np.max(np.abs(red_b.mu[:11] - truth)))

    exp_f = build_fbm(0.3, 1.0, 64, fbm_coefficients(0.3, 1.0, 64))
    red_f = kl_reduce(exp_f, 8)
    a = red_f.eigvec_coeffs
    g = red_f.gram.entries
    ortho = float(np.max(np.abs(a.T @ g @ a - np.eye(red_f.reduced_dim))))
    tg = np.linspace(0.0, 1.0, 257)
    e = red_f.basis_matrix(tg)
    kl_cov = (red_f.reduced_functions(tg).T * red_f.mu) @ red_f.reduced_functions(tg)
    direct = (e.T * red_f.lambdas**2) @ e
    recon = float(np.max(np.abs(kl_cov - direct)))
    ok = mu_err <= 1e-8 and ortho <= 1e-8 and recon <= 1e-8
    _verdict(capsys, "kl-reduction", ok,
             f"mu error {mu_err:.2e}, orthonormality {ortho:.2e}, "
             f"reconstruction {recon:.2e} (limit 1e-8)")


def _oracle_alloc(mu, budget):
    best, best_cost = None, math.inf

    def rec(i, cap, room, cost, cur):
        nonlocal best, best_cost
        if i == len(mu):
            if cost < best_cost - 1e-15:
                best_cost, best = cost, tuple(cur)
            return
        for nl in range(min(cap, room), 0, -1):
            c = cost + mu[i] * _scalar_distortion(nl)
            if c >= best_cost:
                break
            cur.append(nl)
            rec(i + 1, nl, room // nl, c, cur)
            cur.pop()

    rec(0, budget, budget, 0.0, [])
    return best


def test_10_quantizer_properties(tmp_path, capsys):
    q2 = gauss1d_quantizer(2)
    root = math.sqrt(2.0 / math.pi)
    scalar_err = max(
        abs(q2.levels[1] - root),
        abs(q2.levels[0] + root),
        abs(q2.distortion - (1.0 - 2.0 / math.pi)),
    )

    exp_b = build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 64)
    mu = kl_reduce(exp_b, 10).mu
    mismatches = [
        b for b in range(1, 101)
        if tuple(int(x) for x in allocate_levels(mu, b)) != _oracle_alloc(tuple(mu), b)
    ]

    exp4 = build_fbm(0.4, 1.0, 64, fbm_coefficients(0.4, 1.0, 64))
    ests = []
    for budget in (5, 10, 20):
        q = product_quantizer(None, exp4, budget)
        est, _ = distortion_mc(q, exp4, 4000, seed=777)
        ests.append(est)
    decreasing = ests[0] > ests[1] > ests[2]

    books = []
    for name, argv in (
        ("panel_fbm04.csv",
         ["quantize", "--model", "fbm", "--hurst", "0.4", "--budget", "20"]),
        ("panel_genou.csv",
         ["quantize", "--model", "gen-ou", "--theta", "2.0", "--budget", "20"]),
    ):
        out = tmp_path / name
        code = cli_main(argv + ["--out", str(out)])
        lines = out.read_text().splitlines()
        ncols = len(lines[2].split(",")) - 1
        books.append(code == 0 and lines[1].startswith("# codebook") and ncols <= 20)

    ok = scalar_err <= 1e-8 and not mismatches and decreasing and all(books)
    _verdict(capsys, "quantizer", ok,
             f"n=2 error {scalar_err:.2e}; allocation = oracle for budgets "
             f"1..100 ({len(mismatches)} mismatches); mc distortion "
             f"{ests[0]:.4f} > {ests[1]:.4f} > {ests[2]:.4f}; "
             f"2 budget-20 codebooks emitted")


def test_11_reproducibility(tmp_path, capsys):
    base = ["simulate", "--model", "fbm", "--hurst", "0.3", "--N", "256",
            "--paths", "200", "--grid", "64", "--seed", "424242"]
    runs = {}
    for name, extra in (("a", ["--threads", "1"]), ("b", ["--threads", "1"]),
                        ("c", ["--threads", "8"])):
        out = tmp_path / f"{name}.csv"
        assert cli_main(base + extra + ["--out", str(out)]) == 0
        runs[name] = out.read_bytes()
    paths_ok = runs["a"] == runs["b"] == runs["c"]

    tabs = []
    for name in ("t1.csv", "t2.csv"):
        out = tmp_path / name
        assert cli_main(["coeffs", "--model", "fbm", "--hurst", "0.75",
                         "--kmax", "512", "--out", str(out)]) == 0
        tabs.append(out.read_bytes())
    ok = paths_ok and tabs[0] == tabs[1]
    _verdict(capsys, "repro", ok,
             "byte-identical CSVs across reruns and threads {1,8}: "
             f"paths {paths_ok}, tables {tabs[0] == tabs[1]}")
