"""Covariance cross-checks, the report harness, and the convergence probes."""

import math
import warnings

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    ClampWarning,
    CovModel,
    TooFewPaths,
    analytic_cov,
    build_fbm,
    build_generalized_ou,
    build_type_c,
    builtin_gamma,
    covariance_report,
    empirical_cov,
    empirical_cov_grid,
    fbm_coefficients,
    lemma1_check,
    rate_probe,
    sample_paths_fast,
    series_cov,
    series_cov_grid,
    tail_sum,
)
from specgauss.expansion import PathBatch
from test_expansion import all_family_expansions


def test_analytic_cov_closed_forms():
    m = CovModel.fbm(0.3, 1.0)
    s, t = 0.3, 0.8
    expect = 0.5 * (s**0.6 + t**0.6 - (t - s) ** 0.6)
    assert analytic_cov(m, s, t) == pytest.approx(expect, rel=1e-15)

    b = CovModel.brownian(2.0)
    assert analytic_cov(b, 0.4, 1.7) == pytest.approx(0.4)

    # sigma0^2 = sigma^2 / (2 theta) makes the OU process stationary
    ou = CovModel.gen_ou(2.0, 0.0, 0.0, 2.0, 1.0, 1.0)
    assert analytic_cov(ou, 0.2, 0.9) == pytest.approx(math.exp(-2.0 * 0.7), rel=1e-12)

    with pytest.raises(BadParameter):
        analytic_cov(m, -0.5, 0.5)


def test_series_cov_tracks_analytic_within_tail():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        exp = build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 128)
    model = CovModel.brownian(1.0)
    bound = 2.0 * tail_sum(exp.coeff_series, 128)
    for s, t in ((0.0, 0.0), (0.25, 0.75), (0.5, 0.5), (1.0, 0.3)):
        gap = abs(series_cov(exp, s, t) - analytic_cov(model, s, t))
        assert gap <= bound


def test_series_cov_matches_empirical_machinery_on_fbm():
    exp = build_fbm(0.75, 1.0, 64, fbm_coefficients(0.75, 1.0, 64))
    model = CovModel.fbm(0.75, 1.0)
    bound = 2.0 * tail_sum(exp.coeff_series, 64)
    for s, t in ((0.1, 0.9), (0.5, 0.5), (1.0, 1.0)):
        assert abs(series_cov(exp, s, t) - analytic_cov(model, s, t)) <= bound


def test_series_cov_trig_identity_low_branch():
    # amplitude form agrees with the direct coefficient sum
    exp = build_fbm(0.3, 1.0, 64, fbm_coefficients(0.3, 1.0, 64))
    c = exp.coeff_series.values
    k = np.arange(1, 65)
    rng = np.random.default_rng(12)
    for s, t in rng.uniform(0.0, 1.0, size=(50, 2)):
        ref = float(np.sum(
            (-c[1:] / 2.0)
            * (1.0 - np.cos(k * math.pi * s) - np.cos(k * math.pi * t)
               + np.cos(k * math.pi * (t - s)))
        ))
        assert series_cov(exp, s, t) == pytest.approx(ref, abs=1e-12)


def test_series_cov_grid_matches_scalar_all_families():
    grid = np.concatenate([np.linspace(0.0, 1.0, 17), [0.013, 0.37, 0.9999]])
    for name, exp in all_family_expansions().items():
        got = series_cov_grid(exp, grid)
        ref = np.array([[series_cov(exp, s, t) for t in grid] for s in grid])
        # each pair's terms are bounded by sqrt(var(s) var(t)) (Cauchy-Schwarz)
        scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
        assert np.all(np.abs(got - ref) <= 1e-13 * scale), name
    with pytest.raises(BadParameter):
        series_cov_grid(exp, [0.5, 1.5])


def test_empirical_cov_identity_and_guard():
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((500, 3))
    batch = PathBatch(grid=np.array([0.0, 0.5, 1.0]), values=vals, seed=0)
    est, se = empirical_cov(batch, 0, 2)
    x, y = vals[:, 0], vals[:, 2]
    direct = float(np.sum((x - x.mean()) * (y - y.mean()))) / (len(x) - 1)
    assert est == pytest.approx(direct, rel=1e-12)
    assert 0.0 < se < 0.2

    small = PathBatch(grid=np.array([0.0, 1.0]), values=vals[:50, :2], seed=0)
    with pytest.raises(TooFewPaths):
        empirical_cov(small, 0, 1)


def _report_batches():
    """Fixed-seed batches with their true models: fBm on both branches,
    Brownian motion (its t = 0 column is exactly zero) and gen-OU."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        cases = {
            "fbm_low": (build_fbm(0.3, 1.0, 256, fbm_coefficients(0.3, 1.0, 256)),
                        CovModel.fbm(0.3, 1.0)),
            "fbm_high": (build_fbm(0.75, 1.0, 256, fbm_coefficients(0.75, 1.0, 256)),
                         CovModel.fbm(0.75, 1.0)),
            "brownian": (build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 256),
                         CovModel.brownian(1.0)),
            "gen_ou": (build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 256),
                       CovModel.gen_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0)),
        }
    return {
        name: (model, exp, sample_paths_fast(exp, 12, 600, 41 + k))
        for k, (name, (exp, model)) in enumerate(cases.items())
    }


def _scalar_worst_z(model, batch):
    """The report's empirical check as a loop over scalar empirical_cov."""
    grid = batch.grid
    m = grid.size
    scale = max(abs(analytic_cov(model, t, t)) for t in grid)
    atol = 1e-10 * max(scale, 1e-300)
    worst_z, worst_pair = 0.0, (0, 0)
    for i in range(m):
        for j in range(i, m):
            est, se = empirical_cov(batch, i, j)
            gap = abs(est - analytic_cov(model, grid[i], grid[j]))
            z = 0.0 if gap <= atol else (math.inf if se == 0.0 else gap / se)
            if z > worst_z:
                worst_z, worst_pair = z, (i, j)
    return worst_z, worst_pair


def test_empirical_cov_grid_matches_scalar_reference():
    for name, (_, _, batch) in _report_batches().items():
        est, se = empirical_cov_grid(batch)
        m = batch.grid.size
        assert est.shape == se.shape == (m, m)
        for i in range(m):
            for j in range(m):
                ref_est, ref_se = empirical_cov(batch, i, j)
                assert abs(est[i, j] - ref_est) <= 1e-12 * abs(ref_est), (name, i, j)
                assert abs(se[i, j] - ref_se) <= 1e-12 * ref_se, (name, i, j)
    small = PathBatch(grid=batch.grid, values=batch.values[:99], seed=0)
    with pytest.raises(TooFewPaths):
        empirical_cov_grid(small)


def test_covariance_report_matches_scalar_loop():
    batches = _report_batches()
    for name, (model, exp, batch) in batches.items():
        # the true model, and a wrong one that the check must flag
        for mdl in (model, CovModel.fbm(0.45, 1.0)):
            rep = covariance_report(mdl, exp, batch, z_bound=3.5)
            check = rep["checks"][0]
            ref_z, ref_pair = _scalar_worst_z(mdl, batch)
            assert check["detail"] == f"worst grid pair {ref_pair}", name
            assert check["passed"] == (ref_z <= 3.5), name
            assert abs(check["statistic"] - ref_z) <= 1e-12 * ref_z, name
    # Brownian motion pins t = 0: its pairs have est = se = 0 exactly, so
    # only the gap floor keeps them at z = 0 rather than 0 / 0
    model, exp, batch = batches["brownian"]
    est, se = empirical_cov_grid(batch)
    assert np.all(est[0] == 0.0) and np.all(se[0] == 0.0)
    rep = covariance_report(model, exp, batch)
    assert math.isfinite(rep["checks"][0]["statistic"])
    assert not rep["checks"][0]["detail"].startswith("worst grid pair (0,")
    # columns 1 and 2 are equal, so pairs (1, 1) and (1, 2) tie for the
    # worst z; the first in row-major order is reported, as the loop does
    x = 2.0 * np.random.default_rng(5).standard_normal(200)
    tied = PathBatch(grid=np.array([0.0, 0.5, 1.0]),
                     values=np.column_stack([np.zeros_like(x), x, x]), seed=0)
    rep = covariance_report(model, exp, tied)
    assert _scalar_worst_z(model, tied)[1] == (1, 1)
    assert rep["checks"][0]["detail"] == "worst grid pair (1, 1)"
    # a zero standard error with a real gap is an infinite z
    pinned = PathBatch(grid=np.array([0.0, 0.5]),
                       values=np.zeros((100, 2)), seed=0)
    rep = covariance_report(CovModel.fbm(0.3, 0.5), exp, pinned)
    assert rep["checks"][0]["statistic"] == math.inf
    with pytest.raises(TooFewPaths):
        covariance_report(model, exp, PathBatch(grid=batch.grid, values=batch.values[:99], seed=0))


def test_covariance_report_passes_matched_model():
    # truncation deep enough that the series-vs-fBm bias sits well below
    # the Monte Carlo standard error at this path count
    exp = build_fbm(0.3, 1.0, 512, fbm_coefficients(0.3, 1.0, 512))
    batch = sample_paths_fast(exp, 16, 2000, 31)
    rep = covariance_report(CovModel.fbm(0.3, 1.0), exp, batch)
    assert rep["passed"]
    names = [c["name"] for c in rep["checks"]]
    assert "empirical_vs_analytic" in names and "series_vs_analytic" in names
    assert rep["seed"] == 31
    assert rep["n_paths"] == 2000


def test_covariance_report_flags_wrong_model():
    exp = build_fbm(0.3, 1.0, 128, fbm_coefficients(0.3, 1.0, 128))
    batch = sample_paths_fast(exp, 16, 4000, 31)
    rep = covariance_report(CovModel.fbm(0.45, 1.0), exp, batch)
    assert not rep["passed"]
    worst = rep["checks"][0]
    assert worst["statistic"] > worst["bound"]


def test_lemma1_reconstruction_small():
    from specgauss import coeffs_quadrature

    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    grid = np.linspace(-1.0, 1.0, 201)
    K = 2000
    err = lemma1_check(spec, K, grid)
    assert err <= 2.0 * tail_sum(coeffs_quadrature(spec, K), K)
    assert err > 0.0


def test_lemma1_check_validation():
    spec = builtin_gamma("neg_power", 1.0, hurst=0.75)
    with pytest.raises(Exception):
        lemma1_check(spec, 100, np.linspace(0, 1, 5))
    ok = builtin_gamma("power2H", 1.0, hurst=0.3)
    with pytest.raises(BadParameter):
        lemma1_check(ok, 100, np.linspace(0, 2, 5))


def test_rate_probe_smoke_and_validation():
    model = CovModel.fbm(0.3, 1.0)
    res = rate_probe(model, [8, 16, 32], 100, 0, seed=13)
    assert res.replicate_count == 100
    assert res.reference_slope == pytest.approx(-0.3)
    assert res.fitted_slope < 0.0
    assert len(res.Ns) == 3
    assert all(e > 0 for e in res.sup_err_estimates)
    # estimates decrease along the ladder
    assert res.sup_err_estimates[0] > res.sup_err_estimates[-1]

    with pytest.raises(BadParameter):
        rate_probe(model, [8, 16], 50, 0, seed=1)
    with pytest.raises(BadParameter):
        rate_probe(model, [16, 8], 100, 0, seed=1)
    with pytest.raises(BadParameter):
        rate_probe(CovModel.brownian(1.0), [8, 16], 100, 0, seed=1)
