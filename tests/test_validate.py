"""Covariance cross-checks, the report harness, and the convergence probes."""

import dataclasses
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    CovModel,
    TooFewPaths,
    analytic_cov,
    build_fbm,
    build_generalized_ou,
    build_type_b,
    build_type_c,
    builtin_gamma,
    coeffs_closed,
    covariance_report,
    empirical_cov,
    empirical_cov_grid,
    fbm_coefficients,
    lemma1_check,
    negate_spec,
    rate_probe,
    sample_paths,
    sample_paths_fast,
    series_cov,
    series_cov_grid,
    series_cov_uniform,
    series_var_uniform,
    tail_sum,
)
from specgauss import _engine, validate
from specgauss.expansion import PathBatch, SeriesExpansion
from test_expansion import (
    _assert_within_one_budget,
    _traced_peak,
    all_family_expansions,
    sample_folded,
    truncated,
)


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


# points of [0, 1]^2 off and on the diagonal and on both edges: at s = t and
# at 0 the models read the generating function at 0 from its stored limit
_COV_POINTS = [(0.3, 0.8), (0.8, 0.3), (0.5, 0.5), (0.0, 0.7), (0.7, 0.0), (0.0, 0.0), (1.0, 1.0)]


def _exp_decay_neg():
    return negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0))


def test_analytic_cov_of_the_generating_function_models():
    type_a = CovModel.type_a(builtin_gamma("power2H", 1.0, hurst=0.3), 1.0)
    type_b = CovModel.type_b(_exp_decay_neg(), 1.0)
    type_c = CovModel.type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0)
    for s, t in _COV_POINTS:
        # t^(2H): fractional Brownian motion
        fbm = 0.5 * (s**0.6 + t**0.6 - abs(t - s) ** 0.6)
        assert analytic_cov(type_a, s, t) == pytest.approx(fbm, rel=1e-14, abs=0.0)
        # -(sigma^2 / theta) e^(-theta t): the stationary OU kernel
        ou = 2.0 * math.exp(-2.0 * abs(t - s))
        assert analytic_cov(type_b, s, t) == pytest.approx(ou, rel=1e-14, abs=0.0)
        # -|t| over 2T: Brownian motion
        assert analytic_cov(type_c, s, t) == pytest.approx(min(s, t), rel=1e-14, abs=0.0)


def test_covariance_report_on_a_type_b_aliased_batch():
    spec = _exp_decay_neg()
    exp = build_type_b(spec, 1.0, 2000)
    batch = sample_folded(exp, 16, 2000, 5)
    rep = covariance_report(CovModel.type_b(spec, 1.0), exp, batch)
    assert [c["name"] for c in rep["checks"]] == ["empirical_vs_analytic", "series_vs_analytic"]
    assert rep["passed"], rep["checks"]


@pytest.mark.parametrize("make", [
    lambda T: CovModel.fbm(0.3, T),
    lambda T: CovModel.brownian(T),
    lambda T: CovModel.gen_ou(2.0, 0.0, 0.0, 2.0, 0.5, T),
    lambda T: CovModel.type_a(builtin_gamma("power2H", 1.0, hurst=0.3), T),
    lambda T: CovModel.type_b(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0), T),
    lambda T: CovModel.type_c(builtin_gamma("linear", 2.0, slope=1.0), T),
], ids=["fbm", "brownian", "gen_ou", "type_a", "type_b", "type_c"])
def test_cov_model_needs_a_finite_positive_horizon(make):
    for T in (-1.0, 0.0, math.inf, math.nan, "1.0", None):
        with pytest.raises(BadParameter):
            make(T)
    model = make(np.int64(1))
    assert type(model.horizon_T) is float and model.horizon_T == 1.0


def test_series_cov_tracks_analytic_within_tail():
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


def test_series_var_uniform_matches_scalar_series_cov():
    # the points and truncations of acceptance test_05; the folded route's
    # error is a few ulps of the total variance, not of each point's, so it
    # is measured against the largest variance on the grid
    m = 8192
    pts = np.arange(0, m + 1, 64)
    for h in (0.3, 0.75):
        for p in range(6, 13):
            n = 2**p
            exp = build_fbm(h, 1.0, n, fbm_coefficients(h, 1.0, n))
            got = series_var_uniform(exp, m)
            assert got.shape == (m + 1,)
            ref = np.array([series_cov(exp, j / m, j / m) for j in pts])
            err = np.max(np.abs(got[pts] - ref)) / np.max(np.abs(ref))
            assert err <= 1e-13, f"H={h} N={n}: relative error {err:.2e}"


# a point that is not a real number, beside NaN
_NON_REAL_POINTS = ["a", None, 0.1 + 1j, np.array([0.1, 0.2])]


@pytest.mark.parametrize("call", [
    lambda exp: series_cov(exp, math.nan, 0.5),
    lambda exp: series_cov_grid(exp, [0.1, math.nan]),
    lambda exp: analytic_cov(CovModel.fbm(0.3, 1.0), 0.5, math.nan),
    lambda exp: lemma1_check(builtin_gamma("power2H", 1.0, hurst=0.3), 10, [0.1, math.nan]),
    lambda exp: series_cov_grid(exp, ["a"]),
    lambda exp: lemma1_check(builtin_gamma("power2H", 1.0, hurst=0.3), 10, ["a"]),
] + [
    lambda exp, x=x: series_cov(exp, x, 0.5) for x in _NON_REAL_POINTS
] + [
    lambda exp, x=x: analytic_cov(CovModel.fbm(0.3, 1.0), 0.5, x) for x in _NON_REAL_POINTS
], ids=["series_cov", "series_cov_grid", "analytic_cov", "lemma1_check",
        "series_cov_grid-str", "lemma1_check-str"]
   + [f"{f}-{k}" for f in ("series_cov", "analytic_cov")
      for k in ("str", "None", "complex", "size2")])
def test_nan_point_is_outside_the_horizon(call):
    exp = build_fbm(0.3, 1.0, 8, fbm_coefficients(0.3, 1.0, 8))
    with pytest.raises(BadParameter):
        call(exp)


# (N, points): N below, at and above a perfect square, for the two tables of
# the scalar kernel; the points cover s = t, s != t, s = 0 and s = T
_KERNEL_NS = (1, 2, 3, 63, 64, 65, 4096, 4097, 32768)
_KERNEL_POINTS = ((0.37, 0.37), (0.37, 0.81), (0.0, 0.0), (0.0, 0.6), (1.0, 1.0), (1.0, 0.45))


def _type_b_closed_form(n):
    """The type_b member of all_family_expansions at n terms, from the
    closed-form coefficients of its exp_decay kernel (theta = 2, sigma2 = 4,
    T = 1): ``coeffs_closed("generalized_ou", T / 2, ...)`` is that series on
    the doubled interval 2 (T / 2) = T."""
    c = coeffs_closed("generalized_ou", 0.5, n, theta=2.0, sigma2=4.0).values
    amps = np.sqrt(c[1:])
    return SeriesExpansion(family="type_b", horizon_T=1.0, truncation_N=n,
                           drift_amp=math.sqrt(c[0] / 2.0), amp=amps)


@pytest.fixture(scope="module")
def kernel_families():
    """Every family of all_family_expansions at the largest kernel N."""
    return all_family_expansions(_KERNEL_NS[-1])


def _series_cov_longdouble(exp, s, t):
    """series_cov as a direct sum in long double, sin and cos per frequency;
    each family's basis is spelled out here, apart from the family table."""
    ld = np.longdouble
    w = np.arange(1, exp.truncation_N + 1, dtype=ld) * (4 * np.arctan(ld(1)) / ld(exp.period_T))
    ws, wt = w * ld(s), w * ld(t)
    power = exp.amp.astype(ld) ** 2
    total = np.sum(power * np.sin(ws) * np.sin(wt))
    if exp.family != "type_c":
        cs, ct = np.cos(ws), np.cos(wt)
        if exp.family != "type_b":
            cs, ct = 1 - cs, 1 - ct
        total += np.sum(power * cs * ct)
    if exp.family == "fbm_high":
        total += ld(exp.drift_amp) ** 2 * ld(s) * ld(t)
    elif exp.family == "type_b":
        total += ld(exp.drift_amp) ** 2
    if exp.init_coupling is not None:
        sigma0, theta = map(ld, exp.init_coupling)
        total += sigma0**2 * np.exp(-theta * (ld(s) + ld(t)))
    return total


def test_type_b_closed_form_matches_the_builder():
    built = all_family_expansions(65)["type_b"]
    closed = _type_b_closed_form(65)
    # the builder's amplitudes carry its quadrature error
    np.testing.assert_allclose(closed.amp, built.amp, rtol=1e-10)
    assert closed.drift_amp == pytest.approx(built.drift_amp, rel=1e-10)


@pytest.mark.parametrize("n", _KERNEL_NS)
def test_series_cov_matches_a_longdouble_direct_sum(kernel_families, n):
    # the bound of the grid test: each pair's terms are bounded by
    # sqrt(var(s) var(t)) (Cauchy-Schwarz), exactly 0 where a variance is
    for name, full in kernel_families.items():
        exp = truncated(full, n)
        for s, t in _KERNEL_POINTS:
            ref = _series_cov_longdouble(exp, s, t)
            scale = np.sqrt(_series_cov_longdouble(exp, s, s) * _series_cov_longdouble(exp, t, t))
            err = abs(np.longdouble(series_cov(exp, s, t)) - ref)
            assert err <= 1e-13 * scale, f"{name} N={n} ({s}, {t}): error {float(err):.2e}"


def test_series_cov_memory_at_a_million_frequencies():
    # (1 - cos) channel off the diagonal, the costliest layout; the two
    # phase tables are 16 MiB each and one product buffer 8 MiB
    n = 2**20
    amps = 1.0 / np.arange(1, n + 1)
    exp = dataclasses.replace(all_family_expansions(8)["fbm_low"], truncation_N=n,
                              amp=amps, coeff_series=None)
    tracemalloc.start()
    try:
        series_cov(exp, 0.37, 0.81)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("fn", [series_cov_uniform, series_var_uniform])
def test_uniform_series_covariance_needs_an_integral_resolution(fn):
    exp = build_fbm(0.3, 1.0, 8, fbm_coefficients(0.3, 1.0, 8))
    for m in (0, -3, 2.5, 4.0, True, "4", None):
        with pytest.raises(BadParameter):
            fn(exp, m)
    assert fn(exp, np.int64(4)).shape[0] == 5


def _route_spy(monkeypatch):
    """Record which series covariance route the report takes."""
    calls = []
    for name in ("series_cov_grid", "series_cov_uniform"):
        fn = getattr(validate, name)

        def spy(*args, _name=name, _fn=fn):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(validate, name, spy)
    return calls


def test_covariance_report_reads_the_uniform_grid_off_the_fold(monkeypatch):
    batches = _report_batches()
    # the trig route on the same uniform grid, for reference
    trig = {}
    with monkeypatch.context() as mp:
        mp.setattr(validate, "series_cov_uniform",
                   lambda exp, m: series_cov_grid(exp, np.arange(m + 1) * (exp.horizon_T / m)))
        for name, (model, exp, batch) in batches.items():
            for mdl in (model, CovModel.fbm(0.45, 1.0)):
                trig[name, mdl.label] = covariance_report(mdl, exp, batch)
    calls = _route_spy(monkeypatch)
    for name, (model, exp, batch) in batches.items():
        scale = float(np.max(series_var_uniform(exp, batch.grid.size - 1)))
        # the batch as sampled, and read back from both artifact formats
        blob = PathBatch.from_binary_bytes(batch.to_binary_bytes())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "paths.csv")
            batch.to_csv(path)
            text = PathBatch.from_csv(path)
        for b in (batch, blob, text):
            for mdl in (model, CovModel.fbm(0.45, 1.0)):
                calls.clear()
                rep = covariance_report(mdl, exp, b)
                assert calls == ["series_cov_uniform"], name
                ref = trig[name, mdl.label]
                got_series, ref_series = rep["checks"].pop(), ref["checks"][-1]
                assert got_series["name"] == "series_vs_analytic"
                # a perturbation of the series covariance moves the worst
                # gap by at most its size, and both routes round at a few
                # ulps of the largest variance: the trig route is the less
                # exact of the two (up to 9e-16 against extended precision
                # on these batches, the folded route 4e-16)
                stat, ref_stat = got_series.pop("statistic"), ref_series["statistic"]
                assert abs(stat - ref_stat) <= 1e-13 * scale, name
                assert got_series == {k: v for k, v in ref_series.items() if k != "statistic"}
                assert rep["checks"] == ref["checks"][:-1], name
                assert rep["passed"] == ref["passed"], name


def test_covariance_report_keeps_the_trig_route_off_the_uniform_grid(monkeypatch):
    exp = build_fbm(0.3, 1.0, 64, fbm_coefficients(0.3, 1.0, 64))
    calls = _route_spy(monkeypatch)
    grid = np.array([0.0, 0.1, 0.35, 0.5, 0.9, 1.0])
    covariance_report(CovModel.fbm(0.3, 1.0), exp, sample_paths(exp, grid, 200, 3))
    # one ulp off t_j = j T / m is not the uniform grid either
    uniform = sample_folded(exp, 8, 200, 3)
    nudged = uniform.grid.copy()
    nudged[3] = np.nextafter(nudged[3], 1.0)
    covariance_report(CovModel.fbm(0.3, 1.0), exp,
                      PathBatch(grid=nudged, values=uniform.values, seed=3))
    assert calls == ["series_cov_grid", "series_cov_grid"]


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

    assert empirical_cov(batch, np.int64(2), 2) == empirical_cov(batch, 2, 2)
    # a negative index would read from the end, a float would truncate
    for i in (-1, 3, 0.5, 1.0, True, None, "0"):
        for args in ((i, 0), (0, i)):
            with pytest.raises(BadParameter):
                empirical_cov(batch, *args)


def _report_batches():
    """Fixed-seed batches with their true models: fBm on both branches,
    Brownian motion (its t = 0 column is exactly zero) and gen-OU."""
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


def _one_copy_cov_grid(values):
    """empirical_cov_grid's formula on one centred copy of the whole batch."""
    n = values.shape[0]
    xc = values - values.mean(axis=0)
    gram = xc.T @ xc
    np.square(xc, out=xc)
    quad = xc.T @ xc
    c = n / ((n - 1.0) * (n - 2.0))
    spread = np.maximum(quad - gram * gram / n, 0.0)
    return gram / (n - 1), np.sqrt((n - 1.0) / n * (c * c) * spread)


def test_empirical_cov_grid_sums_row_blocks_within_the_budget():
    # analysis's gen-OU shape: 20000 paths on 129 points, about ten row blocks
    values = np.random.default_rng(4).standard_normal((20000, 129)).cumsum(axis=1)
    batch = PathBatch(grid=np.linspace(0.0, 1.0, 129), values=values, seed=4)
    block_bytes = 8 * (_engine.BLOCK_DOUBLES // 4 // 129) * 129
    assert values.shape[0] > block_bytes // (8 * 129)
    tracemalloc.start()
    try:
        est, se = empirical_cov_grid(batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two outputs plus one centred row block; a whole centred copy of
    # the batch would be 19.7 MiB
    bound = est.nbytes + se.nbytes + block_bytes + 2**20
    assert peak <= bound, f"peak {peak / 2**20:.2f} MiB, bound {bound / 2**20:.2f} MiB"
    ref_est, ref_se = _one_copy_cov_grid(values)
    np.testing.assert_allclose(est, ref_est, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(se, ref_se, rtol=1e-13, atol=0.0)


def test_empirical_cov_grid_of_one_block_is_the_unblocked_formula_bit_for_bit():
    # deep-fbm's shape, 2048 paths on 33 points, fits one row block
    values = np.random.default_rng(5).standard_normal((2048, 33)).cumsum(axis=1)
    batch = PathBatch(grid=np.linspace(0.0, 1.0, 33), values=values, seed=5)
    assert values.size <= _engine.BLOCK_DOUBLES // 4
    for got, ref in zip(empirical_cov_grid(batch), _one_copy_cov_grid(values)):
        assert got.tobytes() == ref.tobytes()


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


def test_series_check_holds_for_a_slowly_reverting_gen_ou_at_even_n():
    # theta = 0.05, N = 256 (the CLI's default): odd and even entries differ
    # by a factor near 1.2, and the tail bound of the series check must cover
    # the upper class; the check is deterministic, the batch only sets the grid
    model = CovModel.gen_ou(0.05, 0.0, 0.0, 1.0, 0.0, 1.0)
    exp = build_generalized_ou(0.05, 0.0, 0.0, 1.0, 0.0, 1.0, 256)
    batch = sample_folded(exp, 32, 100, 11)
    check = covariance_report(model, exp, batch)["checks"][1]
    assert check["name"] == "series_vs_analytic"
    assert check["passed"] and check["statistic"] <= check["bound"], check


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


def test_lemma1_check_memory_is_bounded_by_the_block_budget():
    from specgauss import coeffs_quadrature

    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    grid = np.linspace(-1.0, 1.0, 2049)
    K = 8192
    tracemalloc.start()
    try:
        err = lemma1_check(spec, K, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one basis of all K frequencies would be 2049 * 8192 doubles, 16x the budget
    assert peak < 2 * 8 * _engine.BLOCK_DOUBLES, f"peak {peak / 2**20:.1f} MiB"
    assert 0.0 < err <= 2.0 * tail_sum(coeffs_quadrature(spec, K), K)


def test_series_cov_grid_memory_is_bounded_by_the_block_budget():
    # 1025 non-uniform points and N = 8192: each frequency block is a basis
    # of half the budget; only that block, the output and the output-sized
    # Gram product may be alive at once
    exp = build_fbm(0.3, 1.0, 8192, fbm_coefficients(0.3, 1.0, 8192))
    grid = np.linspace(0.0, 1.0, 1025) ** 1.5
    out_bytes = 8 * grid.size**2
    tracemalloc.start()
    try:
        cov = series_cov_grid(exp, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 2 * 8 * _engine.BLOCK_DOUBLES, f"peak {peak / 2**20:.1f} MiB"
    pts = [0, 300, 1024]
    ref = [[series_cov(exp, grid[i], grid[j]) for j in pts] for i in pts]
    np.testing.assert_allclose(cov[np.ix_(pts, pts)], ref, rtol=1e-12, atol=1e-15)


def test_lemma1_check_validation():
    spec = builtin_gamma("neg_power", 1.0, hurst=0.75)
    with pytest.raises(Exception):
        lemma1_check(spec, 100, np.linspace(0, 1, 5))
    ok = builtin_gamma("power2H", 1.0, hurst=0.3)
    with pytest.raises(BadParameter):
        lemma1_check(ok, 100, np.linspace(0, 2, 5))


def test_rate_probe_smoke_and_validation():
    model = CovModel.fbm(0.3, 1.0)
    res = rate_probe(model, [8, 16, 32], 100, seed=13)
    assert res.replicate_count == 100
    assert res.reference_slope == pytest.approx(-0.3)
    assert res.fitted_slope < 0.0
    assert len(res.Ns) == 3
    assert all(e > 0 for e in res.sup_err_estimates)
    # estimates decrease along the ladder
    assert res.sup_err_estimates[0] > res.sup_err_estimates[-1]

    with pytest.raises(BadParameter):
        rate_probe(model, [8, 16], 50, seed=1)
    with pytest.raises(BadParameter):
        rate_probe(model, [16, 8], 100, seed=1)
    with pytest.raises(BadParameter):
        rate_probe(CovModel.brownian(1.0), [8, 16], 100, seed=1)
    # every size and the seed are integers (bool is not), never truncated
    for bad in (
        dict(Ns=[8.7, 16.2]),
        dict(Ns=[8, True]),
        dict(Ns=8),
        dict(replicates=100.9),
        dict(replicates=math.nan),
        dict(replicates=True),
        dict(seed=None),
        dict(seed=1.5),
        dict(seed=False),
    ):
        args = {**dict(Ns=[8, 16], replicates=100, seed=1), **bad}
        with pytest.raises(BadParameter):
            rate_probe(model, **args)


def _rate_probe_per_rung(model, Ns, replicates, seed):
    """Per-rung reference for the rate probe: one residual expansion per
    rung, each folded and transformed by ``_engine.fast_values`` on every
    block of the shared draws."""
    H, T = model.hurst, model.horizon_T
    n_ref = 8 * Ns[-1]
    m = 16 * Ns[-1]
    amps = build_fbm(H, T, n_ref, fbm_coefficients(H, T, n_ref)).amp
    resids = {}
    for n in Ns:
        a = amps.copy()
        a[:n] = 0.0
        resids[n] = SeriesExpansion(
            family="fbm_low", horizon_T=T, truncation_N=n_ref,
            drift_amp=0.0, amp=a,
        )
    sups = {n: np.empty(replicates) for n in Ns}
    weights = {n: _engine.draw_weights(resids[n]) for n in Ns}

    def block(start, stop, z, work):
        for n in Ns:
            out = np.empty((stop - start, m + 1))
            resid = _engine.fast_values(resids[n], m, weights[n], z.copy(), work, out)
            sups[n][start:stop] = np.max(np.abs(resid), axis=1)

    _engine.run_blocks(resids[Ns[0]], replicates, _engine.grid_row_doubles(resids[Ns[0]], m), seed, 1, block)
    ests = [math.fsum(sups[n]) / replicates for n in Ns]
    stderrs = [float(np.std(sups[n], ddof=1)) / math.sqrt(replicates) for n in Ns]
    return ests, stderrs


@pytest.mark.parametrize("H, top", [(0.3, 32), (0.75, 32), (0.3, 24)])
def test_rate_probe_ladder_matches_the_per_rung_route(H, top):
    model = CovModel.fbm(H, 1.0)
    Ns = [8, 16, top]
    res = rate_probe(model, Ns, 100, seed=17)
    ests, stderrs = _rate_probe_per_rung(model, Ns, 100, 17)
    # the sup grid has 16 max(Ns) cells: 512, or 384, not a power of two
    assert res.grid_resolution == 16 * top
    np.testing.assert_allclose(res.sup_err_estimates, ests, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.sup_err_stderrs, stderrs, rtol=1e-12, atol=0)


def test_rate_probe_memory_is_bounded_by_the_block_budget():
    # 600 replicates in 24 blocks of 25 paths at Ns up to 512
    model = CovModel.fbm(0.3, 1.0)
    tracemalloc.start()
    try:
        res = rate_probe(model, [64, 128, 256, 512], 600, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * _engine.BLOCK_DOUBLES, f"peak {peak / 2**20:.1f} MiB"
    assert res.sup_err_estimates[0] > res.sup_err_estimates[-1] > 0.0


def test_rate_probe_spectra_share_the_block_budget():
    # Ns up to 1024: each row draws 16385 normals and transforms on 2L =
    # 32768 cells, so its spectrum and buffer hold 65538 doubles, four times
    # its draws; 300 replicates would fill a draw-only block
    model = CovModel.fbm(0.3, 1.0)
    res, peak = _traced_peak(lambda: rate_probe(model, [512, 1024], 300, seed=5))
    _assert_within_one_budget(0, peak)
    assert res.sup_err_estimates[0] > res.sup_err_estimates[-1] > 0.0
