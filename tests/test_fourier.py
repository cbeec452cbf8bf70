"""Coefficient engine: oracle agreement, closed forms, decay and tails.

Golden values below were produced by the brute-force oracle (graded
trapezoid, refined until two levels agree to 1e-10) and are frozen so any
later drift in the production routes is caught.
"""

import math

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    CosineSeries,
    InsufficientData,
    builtin_gamma,
    coeffs_closed,
    coeffs_quadrature,
    decay_fit,
    fbm_coefficients,
    lemma2_transform,
    negate_spec,
    oracle_coeff,
    power_series_coeffs,
    tail_sum,
)

# oracle_coeff(builtin_gamma("power2H", 1.0, hurst=0.3), 1.0, 1), converged
ORACLE_C1_T06 = -0.34855310057401606


def test_oracle_matches_frozen_golden():
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    r = oracle_coeff(spec, 1.0, 1)
    assert r.converged
    assert r.value == pytest.approx(ORACLE_C1_T06, abs=1e-12)


def test_oracle_reports_non_convergence_at_tiny_budget():
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    r = oracle_coeff(spec, 1.0, 1, refine_limit=13)
    assert not r.converged


def test_power_series_c0_closed_form():
    # c_0 = (2/T) int_0^T t^(2H) dt = 2 T^(2H) / (2H + 1)
    for H, T in ((0.3, 1.0), (0.4, 2.5)):
        s = power_series_coeffs(1.0, 2 * H, T, 4)
        assert s.values[0] == pytest.approx(2 * T ** (2 * H) / (2 * H + 1), rel=1e-14)


def test_power_series_agrees_with_oracle():
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    s = power_series_coeffs(1.0, 0.6, 1.0, 64)
    assert s.values[1] == pytest.approx(ORACLE_C1_T06, abs=1e-9)
    for k in (2, 17, 64):
        r = oracle_coeff(spec, 1.0, k)
        assert r.converged
        assert s.values[k] == pytest.approx(r.value, abs=1e-9)


def test_generic_quadrature_agrees_with_oracle_on_singular_derivative():
    spec = builtin_gamma("neg_power", 1.0, hurst=0.75)  # delta = 1.5
    s = coeffs_quadrature(spec, 8)
    for k in (1, 3, 8):
        r = oracle_coeff(spec, 1.0, k)
        assert r.converged
        assert s.values[k] == pytest.approx(r.value, abs=1e-9)


def test_sign_property_smoke():
    for H in (0.3, 0.75):
        s = fbm_coefficients(H, 1.0, 512)
        assert np.all(s.values[1:] <= s.error_bounds[1:] + 1e-12)


def test_brownian_closed_form_values():
    T = 2.5
    s = coeffs_closed("brownian_example", T, 9)
    assert s.values[0] == pytest.approx(-2 * T)
    k = np.arange(1, 10)
    expect = np.where(k % 2 == 1, 8 * T / (k * np.pi) ** 2, 0.0)
    assert np.allclose(s.values[1:], expect, rtol=1e-15)


def test_gen_ou_closed_form_value():
    s = coeffs_closed("generalized_ou", 1.0, 3, theta=2.0, sigma2=4.0)
    damp = 1.0 / (1.0 + (math.pi / 4.0) ** 2)
    c1 = 2.0 * damp * (1.0 + math.exp(-4.0)) / 2.0
    assert s.values[1] == pytest.approx(c1, rel=1e-15)
    assert s.values[1] == pytest.approx(0.6298144327840458, abs=1e-14)


def test_closed_vs_quadrature_brownian():
    # quadrature integrates the admissible side (+t), the closed table its
    # negation, so the entries differ by sign only
    T = 1.0
    closed = coeffs_closed("brownian_example", T, 200)
    quad = coeffs_quadrature(builtin_gamma("linear", 2 * T, slope=1.0), 200)
    assert np.max(np.abs(closed.values + quad.values)) <= 1e-10


def test_closed_vs_quadrature_gen_ou():
    closed = coeffs_closed("generalized_ou", 1.0, 200, theta=2.0, sigma2=4.0)
    spec = negate_spec(builtin_gamma("exp_decay", 2.0, theta=2.0, sigma2=4.0))
    quad = coeffs_quadrature(spec, 200)
    assert np.max(np.abs(closed.values + quad.values)) <= 1e-10


def test_high_branch_series_is_lemma2_of_neg_power():
    H = 0.75
    base = power_series_coeffs(-2 * H * (2 * H - 1), 2 * H - 2, 1.0, 32)
    via = lemma2_transform(base, 1.0)
    s = fbm_coefficients(H, 1.0, 32)
    assert not s.has_c0
    assert np.allclose(s.values[1:], via.values[1:], rtol=0, atol=0)


def test_lemma2_rejects_horizon_mismatch():
    base = power_series_coeffs(1.0, 0.6, 1.0, 8)
    with pytest.raises(BadParameter):
        lemma2_transform(base, 2.0)


def test_fbm_coefficients_rejects_half_and_out_of_range():
    for H in (0.5, 0.0, 1.0, -0.2):
        with pytest.raises(BadParameter):
            fbm_coefficients(H, 1.0, 8)


def test_decay_slopes():
    lo = fbm_coefficients(0.3, 1.0, 512)
    assert decay_fit(lo, 32, 512) == pytest.approx(-1.6, abs=0.15)
    hi = fbm_coefficients(0.75, 1.0, 512)
    assert decay_fit(hi, 32, 512) == pytest.approx(-2.5, abs=0.15)
    br = coeffs_closed("brownian_example", 1.0, 4096)
    # even entries are exact zeros; the fit must skip them on its own
    assert decay_fit(br, 64, 4096) == pytest.approx(-2.0, abs=0.05)


def test_decay_fit_windows_and_insufficient_data():
    s = fbm_coefficients(0.3, 1.0, 64)
    with pytest.raises(BadParameter):
        decay_fit(s, 32, 64)  # span below factor 4
    with pytest.raises(BadParameter):
        decay_fit(s, 0, 64)
    zeros = CosineSeries(
        horizon_T=1.0, k_max=64, values=np.zeros(65), method="closed",
        error_bounds=np.zeros(65),
    )
    with pytest.raises(InsufficientData):
        decay_fit(zeros, 4, 64)


def _brownian_tail_truth(T, N):
    # sum over odd k > N of 8T/(k pi)^2, via the closed odd-k zeta value
    partial = sum(1.0 / k**2 for k in range(1, N + 1, 2))
    return 8.0 * T / math.pi**2 * (math.pi**2 / 8.0 - partial)


def test_tail_sum_brackets_truth_inside_table():
    s = coeffs_closed("brownian_example", 1.0, 4096)
    truth = _brownian_tail_truth(1.0, 100)
    t = tail_sum(s, 100)
    assert truth == pytest.approx(0.004052712269689301, rel=1e-12)
    assert truth <= t <= 1.25 * truth


def test_tail_sum_pure_extrapolation_brackets_truth():
    s = coeffs_closed("brownian_example", 1.0, 10000)
    truth = _brownian_tail_truth(1.0, 10000)
    t = tail_sum(s, 10000)
    assert truth <= t <= 2.5 * truth


def test_tail_sum_monotone_and_validates():
    s = coeffs_closed("brownian_example", 1.0, 1024)
    assert tail_sum(s, 64) > tail_sum(s, 256) > tail_sum(s, 1024) > 0
    with pytest.raises(BadParameter):
        tail_sum(s, 2048)


def test_tail_sum_infinite_for_slow_decay():
    k = np.arange(0, 257, dtype=float)
    vals = np.zeros(257)
    vals[1:] = 1.0 / k[1:]
    s = CosineSeries(
        horizon_T=1.0, k_max=256, values=vals, method="closed",
        error_bounds=np.zeros(257),
    )
    assert tail_sum(s, 128) == math.inf


def test_series_csv_round_trip(tmp_path):
    s = fbm_coefficients(0.75, 2.5, 32)
    path = tmp_path / "series.csv"
    s.to_csv(path, comments=["unit test artifact"])
    back = CosineSeries.from_csv(path)
    assert back.horizon_T == s.horizon_T
    assert back.k_max == s.k_max
    assert back.has_c0 == s.has_c0
    assert np.array_equal(back.values, s.values)
    assert np.array_equal(back.error_bounds, s.error_bounds)


def test_series_csv_rejects_malformed_rows(tmp_path):
    lines = fbm_coefficients(0.3, 1.0, 4).to_csv_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("2,"))
    for kind, bad in {"fields": "2,0.5", "extra": lines[row] + ",1", "number": "2,x,0.0"}.items():
        broken = list(lines)
        broken[row] = bad
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(broken) + "\n")
        with pytest.raises(BadParameter, match=rf"{kind}\.csv: line {row + 1}"):
            CosineSeries.from_csv(path)
