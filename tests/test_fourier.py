"""Coefficient engine: oracle agreement, closed forms, decay and tails.

Golden values below were produced by the brute-force oracle (graded
trapezoid, refined until two levels agree to 1e-10) and are frozen so any
later drift in the production routes is caught.  The closed-form power-law
entries and their exact tails are checked against mpmath references.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    CosineSeries,
    GammaSpec,
    InsufficientData,
    QuadratureNonConvergence,
    build_type_b,
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
from specgauss import fourier
from specgauss.fourier import _K0, _asymptotic_entries, _hurwitz_zeta, _power_cumulative

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


def _generic(spec):
    """``spec`` without its power law, so that it takes the generic route."""
    return dataclasses.replace(spec, power_amp=None, power_exponent=None)


def test_generic_quadrature_agrees_with_oracle_on_singular_derivative():
    spec = _generic(builtin_gamma("neg_power", 1.0, hurst=0.75))  # delta = 1.5
    s = coeffs_quadrature(spec, 8)
    assert s.method == "quadrature" and s.power_law is None
    for k in (1, 3, 8):
        r = oracle_coeff(spec, 1.0, k)
        assert r.converged
        assert s.values[k] == pytest.approx(r.value, abs=1e-9)
    # at k = 777 the oracle stops at its point budget, its last doubling
    # still moving it by 7e-10: its estimate is inside the tolerance
    r = oracle_coeff(spec, 1.0, 777)
    assert r.est_error < 1e-9
    assert coeffs_quadrature(spec, 1000).values[777] == pytest.approx(r.value, abs=1e-9)


@pytest.mark.parametrize("kind, H", [("power2H", 0.05), ("power2H", 0.3),
                                     ("neg_power", 0.75), ("neg_power", 0.95)])
def test_generic_bounds_cover_the_power_table(kind, H):
    # the same power law on both routes: every generic entry is inside its
    # bound plus the table's
    spec = builtin_gamma(kind, 1.0, hurst=H)
    for N in (8, 1000, 4096):
        s = coeffs_quadrature(_generic(spec), N)
        ref = power_series_coeffs(spec.power_amp, spec.power_exponent, 1.0, N)
        gap = np.abs(s.values - ref.values)
        over = np.flatnonzero(gap > s.error_bounds + ref.error_bounds)
        assert over.size == 0, f"N={N}: {over.size} entries over their bounds from k={over[:1]}"


@pytest.mark.parametrize("theta", [2.0, 0.01])
def test_generic_bounds_cover_the_gen_ou_closed_form(theta):
    # the negated exp_decay kernel on [0, 1] is the gen-OU closed form at
    # T = 1/2, negated; at theta = 0.01 it is 400 e^(-t / 100), whose
    # rounding alone is above the absolute tolerance, and must not stall
    spec = negate_spec(builtin_gamma("exp_decay", 1.0, theta=theta, sigma2=4.0))
    for N in (0, 1, 2, 8, 1000, 4096, 32768):
        s = coeffs_quadrature(spec, N)
        closed = coeffs_closed("generalized_ou", 0.5, N, theta=theta, sigma2=4.0)
        gap = np.abs(s.values + closed.values)
        over = np.flatnonzero(gap > s.error_bounds + closed.error_bounds)
        assert over.size == 0, f"N={N}: {over.size} entries over their bounds from k={over[:1]}"


def _unit_spec(evaluate, gamma_at_zero):
    """A delta = 0 spec of ``evaluate`` on (0, 1]; the quadrature never
    reads its derivative."""
    return GammaSpec(evaluate=evaluate, derivative=lambda t: np.zeros_like(t), delta=0.0,
                     horizon_T=1.0, gamma_at_zero=gamma_at_zero)


def test_generic_route_escalates_once_then_gives_up(monkeypatch):
    depths = []
    rule_pair = fourier._generic_series

    def recording(spec, k_max, depth, *rules):
        depths.append(depth)
        return rule_pair(spec, k_max, depth, *rules)

    monkeypatch.setattr(fourier, "_generic_series", recording)
    # a bump 0.4 panels wide at N = 20 needs the 32/16-point rules
    bump = _unit_spec(lambda t: np.exp(-(((t - 0.5) / 0.02) ** 2)), math.exp(-625.0))
    s = coeffs_quadrature(bump, 20)
    depth = fourier._grade_depth(0.0)
    assert depths == [depth, depth + 120]
    assert np.all(s.error_bounds <= fourier._QUAD_TOL)
    for k in (0, 7, 20):
        assert s.values[k] == pytest.approx(oracle_coeff(bump, 1.0, k).value, abs=1e-10)
    # a kink inside a panel defeats both rule pairs
    depths.clear()
    kink = _unit_spec(lambda t: np.sqrt(np.abs(t - 1.0 / 3.0)), math.sqrt(1.0 / 3.0))
    with pytest.raises(QuadratureNonConvergence, match="stalled above tol at k=0"):
        coeffs_quadrature(kink, 10)
    assert depths == [depth, depth + 120]


def _evaluated_points(spec, N):
    """The points at which the generic route evaluates ``spec`` for N entries."""
    count = [0]
    evaluate = spec.evaluate

    def counting(t):
        count[0] += np.size(t)
        return evaluate(t)

    coeffs_quadrature(dataclasses.replace(spec, evaluate=counting), N)
    return count[0]


def test_generic_route_evaluates_g_once_per_node():
    # one shared mesh of N panels: the points grow like N, not N^2
    spec = negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0))
    small, large = _evaluated_points(spec, 1000), _evaluated_points(spec, 8000)
    assert large <= 8.5 * small, (small, large)


def test_generic_route_memory_is_a_few_tables():
    spec = negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0))
    N = 32768
    coeffs_quadrature(spec, 64)  # warm imports and caches
    tracemalloc.start()
    try:
        s = coeffs_quadrature(spec, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # values and bounds are 16 bytes an entry; the route's per-k arrays and
    # one node row stay within 8 times that
    table = s.values.nbytes + s.error_bounds.nbytes
    assert peak <= 8 * table, f"peak {peak / table:.1f} tables"


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
    via = lemma2_transform(base)
    s = fbm_coefficients(H, 1.0, 32)
    assert not s.has_c0
    assert np.allclose(s.values[1:], via.values[1:], rtol=0, atol=0)


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
    # past the table the fitted decay continues, integrated from N
    assert tail_sum(s, 1024) > tail_sum(s, 1025) > tail_sum(s, 2048) > tail_sum(s, 1 << 30) > 0
    with pytest.raises(BadParameter):
        tail_sum(s, -1)


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


# ---------------------------------------------------------------------------
# closed-form entries above _K0 and exact power-law tails
# ---------------------------------------------------------------------------


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        yield mpmath


def _fbm_power_law(H):
    """(amp, exponent, lifted) of the fBm series for H."""
    return (1.0, 2.0 * H, False) if H < 0.5 else (-2.0 * H * (2.0 * H - 1.0), 2.0 * H - 2.0, True)


def _mp_coeff(mp, amp, a, T, k, lifted):
    """c_k of amp * t^a on (0, T] (times (T / k pi)^2 when lifted), through
    integral_0^X v^a cos v dv = Re(i^(a+1) gamma(a+1, -iX))."""
    a, T = mp.mpf(a), mp.mpf(T)
    x = k * mp.pi
    g = mp.re(mp.expj(mp.pi * (a + 1) / 2) * mp.gammainc(a + 1, 0, -1j * x))
    c = amp * (2 / T) * (T / x) ** (a + 1) * g
    return c * (T / x) ** 2 if lifted else c


def _mp_class_tails(mp, amp, a, T, m, lifted, terms=12):
    """The sums of c_k over the even and over the odd k > m, from the
    expansion carried to ``terms`` alternating powers; for m >= 400 its
    remainder is below 1e-30 of the sum."""
    a, T = mp.mpf(a), mp.mpf(T)
    lift = 2 if lifted else 0
    scale = amp * 2 * T**a * (T**2 if lifted else 1)
    c_inf = -mp.gamma(a + 1) * mp.sin(mp.pi * a / 2)
    out = []
    for k0 in (m + 1, m + 2):
        sign = 1 if k0 % 2 == 0 else -1

        def z(s):
            return 2 ** (-s) * mp.zeta(s, mp.mpf(k0) / 2)

        part = c_inf * mp.pi ** (-(a + 1 + lift)) * z(a + 1 + lift)
        coeff = a
        for j in range(terms):
            part += sign * coeff * mp.pi ** (-(2 * j + 2 + lift)) * z(2 * j + 2 + lift)
            coeff *= -(a - 2 * j - 1) * (a - 2 * j - 2)
        out.append(scale * part)
    return out


def _mp_abs_tail(mp, amp, a, T, N, lifted):
    """sum_{k>N} |c_k| for a power law whose parity classes keep one sign
    past k = 400: exact entries up to 400, class sums beyond."""
    head = mp.fsum(abs(_mp_coeff(mp, amp, a, T, k, lifted)) for k in range(N + 1, 401))
    return head + mp.fsum(abs(c) for c in _mp_class_tails(mp, amp, a, T, max(N, 400), lifted))


@pytest.mark.parametrize("H", [0.05, 0.3, 0.45, 0.501, 0.51, 0.55, 0.75, 0.95])
def test_entry_bounds_cover_an_mpmath_reference(mp, H):
    amp, a, lifted = _fbm_power_law(H)
    s = fbm_coefficients(H, 1.0, 1 << 20)
    assert s.power_law == (amp, a, lifted)
    for k in (_K0 - 1, _K0, _K0 + 1, 1000, 32768, 1 << 20):
        ref = _mp_coeff(mp, amp, a, 1.0, k, lifted)
        assert abs(float(ref - s.values[k])) <= s.error_bounds[k], k
    # above _K0 the bound is the expansion's remainder plus rounding
    assert np.max(s.error_bounds[_K0 + 1 :] / np.abs(s.values[_K0 + 1 :])) < 1e-12


@pytest.mark.parametrize("H, k_max", [(0.3, _K0), (0.3, 4096), (0.75, 4096)])
def test_head_entries_are_the_full_length_panel_table(H, k_max):
    # k <= _K0 is computed exactly as when every entry came from the table
    amp, a, _ = _fbm_power_law(H)
    g, gerr = _power_cumulative(a, k_max)
    k = np.arange(1, k_max + 1, dtype=float)
    scale = 2.0 * (1.0 / (k * np.pi)) ** (a + 1.0)
    s = power_series_coeffs(amp, a, 1.0, k_max)
    head = slice(1, _K0 + 1)
    assert np.array_equal(s.values[head], (amp * scale * g)[:_K0])
    bounds = abs(amp) * scale * (gerr + 1e-15 * (1.0 + np.abs(g)))
    assert np.array_equal(s.error_bounds[head], bounds[:_K0])


def test_exponent_one_is_the_exact_alternating_form(mp):
    T = 2.0
    s = power_series_coeffs(1.0, 1.0, T, 1000)
    k = np.arange(_K0 + 1, 1001)
    exact = (2.0 / T) * (T / (k * np.pi)) ** 2 * (np.where(k % 2 == 0, 1.0, -1.0) - 1.0)
    gap = np.abs(s.values[_K0 + 1 :] - exact)
    assert np.all(gap <= s.error_bounds[_K0 + 1 :])
    assert np.max(gap) <= 1e-15 * np.max(np.abs(exact))
    # the tail is the odd entries alone: 4T/pi^2 sum_{j >= 500} (2j + 1)^-2
    truth = 4.0 * T / math.pi**2 * float(mp.zeta(2, 500.5)) / 4.0
    assert truth <= tail_sum(s, 1000) <= truth * (1.0 + 1e-12)


def test_exponent_one_and_a_half_alternates_and_its_tail_bounds_the_truth(mp):
    s = power_series_coeffs(1.0, 1.5, 1.0, 1000)
    signs = np.sign(s.values[_K0 + 1 :])
    assert np.all(signs[::2] == -signs[1::2])  # even k and odd k take opposite signs
    for N in (0, 50, _K0, 1000, 5000):
        truth = _mp_abs_tail(mp, 1.0, 1.5, 1.0, N, False)
        got = tail_sum(s, N)
        assert got >= truth, N
        if N >= _K0:  # below, the panel table's bounds are summed in
            assert float(got / truth - 1) <= 1e-10, N


@pytest.mark.parametrize("H", [0.3, 0.75])
def test_tail_sum_is_exact_for_both_fbm_branches(mp, H):
    amp, a, lifted = _fbm_power_law(H)
    s = fbm_coefficients(H, 1.0, 4096)
    for N in (0, _K0, 1000, 4096, 32768):
        truth = _mp_abs_tail(mp, amp, a, 1.0, N, lifted)
        rel = float(tail_sum(s, N) / truth - 1)
        assert 0.0 <= rel <= 1e-10, (N, rel)


def _gen_ou_tail_truth(mp, theta, sigma2, T, N):
    """sum_{k>N} |c_k| of ``coeffs_closed("generalized_ou", T, ...)``.  Its
    entries are A (1 - (-1)^k eps) / (1 + (k / b)^2), A = sigma2 / (theta^2 T),
    b = 2 theta T / pi, eps = exp(-2 theta T), and on a parity class
    k = k0 + 2j the sum of 1 / (1 + (k / b)^2) is (b / 2) Im psi(k0 / 2 + i b / 2)
    (the imaginary part of DLMF 5.7.6)."""
    theta, T = mp.mpf(theta), mp.mpf(T)
    amp, b, eps = sigma2 / (theta**2 * T), 2 * theta * T / mp.pi, mp.exp(-2 * theta * T)
    return mp.fsum(
        amp * (1 - (-1) ** k0 * eps) * b / 2 * mp.im(mp.digamma(mp.mpf(k0) / 2 + 1j * b / 2))
        for k0 in (N + 1, N + 2)
    )


@pytest.mark.parametrize("theta", [0.001, 0.05, 0.3, 2.0, 50.0])
def test_extrapolated_tail_bounds_a_parity_alternating_series(mp, theta):
    # odd and even entries differ by (1 + eps) / (1 - eps); an even N used to
    # anchor the fitted law on the lower class (0.004 of the truth at
    # theta = 0.001, N = 256)
    for N in (255, 256, 4096):
        s = coeffs_closed("generalized_ou", 1.0, N, theta=theta, sigma2=1.0)
        truth = _gen_ou_tail_truth(mp, theta, 1.0, 1.0, N)
        assert truth <= tail_sum(s, N), (N, float(tail_sum(s, N) / truth))


@pytest.mark.parametrize("theta", [0.05, 2.0])
def test_extrapolated_tail_bounds_the_generic_exp_decay_series(mp, theta):
    # the generic route's series of the negated exp_decay kernel on [0, 1] is
    # the gen-OU closed form at T = 1/2, negated
    spec = negate_spec(builtin_gamma("exp_decay", 1.0, theta=theta, sigma2=4.0))
    for N in (255, 256):
        s = build_type_b(spec, 1.0, N).coeff_series
        truth = _gen_ou_tail_truth(mp, theta, 4.0, 0.5, N)
        assert truth <= tail_sum(s, N), (N, float(tail_sum(s, N) / truth))


def test_hurwitz_zeta_matches_mpmath(mp):
    for s in (1.0001, 1.05, 1.6, 2.0, 3.5, 8.6, 9.0, 10.0):
        for q in (0.5, 1.0, 7.25, 19.5, 20.5, 64.5, 1e6, 1e15):
            assert _hurwitz_zeta(s, q) == pytest.approx(float(mp.zeta(s, q)), rel=1e-15, abs=0)


@pytest.mark.parametrize("a", [0.1, 0.6, 0.9, -0.5, -0.9, 1.5, 4.5])
def test_remainder_bound_holds_down_to_k_one(mp, a):
    # past _K0 rounding outweighs the remainder; at small k the remainder
    # bound alone must cover the truncated expansion
    values, bounds = np.zeros(17), np.zeros(17)
    _asymptotic_entries(1.0, a, 1.0, 1, values, bounds)
    for k in range(1, 17):
        gap = abs(float(_mp_coeff(mp, 1.0, a, 1.0, k, False) - values[k]))
        assert gap <= bounds[k], k


def test_power_tail_at_the_edges_of_decay():
    # the raw series of t^-0.5 decays like k^-0.5: no finite tail
    s = power_series_coeffs(1.0, -0.5, 1.0, 256)
    assert tail_sum(s, 256) == math.inf
    assert tail_sum(lemma2_transform(s), 256) < math.inf
    # a constant has no coefficient past c_0, although 1/k would diverge
    flat = power_series_coeffs(2.0, 0.0, 1.0, 256)
    assert not np.any(flat.values[_K0 + 1 :])
    assert tail_sum(flat, 256) == 0.0
    assert tail_sum(flat, 0) < 1e-11  # the panel table's noise and bounds below _K0


def test_closed_form_table_memory_at_a_million_entries():
    fbm_coefficients(0.3, 1.0, 1024)  # warm imports and caches
    tracemalloc.start()
    try:
        fbm_coefficients(0.3, 1.0, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # two 8 MiB output columns and three 8 MiB temporaries
    assert peak < 56 * 2**20


def test_tail_rule_survives_the_csv_round_trip(tmp_path):
    for H in (0.3, 0.75):
        s = fbm_coefficients(H, 1.0, 300)
        path = tmp_path / f"series{H}.csv"
        s.to_csv(path)
        back = CosineSeries.from_csv(path)
        assert back.power_law == s.power_law
        for N in (0, 200, 300, 5000):
            assert tail_sum(back, N) == tail_sum(s, N)
    # without the tokens the table reads back with no tail rule and the fit
    lines = [line for line in s.to_csv_text().splitlines() if not line.startswith("#")]
    bare = tmp_path / "bare.csv"
    bare.write_text("# T=1.0 has_c0=0\n" + "\n".join(lines) + "\n")
    plain = CosineSeries.from_csv(bare)
    assert plain.power_law is None
    assert tail_sum(plain, 300) == tail_sum(dataclasses.replace(s, power_law=None), 300)
    partial = tmp_path / "partial.csv"
    partial.write_text("# T=1.0 power_amp=1.0\n" + "\n".join(lines) + "\n")
    with pytest.raises(BadParameter, match="go together"):
        CosineSeries.from_csv(partial)


_S = fbm_coefficients(0.3, 1.0, 512)
_POWER2H = builtin_gamma("power2H", 1.0, hurst=0.3)


def _ou(theta, sigma2):
    return coeffs_closed("generalized_ou", 1, 8, theta=theta, sigma2=sigma2)


def _series(**kw):
    fields = dict(horizon_T=1.0, k_max=1, values=np.zeros(2), method="x", error_bounds=np.zeros(2))
    return CosineSeries(**{**fields, **kw})


@pytest.mark.parametrize("call", [
    pytest.param(lambda: power_series_coeffs(1, 0.6, 0.0, 8), id="power-T-zero"),
    pytest.param(lambda: power_series_coeffs(1, 0.6, -1.0, 8), id="power-T-negative"),
    pytest.param(lambda: power_series_coeffs(1, 0.6, math.inf, 8), id="power-T-inf"),
    pytest.param(lambda: power_series_coeffs(1, "0.6", 1.0, 8), id="power-exponent-string"),
    pytest.param(lambda: power_series_coeffs("1", 0.6, 1.0, 8), id="power-amp-string"),
    pytest.param(lambda: power_series_coeffs(math.nan, 0.6, 1.0, 8), id="power-amp-nan"),
    pytest.param(lambda: power_series_coeffs(1, math.nan, 1.0, 8), id="power-exponent-nan"),
    pytest.param(lambda: power_series_coeffs(1, 5.0, 1.0, 8), id="power-exponent-five"),
    pytest.param(lambda: fbm_coefficients(0.3, 0.0, 8), id="fbm-T-zero"),
    pytest.param(lambda: fbm_coefficients("0.3", 1.0, 8), id="fbm-H-string"),
    pytest.param(lambda: fbm_coefficients(math.nan, 1.0, 8), id="fbm-H-nan"),
    pytest.param(lambda: tail_sum(_S, 2.5), id="tail-N-float"),
    pytest.param(lambda: tail_sum(_S, True), id="tail-N-bool"),
    pytest.param(lambda: tail_sum(_S, -1), id="tail-N-negative"),
    pytest.param(lambda: decay_fit(_S, 32.5, 512), id="decay-k_lo-float"),
    pytest.param(lambda: decay_fit(_S, 32, 511.5), id="decay-k_hi-float"),
    pytest.param(lambda: _ou(math.inf, 1), id="ou-theta-inf"),
    pytest.param(lambda: _ou(1, math.nan), id="ou-sigma2-nan"),
    pytest.param(lambda: _ou("2", 1), id="ou-theta-string"),
    pytest.param(lambda: _ou(None, 1), id="ou-theta-missing"),
    pytest.param(lambda: coeffs_closed("brownian_example", math.inf, 8), id="closed-T-inf"),
    pytest.param(lambda: _series(horizon_T=math.inf), id="series-T-inf"),
    pytest.param(lambda: _series(horizon_T="1"), id="series-T-string"),
    pytest.param(lambda: _series(power_law=(1.0, 6.0, False)), id="series-power-exponent"),
    pytest.param(lambda: _series(power_law=(1.0, 0.6, "no")), id="series-power-lifted"),
    pytest.param(lambda: oracle_coeff(_POWER2H, 1.0, 1.5), id="oracle-k-float"),
])
def test_malformed_fourier_input_is_a_bad_parameter(call):
    with pytest.raises(BadParameter):
        call()
