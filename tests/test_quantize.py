"""Scalar quantizers, level allocation, KL reduction and codebooks."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from specgauss import (
    BadParameter,
    ClampWarning,
    GramSingularWarning,
    TooFewPaths,
    allocate_levels,
    build_fbm,
    build_generalized_ou,
    build_type_c,
    builtin_gamma,
    distortion_mc,
    fbm_coefficients,
    gauss1d_quantizer,
    gram_matrix,
    kl_reduce,
    product_quantizer,
)
from specgauss.quantize import _scalar_distortion


@pytest.fixture(scope="module")
def exp_fbm04():
    return build_fbm(0.4, 1.0, 64, fbm_coefficients(0.4, 1.0, 64))


@pytest.fixture(scope="module")
def exp_brownian():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampWarning)
        return build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 64)


# ---------------------------------------------------------------------------
# scalar quantizer
# ---------------------------------------------------------------------------


def test_two_level_quantizer_closed_form():
    q = gauss1d_quantizer(2)
    root = math.sqrt(2.0 / math.pi)
    assert q.levels[0] == pytest.approx(-root, abs=1e-8)
    assert q.levels[1] == pytest.approx(root, abs=1e-8)
    assert q.distortion == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-8)
    assert q.converged


def test_one_level_quantizer():
    q = gauss1d_quantizer(1)
    assert q.levels[0] == 0.0
    assert q.boundaries.size == 0
    assert q.distortion == 1.0


def test_quantizer_structure_and_stationarity():
    for n in (2, 3, 4, 7, 16, 33, 128):
        q = gauss1d_quantizer(n)
        assert q.converged
        assert q.levels.size == n
        assert np.all(np.diff(q.levels) > 0)
        # symmetric about 0
        assert np.max(np.abs(q.levels + q.levels[::-1])) <= 1e-9
        # boundaries are cell midpoints
        mids = 0.5 * (q.levels[1:] + q.levels[:-1])
        assert np.allclose(q.boundaries, mids, atol=1e-12)


def test_quantizer_distortion_decreases():
    d = [gauss1d_quantizer(n).distortion for n in (1, 2, 3, 5, 9, 17, 40)]
    assert all(a > b for a, b in zip(d, d[1:]))
    assert d[-1] > 0.0


def test_quantize_maps_to_nearest_level():
    q = gauss1d_quantizer(7)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(500)
    idx = q.quantize(x)
    brute = np.argmin(np.abs(x[:, None] - q.levels[None, :]), axis=1)
    assert np.array_equal(idx, brute)


def test_gauss1d_validation():
    with pytest.raises(BadParameter):
        gauss1d_quantizer(0)


# ---------------------------------------------------------------------------
# level allocation
# ---------------------------------------------------------------------------


def _oracle_alloc(mu, budget):
    """Blunt exhaustive search over non-increasing level vectors."""
    best = None
    best_cost = math.inf

    def rec(i, cap, room, cur):
        nonlocal best, best_cost
        if i == len(mu):
            cost = sum(m * _scalar_distortion(n) for m, n in zip(mu, cur))
            if cost < best_cost - 1e-15:
                best_cost = cost
                best = tuple(cur)
            return
        for nl in range(min(cap, room), 0, -1):
            cur.append(nl)
            rec(i + 1, nl, room // nl, cur)
            cur.pop()

    rec(0, budget, budget, [])
    return best


def test_allocation_matches_oracle_on_brownian_mu(exp_brownian):
    mu = kl_reduce(exp_brownian, 8).mu
    for budget in (1, 2, 3, 5, 8, 13, 21, 34):
        got = tuple(int(n) for n in allocate_levels(mu, budget))
        assert got == _oracle_alloc(tuple(mu), budget), budget


def test_allocation_matches_oracle_on_equal_and_tied_mu():
    # equal entries make many vectors cost the same; the tie rule must
    # still pick the oracle's lexicographically largest one
    for mu in (np.ones(6), np.array([1.0, 1.0, 0.5, 0.5, 0.5])):
        for budget in (1, 2, 4, 6, 7, 12, 30, 64, 97):
            got = tuple(int(n) for n in allocate_levels(mu, budget))
            assert got == _oracle_alloc(tuple(mu), budget), (mu, budget)


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_allocation_builds_few_scalar_quantizers(exp_fbm04):
    mu = kl_reduce(exp_fbm04, 10).mu
    _scalar_distortion.cache_clear()
    nvec = allocate_levels(mu, 1000)
    misses = _scalar_distortion.cache_info().misses
    assert list(nvec) == [16, 5, 3, 2, 2] + [1] * (mu.size - 5)
    # only the level counts at which budget // n changes are tried
    assert misses <= 2 * math.ceil(math.sqrt(1000)) + mu.size


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_allocation_invariants(exp_fbm04):
    mu = kl_reduce(exp_fbm04, 6).mu
    for budget in (1, 7, 20, 64):
        nvec = allocate_levels(mu, budget)
        assert len(nvec) == mu.size
        assert all(a >= b for a, b in zip(nvec, nvec[1:]))
        assert int(np.prod(nvec)) <= budget
        assert min(nvec) >= 1


def test_allocation_validation():
    with pytest.raises(BadParameter):
        allocate_levels(np.array([1.0, 2.0]), 4)  # not non-increasing
    with pytest.raises(BadParameter):
        allocate_levels(np.array([1.0, 0.5]), 0)
    with pytest.raises(BadParameter):
        allocate_levels(np.array([1.0, -0.5]), 4)


# ---------------------------------------------------------------------------
# Gram matrix and KL reduction
# ---------------------------------------------------------------------------


def _term_fn(term):
    kind, w = term
    if kind == "one":
        return lambda t: 1.0
    if kind == "t":
        return lambda t: t
    if kind == "sin":
        return lambda t: math.sin(w * t)
    if kind == "cos":
        return lambda t: math.cos(w * t)
    return lambda t: 1.0 - math.cos(w * t)


def test_gram_entries_match_quadrature(exp_fbm04, exp_brownian):
    for exp, m in ((exp_fbm04, 3), (exp_brownian, 4)):
        red = kl_reduce(exp, m)
        g = red.gram.entries
        terms = red.basis
        rng = np.random.default_rng(8)
        pairs = [(i, j) for i in range(len(terms)) for j in range(i, len(terms))]
        for k in rng.permutation(len(pairs))[:10]:
            a, b = pairs[int(k)]
            fa, fb = _term_fn(terms[a]), _term_fn(terms[b])
            ref, err = quad(lambda t: fa(t) * fb(t), 0.0, exp.horizon_T, limit=200)
            assert g[a, b] == pytest.approx(ref, abs=max(1e-12, 4 * err))


def test_gram_matrix_full_basis(exp_fbm04):
    g = gram_matrix(exp_fbm04)
    n = g.entries.shape[0]
    assert g.dim == n == 2 * exp_fbm04.truncation_N
    assert np.allclose(g.entries, g.entries.T, atol=0)
    assert np.all(np.diag(g.entries) > 0)


def test_kl_reduce_invariants_all_families(exp_fbm04, exp_brownian):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cases = [
            (exp_fbm04, 6),
            (exp_brownian, 12),
            (build_fbm(0.75, 1.0, 64, fbm_coefficients(0.75, 1.0, 64)), 8),
            (build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.0, 1.0, 64), 10),
        ]
    for exp, m in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GramSingularWarning)
            red = kl_reduce(exp, m)
        a = red.eigvec_coeffs
        g = red.gram.entries
        r = red.reduced_dim
        assert np.all(np.diff(red.mu) <= 1e-15)
        assert red.mu[-1] > 0
        ortho = np.max(np.abs(a.T @ g @ a - np.eye(r)))
        assert ortho <= 1e-8, exp.family
        # trace identity, up to the trimmed near-null mass
        tr = float(np.sum(red.lambdas**2 * np.diag(g)))
        assert abs(float(np.sum(red.mu)) - tr) <= 1e-8 * tr
        # reconstruction of the span covariance at random points
        rng = np.random.default_rng(2)
        worst = 0.0
        for s, t in rng.uniform(0, exp.horizon_T, size=(25, 2)):
            es = red.basis_matrix(s)[:, 0]
            et = red.basis_matrix(t)[:, 0]
            kl_val = float(np.sum(red.mu * (a.T @ es) * (a.T @ et)))
            direct = float(np.sum(red.lambdas**2 * es * et))
            worst = max(worst, abs(kl_val - direct))
        assert worst <= 1e-8, exp.family


def test_kl_reduce_brownian_eigenvalues(exp_brownian):
    red = kl_reduce(exp_brownian, 24)
    truth = np.array([1.0 / ((j + 0.5) ** 2 * math.pi**2) for j in range(11)])
    assert np.max(np.abs(red.mu[:11] - truth)) <= 1e-8


def test_kl_reduce_warns_on_near_dependent_span():
    exp = build_fbm(0.3, 1.0, 64, fbm_coefficients(0.3, 1.0, 64))
    with pytest.warns(GramSingularWarning):
        kl_reduce(exp, 8)


def test_kl_reduce_rejects_initial_coupling():
    exp = build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 64)
    with pytest.raises(BadParameter):
        kl_reduce(exp, 4)


def test_kl_reduce_rejects_bad_m(exp_fbm04):
    with pytest.raises(BadParameter):
        kl_reduce(exp_fbm04, 0)
    with pytest.raises(BadParameter):
        kl_reduce(exp_fbm04, 65)


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_coordinate_matrix_rows_orthonormal(exp_fbm04):
    red = kl_reduce(exp_fbm04, 6)
    cm = red.coordinate_matrix()
    assert cm.shape == (red.reduced_dim, len(red.basis))
    assert np.max(np.abs(cm @ cm.T - np.eye(red.reduced_dim))) <= 1e-12


# ---------------------------------------------------------------------------
# product quantizer and its Monte Carlo cross-check
# ---------------------------------------------------------------------------


def test_budget_one_quantizer_is_mean_path(exp_fbm04):
    q = product_quantizer(None, exp_fbm04, 1)
    assert q.n_codewords == 1
    t = np.linspace(0, 1, 17)
    assert np.max(np.abs(q.codebook_paths(t))) == 0.0
    # distortion is the full variance integral plus the tail allowance
    assert q.distortion_sq > 0.5


def test_product_quantizer_budget_and_defaults(exp_fbm04):
    q = product_quantizer(None, exp_fbm04, 20)
    assert q.n_codewords <= 20
    assert q.reduced.m == 5  # ceil(log2 20)
    assert q.levels_per_dim == tuple(sorted(q.levels_per_dim, reverse=True))
    q2 = product_quantizer(None, exp_fbm04, 20, m=3)
    assert q2.reduced.m == 3
    with pytest.raises(BadParameter):
        product_quantizer(None, exp_fbm04, 0)


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_distortion_decreases_with_budget(exp_fbm04):
    d = [product_quantizer(None, exp_fbm04, b).distortion_sq for b in (1, 5, 10, 20, 40)]
    assert all(a > b for a, b in zip(d, d[1:]))


def test_distortion_mc_matches_analytic_at_budget_one(exp_fbm04):
    from specgauss.quantize import _tail_variance_integral

    q = product_quantizer(None, exp_fbm04, 1)
    est, se = distortion_mc(q, exp_fbm04, 4000, seed=321)
    target = q.distortion_sq - _tail_variance_integral(exp_fbm04)
    assert abs(est - target) <= 4.0 * se


def test_distortion_mc_matches_analytic_at_budget_20(exp_fbm04):
    # past budget one the codebook reads the reduced coordinates, so this
    # catches coordinates read from draws the sampler has already weighted
    from specgauss.quantize import _tail_variance_integral

    q = product_quantizer(None, exp_fbm04, 20)
    est, se = distortion_mc(q, exp_fbm04, 4000, seed=321)
    target = q.distortion_sq - _tail_variance_integral(exp_fbm04)
    assert abs(est - target) <= 4.0 * se


def test_distortion_mc_strictly_decreasing(exp_fbm04):
    ests = []
    for budget in (5, 10, 20):
        q = product_quantizer(None, exp_fbm04, budget)
        est, _ = distortion_mc(q, exp_fbm04, 2000, seed=555)
        ests.append(est)
    assert ests[0] > ests[1] > ests[2]


def test_distortion_mc_validation(exp_fbm04):
    q = product_quantizer(None, exp_fbm04, 4)
    with pytest.raises(TooFewPaths):
        distortion_mc(q, exp_fbm04, 50, seed=1)
    with pytest.raises(BadParameter):
        distortion_mc(q, exp_fbm04, 200, seed=1, grid_points=65)


def test_quantizer_rejects_initial_coupling():
    exp = build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 64)
    with pytest.raises(BadParameter):
        product_quantizer(None, exp, 8)


# ---------------------------------------------------------------------------
# codebook artifacts
# ---------------------------------------------------------------------------


def test_codebook_csv_shape_and_pinning(exp_fbm04):
    q = product_quantizer(None, exp_fbm04, 20)
    t = np.linspace(0.0, 1.0, 33)
    text = q.to_csv_text(t)
    lines = text.strip().split("\n")
    assert lines[0].startswith("# codebook label=")
    header = lines[1].split(",")
    assert header[0] == "t"
    assert len(header) == q.n_codewords + 1
    assert len(lines) == 2 + 33
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == 0.0
    assert max(abs(v) for v in first[1:]) == 0.0  # all codewords start at 0


def test_codebook_includes_mean_path():
    exp = build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.0, 1.0, 64)
    q = product_quantizer(None, exp, 1)
    t = np.linspace(0.0, 1.0, 9)
    path = q.codebook_paths(t)[0]
    expect = 1.0 * np.exp(-2.0 * t) + 0.5 * (1.0 - np.exp(-2.0 * t))
    assert np.allclose(path, expect, atol=1e-12)


def test_sidecar_dict_keys(exp_fbm04):
    q = product_quantizer(None, exp_fbm04, 10)
    d = q.sidecar_dict()
    assert d["levels_per_dim"] == list(q.levels_per_dim)
    assert len(d["mu"]) == q.reduced.reduced_dim
    assert d["distortion_sq"] == pytest.approx(q.distortion_sq)
