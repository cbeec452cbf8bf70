"""Scalar quantizers, level allocation, KL reduction and codebooks."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from specgauss import (
    BadParameter,
    GramSingularWarning,
    NonConvergenceWarning,
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
from specgauss import _special, quantize
from specgauss.quantize import _scalar_distortion
from test_expansion import FAMILY_BUILDERS


@pytest.fixture(scope="module")
def exp_fbm04():
    return build_fbm(0.4, 1.0, 64, fbm_coefficients(0.4, 1.0, 64))


@pytest.fixture(scope="module")
def exp_brownian():
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
    for n in (2, 3, 4, 7, 16, 33, 128, 1001, 2**17):
        q = gauss1d_quantizer(n)
        assert q.converged
        assert q.levels.size == n
        assert np.all(np.diff(q.levels) > 0)
        # exactly antisymmetric: every iterate is, and _cells relies on it
        assert np.array_equal(q.levels, -q.levels[::-1])
        # boundaries are cell midpoints
        mids = 0.5 * (q.levels[1:] + q.levels[:-1])
        assert np.allclose(q.boundaries, mids, atol=1e-12)


@pytest.mark.parametrize("n", [7, 8, 14, 1000, 1001, 2**17])
def test_quantizer_converges_in_a_few_newton_steps(n, monkeypatch):
    # from the companding start Newton needs at most 4 steps, each one
    # _cells for the step and one for its candidate, plus the final
    # residual and the distortion
    calls = []
    cells = quantize._cells

    def spy(y):
        calls.append(y.size)
        return cells(y)

    monkeypatch.setattr(quantize, "_cells", spy)
    q = gauss1d_quantizer(n)
    assert q.converged
    assert len(calls) <= 12, len(calls)


def test_quantizer_safeguards_when_the_residual_cannot_fall(monkeypatch):
    # a zero tolerance stands in for the sizes where rounding floors the
    # residual: steps are halved, then fall back to Lloyd steps, and the
    # loop ends at its cap with a warning and a usable quantizer
    events = []
    inside = []
    newton, residual, lloyd = quantize._newton_delta, quantize._centroid_residual, quantize._lloyd_step

    def newton_spy(y):
        events.append("newton")
        inside.append(True)
        try:
            return newton(y)
        finally:
            inside.pop()

    def residual_spy(y):
        if not inside:
            events.append("candidate")
        return residual(y)

    def lloyd_spy(y):
        events.append("lloyd")
        return lloyd(y)

    monkeypatch.setattr(quantize, "_LLOYD_TOL", 0.0)
    monkeypatch.setattr(quantize, "_newton_delta", newton_spy)
    monkeypatch.setattr(quantize, "_centroid_residual", residual_spy)
    monkeypatch.setattr(quantize, "_lloyd_step", lloyd_spy)
    with pytest.warns(NonConvergenceWarning, match="iteration cap reached"):
        q = gauss1d_quantizer(33)
    steps = events[:-1]  # the last residual is the distortion's
    halvings = sum(a == b == "candidate" for a, b in zip(steps, steps[1:]))
    assert not q.converged
    assert steps.count("newton") == quantize._NEWTON_CAP
    assert halvings >= 1
    assert steps.count("lloyd") >= 1
    assert np.all(np.diff(q.levels) > 0)
    assert np.array_equal(q.levels, -q.levels[::-1])
    assert np.max(np.abs(residual(q.levels)[0])) <= 1e-13


def test_at_the_cap_the_best_iterate_is_returned(monkeypatch):
    # with a zero tolerance the residual floors at rounding and Lloyd
    # fallbacks follow; a cap right after one whose iterate is worse than
    # an earlier one must return that earlier iterate, not the last
    steps = []  # (levels, residual) of each Newton step
    after_lloyd = set()  # the steps that a Lloyd fallback led to
    newton, lloyd = quantize._newton_delta, quantize._lloyd_step

    def newton_spy(y):
        r, delta = newton(y)
        steps.append((y.copy(), float(np.max(np.abs(r)))))
        return r, delta

    def lloyd_spy(y):
        after_lloyd.add(len(steps))
        return lloyd(y)

    monkeypatch.setattr(quantize, "_LLOYD_TOL", 0.0)
    monkeypatch.setattr(quantize, "_newton_delta", newton_spy)
    monkeypatch.setattr(quantize, "_lloyd_step", lloyd_spy)
    with pytest.warns(NonConvergenceWarning, match="iteration cap reached"):
        gauss1d_quantizer(33)
    resid = [r for _, r in steps]
    cap = min(j for j in after_lloyd if j < len(steps) and resid[j] > min(resid[:j]))
    best = steps[int(np.argmin(resid[:cap]))][0]
    monkeypatch.setattr(quantize, "_NEWTON_CAP", cap)
    with pytest.warns(NonConvergenceWarning, match="iteration cap reached"):
        q = gauss1d_quantizer(33)
    assert not q.converged
    assert np.array_equal(q.levels, best)
    assert not np.array_equal(q.levels, steps[cap][0])  # the last iterate


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
# the special functions behind the scalar quantizer, against scipy's references
# ---------------------------------------------------------------------------


def test_normal_tail_matches_scipy_ndtr():
    from scipy.special import ndtr

    x = np.linspace(-38.0, 38.0, 152001)
    ref = ndtr(-np.abs(x))
    live = ref > 1e-300
    # one long array takes the rational form; short ones the libm loop
    # wherever it applies, the rational form beyond
    short = _special._ERFC_LOOP_MAX
    for got in (_special.normal_tail(x),
                np.concatenate([_special.normal_tail(c) for c in np.array_split(x, x.size // short + 1)])):
        rel = np.abs(got[live] - ref[live]) / ref[live]
        assert rel.max() <= 1e-14, (rel.max(), x[live][rel.argmax()])
        assert np.all(got[~live] <= 1e-300)


@pytest.mark.parametrize("n", [2, 7, 1000, 2**17])
def test_normal_quantile_matches_scipy_ndtri(n):
    from scipy.special import ndtri

    p = (np.arange(1, n + 1) - 0.5) / n
    got, ref = _special.normal_quantile(p), ndtri(p)
    assert np.all(np.abs(got - ref) <= 1e-15 + 1e-14 * np.abs(ref))


def _newton_system(n, monkeypatch):
    """The tridiagonal system _newton_delta solves at the start of an n-level
    quantizer (the left half of its antisymmetric step), and the solution."""
    seen = []
    solve = _special.solve_tridiagonal

    def spy(*system):
        seen.append((system, solve(*system)))
        return seen[-1][1]

    monkeypatch.setattr(_special, "solve_tridiagonal", spy)
    left = math.sqrt(3.0) * _special.normal_quantile((np.arange(1, n // 2 + 1) - 0.5) / n)
    quantize._newton_delta(np.concatenate((left, [0.0] * (n % 2), -left[::-1])))
    return seen[0]


def _banded(lower, diag, upper):
    ab = np.zeros((3, diag.size))
    ab[0, 1:], ab[1], ab[2, :-1] = upper, diag, lower
    return ab


@pytest.mark.parametrize("n", [2, 7, 1000, 2**17])
def test_newton_solve_matches_scipy_solve_banded(n, monkeypatch):
    from scipy.linalg import solve_banded

    (lower, diag, upper, rhs), got = _newton_system(n, monkeypatch)
    ref = solve_banded((1, 1), _banded(lower, diag, upper), rhs)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [2, 7, 1000, 1001])
def test_newton_step_solves_the_full_system(n):
    # the half-system step against a banded solve of the whole n x n system;
    # at large n the whole system is too ill-conditioned in its symmetric
    # mode (about 5e-11 of rounding there at n = 2^17) to serve as reference
    from scipy.linalg import solve_banded

    left = math.sqrt(3.0) * _special.normal_quantile((np.arange(1, n // 2 + 1) - 0.5) / n)
    y = np.concatenate((left, [0.0] * (n % 2), -left[::-1]))
    r, cent, mass, phi, xphi = quantize._centroid_residual(y)
    da = (cent * phi[:-1] - xphi[:-1]) / mass
    db = (xphi[1:] - cent * phi[1:]) / mass
    ref = -solve_banded((1, 1), _banded(0.5 * da[1:], 0.5 * (da + db) - 1.0, 0.5 * db[:-1]), r)
    got = quantize._newton_delta(y)[1]
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(got, -got[::-1])


def test_tridiagonal_solve_covers_every_reduction_shape():
    # the Thomas limit, the lengths around it and around each padding step
    from scipy.linalg import solve_banded

    rng = np.random.default_rng(3)
    t = _special._THOMAS_MAX
    for n in (1, 2, t - 1, t, t + 1, 2 * t, 2 * t + 1, 4 * t - 1, 4 * t + 3, 1000):
        lower, upper = rng.uniform(-1.0, 1.0, (2, n - 1))
        diag = 2.5 + rng.uniform(0.0, 1.0, n)
        rhs = rng.standard_normal(n)
        got = _special.solve_tridiagonal(lower, diag, upper, rhs)
        ref = solve_banded((1, 1), _banded(lower, diag, upper), rhs)
        assert got.shape == (n,)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), n


@pytest.mark.parametrize("n", [2, 17, 1000, 4096])
def test_quantizer_levels_are_centroids_under_scipy_ndtr(n):
    # the stationarity residual recomputed independently of the quantizer's
    # own cell masses
    from scipy.special import ndtr

    y = gauss1d_quantizer(n).levels
    mids = 0.5 * (y[:-1] + y[1:])
    a = np.concatenate(([-np.inf], mids))
    b = np.concatenate((mids, [np.inf]))
    mass = np.where(a + b > 0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    cent = (np.exp(-0.5 * a * a) - np.exp(-0.5 * b * b)) / math.sqrt(2.0 * math.pi) / mass
    assert np.max(np.abs(cent - y)) < quantize._LLOYD_TOL


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


def test_gram_edge_pairs_match_quadrature():
    # the panel count is sized by the fastest product, 2 w_max: check the
    # pairs of the two highest frequencies of every channel, and every pair
    # with the drift, on a cos channel with a constant drift (type B), a
    # doubled period (type C) and a t drift (fBm H = 0.75)
    for name in ("type_b", "type_c", "fbm_high"):
        exp = FAMILY_BUILDERS[name](64)
        g = gram_matrix(exp).entries
        terms, _ = quantize._basis_terms(exp, exp.truncation_N)
        top = sorted({w for _, w in terms})[-2:]
        edge = [i for i, (_, w) in enumerate(terms) if w in top]
        pairs = {(i, j) for i in edge for j in edge if i <= j}
        if exp.drift_amp > 0.0:
            pairs |= {(0, j) for j in range(len(terms))}
        for a, b in sorted(pairs):
            fa, fb = _term_fn(terms[a]), _term_fn(terms[b])
            # converged to rounding, so that 4 err does not swamp the check
            ref, err = quad(lambda t: fa(t) * fb(t), 0.0, exp.horizon_T, limit=200,
                            epsabs=1e-13, epsrel=1e-13)
            assert g[a, b] == pytest.approx(ref, abs=max(1e-12, 4 * err)), (name, terms[a], terms[b])


def test_gram_matrix_full_basis(exp_fbm04):
    g = gram_matrix(exp_fbm04)
    n = g.entries.shape[0]
    assert g.dim == n == 2 * exp_fbm04.truncation_N
    assert np.allclose(g.entries, g.entries.T, atol=0)
    assert np.all(np.diag(g.entries) > 0)


def test_kl_reduce_invariants_all_families(exp_fbm04, exp_brownian):
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


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_eigenvectors_lead_with_a_positive_entry():
    # every kept eigenvector's largest-magnitude entry is positive, so the
    # order of the codewords follows from the data, not from LAPACK's signs
    for name, build in FAMILY_BUILDERS.items():
        exp = build(64)
        if exp.init_coupling is not None:
            continue
        for m in (1, 5, 20):
            p = kl_reduce(exp, m).eigvecs
            lead = p[np.argmax(np.abs(p), axis=0), np.arange(p.shape[1])]
            assert np.all(lead > 0.0), (name, m)


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


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
def test_beyond_span_variance_matches_the_inner_products():
    # the squared norms of _SELF_NORM against a per-frequency loop of the
    # integrals of sin^2, cos^2 and (1 - cos)^2 over [0, T], on every family,
    # at a deep truncation
    def self_norm(kind, w, T):
        if kind == "sin":
            return T / 2.0 - math.sin(2.0 * w * T) / (4.0 * w)
        if kind == "cos":
            return T / 2.0 + math.sin(2.0 * w * T) / (4.0 * w)
        return T - 2.0 * math.sin(w * T) / w + T / 2.0 + math.sin(2.0 * w * T) / (4.0 * w)

    for name, build in FAMILY_BUILDERS.items():
        exp = build(512)
        if exp.init_coupling is not None:
            continue
        q = product_quantizer(None, exp, 20)
        m, T = q.reduced.m, exp.horizon_T
        base = math.pi / exp.period_T
        beyond = 0.0
        for k in range(m + 1, exp.truncation_N + 1):
            w, a2 = k * base, exp.amp[k - 1] ** 2
            beyond += a2 * self_norm("sin", w, T)
            if exp.cos_kind is not None:
                beyond += a2 * self_norm(exp.cos_kind, w, T)
        scalar = float(np.sum(q.reduced.mu * np.array([s.distortion for s in q.quantizers])))
        ref = scalar + beyond + quantize._tail_variance_integral(exp)
        assert q.distortion_sq == pytest.approx(ref, rel=1e-13, abs=0.0), name


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


# the drift column of the coordinate draws (fBm H > 1/2, type B), the "one"
# and "cos" basis rows (type B) and the deterministic mean (gen-OU)
_MC_EXPANSIONS = {
    "fbm_high": FAMILY_BUILDERS["fbm_high"],
    "type_b": FAMILY_BUILDERS["type_b"],
    "gen_ou_mean": lambda n: build_generalized_ou(2.0, 1.0, 0.5, 2.0, 0.0, 1.0, n),
}


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
@pytest.mark.parametrize("budget", [1, 20])
@pytest.mark.parametrize("name", sorted(_MC_EXPANSIONS))
def test_distortion_mc_matches_analytic_on_every_basis_term(name, budget):
    exp = _MC_EXPANSIONS[name](64)
    q = product_quantizer(None, exp, budget)
    est, se = distortion_mc(q, exp, 4000, seed=321)
    target = q.distortion_sq - quantize._tail_variance_integral(exp)
    assert abs(est - target) <= 4.0 * se, (est, target, se)


def test_distortion_mc_holds_one_budget(exp_fbm04):
    # 4000 paths on 257 points: the paths, their codes and the trapezoid
    # rule's temporaries are per-row and count against the block budget
    from test_expansion import _assert_within_one_budget, _traced_peak

    q = product_quantizer(None, exp_fbm04, 20)
    distortion_mc(q, exp_fbm04, 100, seed=1)
    (est, _), peak = _traced_peak(lambda: distortion_mc(q, exp_fbm04, 4000, seed=321))
    _assert_within_one_budget(0, peak)
    assert est > 0.0


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


@pytest.mark.filterwarnings("ignore::specgauss.GramSingularWarning")
@pytest.mark.parametrize("budget", [77, 1000])
def test_codeword_coeffs_enumerate_the_product_in_row_major_order(exp_fbm04, budget):
    q = product_quantizer(None, exp_fbm04, budget)
    root_mu = np.sqrt(q.reduced.mu)
    # one codeword per multi-index, one product per entry: the same bits
    ref = np.array([[r * s.levels[i] for r, s, i in zip(root_mu, q.quantizers, idx)]
                    for idx in np.ndindex(*q.levels_per_dim)])
    got = q.codeword_coeffs()
    assert got.shape == (q.n_codewords, q.reduced.reduced_dim)
    assert np.array_equal(got, ref)


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
