"""Covariance oracles, Monte Carlo validation, and rate probes.

:func:`analytic_cov` evaluates the exact covariance of each supported model;
:func:`series_cov` evaluates the covariance implied by a truncated expansion
deterministically from its amplitudes at one pair of points, and
:func:`series_cov_grid` does so on an arbitrary grid as one matrix product.
The scalar route takes no sine or cosine per frequency: it builds
e^{i k theta} for k = 1..N as the outer product of two exact tables of about
sqrt(N) phases (the split twiddle table of FFT libraries), reads sin and cos
off its imaginary and real parts and takes one dot product per channel.  The
grid route keeps exact per-entry sines and cosines, so the two stay
independent cross-checks of each other.  An expansion carries one amplitude
per frequency plus the family table, so every route squares one amplitude
sequence and reads the basis from ``cos_kind`` and ``drift_kind`` alone.
On the samplers' uniform grid t_j = j T / m the series covariance needs no
sine or cosine per frequency: the fold of the squared amplitudes onto the
grid's residues, whose reflection gives the folded expansion, also fixes the
covariance, through one real FFT (``_engine.folded_cosine_sums``), and each family's
covariance is one formula in it.  :func:`series_cov_uniform` reads the
whole matrix off it in O(N + L log L + m^2), :func:`series_var_uniform` its
diagonal in O(N + L log L + m), and the report takes that route whenever
the batch grid is that uniform grid.  The gap between series and analytic
covariance is bounded by the coefficient tail, which the report checks
exploit.

The report's empirical side is matrix-form as well: :func:`empirical_cov_grid`
takes the sample covariance of every grid pair from the Gram product
Xc^T Xc of the centred batch and the jackknife standard errors in closed form
from the Gram product of the squared centred values, (Xc o Xc)^T (Xc o Xc),
both summed over row blocks within the engine's block budget.
Scalar :func:`empirical_cov` stays as the per-pair reference.  The rate
probe measures the decay of the uniform truncation error empirically against
the expected N^(-H) sqrt(log N) law.  Its ladder of truncations shares one
stream of draws: per block of draws the engine builds one residual
spectrum and takes one inverse real FFT per rung (``_engine.residual_sups``),
so its memory is bounded by the block budget whatever the ladder.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import _engine
from ._util import (
    check_gen_ou,
    check_instance,
    check_int,
    check_positive,
    check_real,
    real_array,
)
from .errors import BadParameter, DeltaOutOfRange, TooFewPaths
from .expansion import PathBatch, SeriesExpansion, build_fbm
from .fourier import coeffs_quadrature, fbm_coefficients, tail_sum
from .gamma import GammaSpec


@dataclass(frozen=True)
class CovModel:
    """Tagged covariance model with exact closed-form evaluation.

    For ``type_b`` and ``type_c`` the stored spec describes -gamma (the
    admissible side), mirroring the builder inputs; ``type_a`` stores gamma
    itself.
    """

    kind: str
    horizon_T: float
    hurst: Optional[float] = None
    theta: Optional[float] = None
    alpha: Optional[float] = None
    mu: Optional[float] = None
    sigma: Optional[float] = None
    sigma0: Optional[float] = None
    spec: Optional[GammaSpec] = None

    def __post_init__(self):
        object.__setattr__(self, "horizon_T", check_positive(self.horizon_T, "horizon_T"))
        if self.kind not in ("fbm", "brownian", "gen_ou", "type_a", "type_b", "type_c"):
            raise BadParameter(f"unknown model kind {self.kind!r}")
        if self.kind in ("type_a", "type_b", "type_c"):
            check_instance(self.spec, GammaSpec, f"{self.kind} model: spec")

    @classmethod
    def fbm(cls, hurst, T):
        hurst = check_real(hurst, "hurst")
        if not (0.0 < hurst < 1.0):
            raise BadParameter("fbm model needs H in (0, 1)")
        return cls(kind="fbm", horizon_T=T, hurst=hurst)

    @classmethod
    def brownian(cls, T):
        return cls(kind="brownian", horizon_T=T)

    @classmethod
    def gen_ou(cls, theta, alpha, mu, sigma, sigma0, T):
        theta, alpha, mu, sigma, sigma0 = check_gen_ou(theta, alpha, mu, sigma, sigma0)
        return cls(
            kind="gen_ou", horizon_T=T, theta=theta, alpha=alpha,
            mu=mu, sigma=sigma, sigma0=sigma0,
        )

    @classmethod
    def type_a(cls, spec, T):
        return cls(kind="type_a", horizon_T=T, spec=spec)

    @classmethod
    def type_b(cls, spec_neg, T):
        return cls(kind="type_b", horizon_T=T, spec=spec_neg)

    @classmethod
    def type_c(cls, spec_neg, T):
        return cls(kind="type_c", horizon_T=T, spec=spec_neg)

    @property
    def label(self):
        if self.kind == "fbm":
            return f"fbm(H={self.hurst},T={self.horizon_T})"
        if self.kind == "gen_ou":
            return (
                f"gen_ou(theta={self.theta},alpha={self.alpha},mu={self.mu},"
                f"sigma={self.sigma},sigma0={self.sigma0},T={self.horizon_T})"
            )
        tag = self.spec.label if self.spec is not None and self.spec.label else ""
        return f"{self.kind}({tag},T={self.horizon_T})"


def _gamma_value(spec, x):
    # spec evaluates on (0, T]; route the endpoint through the stored limit
    if x <= 0.0:
        if spec.gamma_at_zero is None:
            raise BadParameter("gamma value at 0 requires a stored limit")
        return spec.gamma_at_zero
    return float(spec.evaluate(np.array([x]))[0])


def _points_in_horizon(T, s, t):
    """(s, t) as floats, each inside [0, T] up to rounding."""
    s, t = check_real(s, "s"), check_real(t, "t")
    # negated so that NaN fails the range check
    if not all(-1e-12 * T <= x <= T * (1.0 + 1e-12) for x in (s, t)):
        raise BadParameter("s, t must lie inside [0, T]")
    return s, t


def analytic_cov(model, s, t):
    """Exact covariance of ``model`` at (s, t) in [0, T]^2."""
    check_instance(model, CovModel, "model")
    return _model_cov(model, *_points_in_horizon(model.horizon_T, s, t))


def _model_cov(model, s, t):
    """:func:`analytic_cov` at float points already checked against the
    horizon."""
    if model.kind == "fbm":
        h2 = 2.0 * model.hurst
        return 0.5 * (abs(s) ** h2 + abs(t) ** h2 - abs(t - s) ** h2)
    if model.kind == "brownian":
        return min(s, t)
    if model.kind == "gen_ou":
        th = model.theta
        s2 = model.sigma * model.sigma
        both = math.exp(-th * (s + t))
        return model.sigma0 ** 2 * both + (s2 / (2.0 * th)) * (math.exp(-th * abs(t - s)) - both)
    if model.kind == "type_a":
        g = model.spec
        return 0.5 * (_gamma_value(g, s) + _gamma_value(g, t) - _gamma_value(g, abs(t - s)))
    if model.kind == "type_b":
        return -_gamma_value(model.spec, abs(t - s))
    if model.kind == "type_c":
        return 0.5 * (-_gamma_value(model.spec, abs(t - s)) + _gamma_value(model.spec, s + t))


def _unit_phases(theta, n):
    """e^{i k theta} for k = 1..n, from two exact tables of about sqrt(n)
    entries each: with B = isqrt(n) and k = q B + r (0 <= r < B),
    e^{i k theta} = e^{i q B theta} e^{i r theta}, one outer product.  Each
    table angle is theta times an exact integer, rounded once, so each phase
    is within a few ulps; no sine or cosine is taken per frequency."""
    b = math.isqrt(n)
    coarse = np.exp(1j * (theta * np.arange(0, n + 1, b)))
    fine = np.exp(1j * (theta * np.arange(b)))
    return np.multiply.outer(coarse, fine).ravel()[1 : n + 1]


def series_cov(exp, s, t):
    """Covariance implied by the truncated expansion, from its amplitudes.

    Sums a_k^2 (sin sin + phi phi) over k <= N (phi the cosine-channel
    basis, absent for type C), plus the drift and initial-value
    contributions.  No sampling.
    The basis at a point is read off e^{i k theta}, theta = pi s / period_T,
    built by :func:`_unit_phases` from two tables of about sqrt(N) phases
    (sin the imaginary part, cos the real part), and each channel is one dot
    product with its squared amplitudes: O(N) multiplications and O(sqrt N)
    complex exponentials per point.
    """
    check_instance(exp, SeriesExpansion, "exp")
    s, t = _points_in_horizon(exp.horizon_T, s, t)
    total = 0.0
    n = exp.truncation_N
    if n > 0:
        w = math.pi / exp.period_T
        a2 = exp.amp**2
        # on the diagonal the phases are built once and used twice
        es = _unit_phases(w * s, n)
        et = es if t == s else _unit_phases(w * t, n)
        basis = es.imag * et.imag
        total += float(np.dot(a2, basis))
        if exp.cos_kind is not None:
            # reusing the sine channel's buffer keeps the peak at the phase
            # tables plus one product buffer
            if exp.cos_kind == "omc":
                np.subtract(1.0, es.real, out=basis)
                basis *= 1.0 - et.real
            else:
                np.multiply(es.real, et.real, out=basis)
            total += float(np.dot(a2, basis))
    if exp.drift_amp > 0.0:
        total += exp.drift_amp**2 * (s * t if exp.drift_kind == "t" else 1.0)
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        total += sigma0 * sigma0 * math.exp(-theta * (s + t))
    return total


def series_cov_grid(exp, grid):
    """Covariance matrix implied by the truncated expansion on a whole grid.

    ``S diag(a^2) S^T + C diag(a^2) C^T`` with S and C the sine and
    cosine-channel basis at the grid points (no C for type C), plus the drift and
    initial-value outer products: :func:`series_cov` at every pair, as one
    product.  Frequencies are taken in blocks of at most
    half of ``_engine.BLOCK_DOUBLES`` basis entries, each built in place in
    one scratch block (angles, then the weighted basis; the angles are
    rebuilt for the cosine channel), so besides the output only that block
    and one output-sized Gram product are alive.
    """
    check_instance(exp, SeriesExpansion, "exp")
    T = exp.horizon_T
    t = real_array(grid, "grid")
    if not np.all((t >= -1e-12 * T) & (t <= T * (1.0 + 1e-12))):
        raise BadParameter("grid must lie inside [0, T]")
    cov = np.zeros((t.size, t.size))
    n = exp.truncation_N
    blk = max(1, _engine.BLOCK_DOUBLES // 2 // t.size)
    scratch = np.empty(t.size * min(blk, n))
    for k0 in range(0, n, blk):
        k1 = min(k0 + blk, n)
        w = np.arange(k0 + 1, k1 + 1) * (math.pi / exp.period_T)
        basis = scratch[: t.size * (k1 - k0)].reshape(t.size, k1 - k0)
        np.sin(np.outer(t, w, out=basis), out=basis)
        basis *= exp.amp[k0:k1]
        cov += basis @ basis.T
        if exp.cos_kind is not None:
            np.cos(np.outer(t, w, out=basis), out=basis)
            if exp.cos_kind == "omc":
                np.subtract(1.0, basis, out=basis)
            basis *= exp.amp[k0:k1]
            cov += basis @ basis.T
    return _add_deterministic_cov(exp, t, cov, np.outer)


def _add_deterministic_cov(exp, t, cov, pair):
    """Add the drift and initial-value covariance on the points ``t`` to
    ``cov``: the matrix with ``pair`` = np.outer, its diagonal with
    ``pair`` = np.multiply."""
    if exp.drift_amp > 0.0:
        cov += exp.drift_amp**2 * (pair(t, t) if exp.drift_kind == "t" else 1.0)
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        e = sigma0 * np.exp(-theta * t)
        cov += pair(e, e)
    return cov


def _folded_cov(exp, m, i, j):
    """The series part of the covariance at grid indices (i, j) of
    t_j = j T / m, broadcast, from the folded cosine sums Phi of the squared
    amplitudes.  Per frequency the basis products are cosines of pi k d / L
    with d = |i - j|, i, j or i + j:

    - sin sin + cos cos (type B) gives Phi(|i - j|);
    - sin sin + (1 - cos)(1 - cos) (fBm, type A) gives
      (Phi(0) - Phi(i)) - (Phi(j) - Phi(|i - j|)), exactly zero at i = 0 or
      j = 0, as the basis is;
    - sin sin alone (type C) gives (Phi(|i - j|) - Phi(i + j)) / 2.
    """
    phi = _engine.folded_cosine_sums(exp, m)
    dif = np.abs(i - j)
    if exp.cos_kind == "cos":
        return phi[dif]
    if exp.cos_kind == "omc":
        return (phi[0] - phi[i]) - (phi[j] - phi[dif])
    return 0.5 * (phi[dif] - phi[i + j])


def series_cov_uniform(exp, m):
    """:func:`series_cov_grid` on the uniform grid t_j = j T / m, the
    (m + 1, m + 1) matrix, from the folded squared amplitudes in
    O(N + L log L + m^2) (L = m, or 2m for type C) instead of O(N m^2)
    trigonometric evaluations.

    On the grid, the product of two basis functions is a sum of cosines of
    pi k d / L with d = |i - j| or i + j, which depend on k only mod 2L, so
    each channel's covariance is a combination of its folded cosine sums
    Phi(d).  The error is a few ulps of the total variance.
    """
    check_instance(exp, SeriesExpansion, "exp")
    m = check_int(m, "m", 1)
    i = np.arange(m + 1)
    cov = _folded_cov(exp, m, i[:, None], i[None, :])
    return _add_deterministic_cov(exp, _engine.uniform_grid(exp.horizon_T, m), cov, np.outer)


def series_var_uniform(exp, m):
    """The diagonal of :func:`series_cov_uniform`, the series variance at
    each of the m + 1 points t_j = j T / m, in O(N + L log L + m)."""
    check_instance(exp, SeriesExpansion, "exp")
    m = check_int(m, "m", 1)
    i = np.arange(m + 1)
    var = _folded_cov(exp, m, i, i)
    return _add_deterministic_cov(exp, _engine.uniform_grid(exp.horizon_T, m), var, np.multiply)


def _exact_uniform_m(exp, grid):
    """m when ``grid`` is exactly the samplers' uniform grid
    t_j = j T / m of ``exp``, else None."""
    m = grid.size - 1
    if m >= 1 and np.array_equal(grid, _engine.uniform_grid(exp.horizon_T, m)):
        return m
    return None


def _require_paths(batch):
    """The path count of ``batch``, a PathBatch of at least 100 paths."""
    n = check_instance(batch, PathBatch, "batch").n_paths
    if n < 100:
        raise TooFewPaths(f"covariance estimation needs >= 100 paths, got {n}")
    return n


def empirical_cov(batch, i, j):
    """Unbiased sample covariance of grid columns i, j with a jackknife
    standard error.  Needs at least 100 paths; i and j are column indices
    in [0, grid size)."""
    n = _require_paths(batch)
    m = batch.grid.size
    for name, k in (("i", i), ("j", j)):
        if check_int(k, name, 0) >= m:
            raise BadParameter(f"{name} must be a column index below {m}, got {k}")
    x = batch.values[:, i]
    y = batch.values[:, j]
    dx = x - x.mean()
    dy = y - y.mean()
    prods = dx * dy
    s_full = float(np.sum(prods))
    est = s_full / (n - 1)
    # delete-one covariances via the standard downdate of the centered sum
    loo = (s_full - prods * (n / (n - 1.0))) / (n - 2.0)
    se = math.sqrt((n - 1.0) / n * float(np.sum((loo - loo.mean()) ** 2)))
    return est, se


def empirical_cov_grid(batch):
    """:func:`empirical_cov` at every pair of grid columns, as two Gram
    products.  Returns the (m, m) matrices of estimates and jackknife
    standard errors.  Needs at least 100 paths.

    With Xc the centred batch, S = Xc^T Xc gives the estimates S / (n - 1).
    Each delete-one covariance is an affine function of its pair product
    p_k = dx_k dy_k, loo_k - mean(loo) = -n / ((n - 1)(n - 2)) (p_k - mean(p)),
    so the jackknife variance is (n - 1) / n (n / ((n - 1)(n - 2)))^2
    (sum_k p_k^2 - S^2 / n), and sum_k p_k^2 is the Gram product Q of the
    squared centred values.  S and Q are summed over row blocks of a quarter
    of ``_engine.BLOCK_DOUBLES`` doubles, each block centred and squared in
    place, so the batch is never copied whole; a batch of one block gives the
    same bits as the unblocked products.  The report runs after the
    sampler, whose batch and blocks set the process peak; a block of the
    whole budget raised that peak (gen-OU, 20000 paths on 129 points: 66.7
    to 70.4 MiB resident), while a half or a quarter added nothing.
    """
    n = _require_paths(batch)
    x = batch.values
    mean = x.mean(axis=0)
    rows = max(1, _engine.BLOCK_DOUBLES // 4 // x.shape[1])
    block = np.empty((min(rows, n), x.shape[1]))
    for start in range(0, n, rows):
        xc = block[: n - start]
        np.subtract(x[start : start + rows], mean, out=xc)
        part = xc.T @ xc
        np.square(xc, out=xc)
        if start == 0:
            gram, quad = part, xc.T @ xc
        else:
            gram += part
            quad += xc.T @ xc
    est = gram / (n - 1)
    c = n / ((n - 1.0) * (n - 2.0))
    spread = np.maximum(quad - gram * gram / n, 0.0)
    se = np.sqrt((n - 1.0) / n * (c * c) * spread)
    return est, se


def covariance_report(model, exp, batch, *, z_bound=4.0):
    """Cross-check a sampled batch against the analytic and series
    covariances.  Returns a JSON-ready dict of named checks."""
    check_instance(model, CovModel, "model")
    check_instance(exp, SeriesExpansion, "exp")
    check_instance(batch, PathBatch, "batch")
    z_bound = check_positive(z_bound, "z_bound")
    grid = batch.grid
    T = model.horizon_T
    # the grid is checked once, as analytic_cov checks each point;
    # negated so that NaN fails
    if not np.all((grid >= -1e-12 * T) & (grid <= T * (1.0 + 1e-12))):
        raise BadParameter("batch grid must lie inside the model's [0, T]")
    m = grid.size
    iu, ju = np.triu_indices(m)
    pts = grid.tolist()
    analytic = np.array([_model_cov(model, pts[i], pts[j]) for i, j in zip(iu.tolist(), ju.tolist())])
    # Gaps below this are zero at double precision; without the floor a
    # pinned grid point (exact-zero covariance, se ~ rounding noise)
    # produces an arbitrarily large z from a meaningless 1e-26 gap.
    scale = float(np.max(np.abs(analytic[iu == ju])))
    atol = 1e-10 * max(scale, 1e-300)
    est, se = empirical_cov_grid(batch)
    est = est[iu, ju]
    se = se[iu, ju]
    gap = np.abs(est - analytic)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(gap <= atol, 0.0, np.where(se == 0.0, math.inf, gap / se))
    # a NaN z never counts as the worst pair; pairs run in row-major order,
    # so the first maximum is the first pair to reach it, and an all-zero
    # report names pair (0, 0)
    z[np.isnan(z)] = 0.0
    k = int(np.argmax(z))
    worst_z = float(z[k])
    worst_pair = (int(iu[k]), int(ju[k]))
    checks = [
        {
            "name": "empirical_vs_analytic",
            "statistic": worst_z,
            "bound": z_bound,
            "passed": bool(worst_z <= z_bound),
            "detail": f"worst grid pair {worst_pair}",
        }
    ]
    if exp.coeff_series is not None:
        tail = 2.0 * tail_sum(exp.coeff_series, exp.truncation_N)
        res = _exact_uniform_m(exp, grid)
        if res is None:
            series = series_cov_grid(exp, grid)
        else:
            series = series_cov_uniform(exp, res)
        worst_gap = float(np.max(np.abs(series[iu, ju] - analytic)))
        checks.append(
            {
                "name": "series_vs_analytic",
                "statistic": worst_gap,
                "bound": tail + 1e-12,
                "passed": bool(worst_gap <= tail + 1e-12),
                "detail": f"truncation N={exp.truncation_N}",
            }
        )
    return {
        "model": model.label,
        "expansion": exp.label,
        "n_paths": batch.n_paths,
        "seed": batch.seed,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


@dataclass(frozen=True)
class RateProbeResult:
    """Empirical truncation-error decay against the N^(-H) sqrt(log N) law."""

    Ns: Tuple[int, ...]
    sup_err_estimates: Tuple[float, ...]
    sup_err_stderrs: Tuple[float, ...]
    fitted_slope: float
    reference_slope: float
    replicate_count: int
    n_reference: int
    grid_resolution: int


def rate_probe(model, Ns, replicates, seed):
    """Monte Carlo estimate of E sup_t |B_t - B_t^N| over a geometric ladder
    of truncations, with a common high-truncation reference and coupled
    draws; fits the slope of log(est / sqrt(log N)) against log N.

    The sup over [0, T] is approximated by the max over the uniform grid of
    m = 16 * max(Ns) cells, recorded as ``grid_resolution``; the residual is
    band-limited, so no finer grid is needed.

    Every replicate draws the 2 n_ref + 1 normals of one reference expansion
    (n_ref = 8 max(Ns)), so the whole ladder is coupled.  The residual beyond
    N keeps the frequencies k > N only, and n_ref <= m / 2, so no frequency
    aliases on the grid: per block of draws the engine builds one residual
    spectrum, zeroes it upward along the ladder, and takes one inverse real
    FFT per rung (``_engine.residual_sups``).  The blocks run on the CPUs
    this process may use, and the draws, spectra and transform buffers of
    all workers share one budget of ``BLOCK_DOUBLES`` doubles.
    """
    if check_instance(model, CovModel, "model").kind != "fbm":
        raise BadParameter("rate probe is defined for the fractional model")
    try:
        Ns = list(Ns)
    except TypeError:
        raise BadParameter("Ns must be a sequence of integers") from None
    Ns = [check_int(n, "each of Ns", 1) for n in Ns]
    if len(Ns) < 2 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise BadParameter("Ns must be a strictly increasing ladder of length >= 2")
    replicates = check_int(replicates, "replicates", 100)
    seed = check_int(seed, "seed")
    H = model.hurst
    T = model.horizon_T
    n_ref = 8 * Ns[-1]
    m = 16 * Ns[-1]
    ref = build_fbm(H, T, n_ref, fbm_coefficients(H, T, n_ref))
    sups = np.empty((len(Ns), replicates))
    weights = _engine.draw_weights(ref)

    def block(start, stop, z, work):
        sups[:, start:stop] = _engine.residual_sups(ref, m, Ns, weights, z, work)

    _engine.run_blocks(ref, replicates, _engine.grid_row_doubles(ref, m), seed, None, block)
    ests = []
    stderrs = []
    for vals in sups:
        ests.append(math.fsum(vals) / replicates)
        stderrs.append(float(np.std(vals, ddof=1)) / math.sqrt(replicates))
    x = np.log(np.array(Ns, dtype=float))
    y = np.log(np.array(ests) / np.sqrt(np.log(np.array(Ns, dtype=float))))
    slope = float(np.polyfit(x, y, 1)[0])
    return RateProbeResult(
        Ns=tuple(Ns),
        sup_err_estimates=tuple(ests),
        sup_err_stderrs=tuple(stderrs),
        fitted_slope=slope,
        reference_slope=-H,
        replicate_count=replicates,
        n_reference=n_ref,
        grid_resolution=m,
    )


def lemma1_check(spec, K, grid):
    """Max over the grid of the reconstruction error
    |gamma(0) + sum_{k<=K} c_k (cos(k pi t / T) - 1) - gamma(|t|)|.

    The grid may cover [-T, T]; the reconstruction is even in t.  Requires
    a bounded generating function (delta < 1).
    """
    if check_instance(spec, GammaSpec, "spec").delta >= 1.0:
        raise DeltaOutOfRange(f"reconstruction check needs delta < 1, got {spec.delta}")
    T = spec.horizon_T
    g = real_array(grid, "grid")
    if not np.all(np.abs(g) <= T * (1.0 + 1e-12)):
        raise BadParameter("grid must lie inside [-T, T]")
    K = check_int(K, "K", 0)
    series = coeffs_quadrature(spec, K)
    a = np.abs(g)
    target = np.empty_like(a)
    pos = a > 0.0
    if np.any(pos):
        target[pos] = spec.evaluate(a[pos])
    target[~pos] = spec.gamma_at_zero
    recon = np.full(a.shape, spec.gamma_at_zero, dtype=float)
    w = math.pi / T
    # frequencies in blocks of at most BLOCK_DOUBLES basis entries; one
    # basis block is alive at a time and is transformed in place
    blk = max(1, _engine.BLOCK_DOUBLES // g.size)
    for k0 in range(1, K + 1, blk):
        k1 = min(k0 + blk - 1, K)
        basis = np.outer(a, np.arange(k0, k1 + 1, dtype=float) * w)
        np.cos(basis, out=basis)
        basis -= 1.0
        recon += basis @ series.values[k0 : k1 + 1]
        del basis
    return float(np.max(np.abs(recon - target)))
