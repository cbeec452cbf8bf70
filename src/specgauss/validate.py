"""Covariance oracles, Monte Carlo validation, and rate probes.

:func:`analytic_cov` evaluates the exact covariance of each supported model;
:func:`series_cov` evaluates the covariance implied by a truncated expansion
deterministically from its amplitudes, and :func:`series_cov_grid` does so on
a whole grid as one matrix product.  The gap between series and analytic
covariance is bounded by the coefficient tail, which the report checks
exploit.

The report's empirical side is matrix-form as well: :func:`empirical_cov_grid`
centres the batch once, takes the sample covariance of every grid pair from
the Gram product Xc^T Xc and the jackknife standard errors in closed form
from the Gram product of the squared centred values, (Xc o Xc)^T (Xc o Xc).
Scalar :func:`empirical_cov` stays as the per-pair reference.  The rate
probe measures the decay of the uniform truncation error empirically against
the expected N^(-H) sqrt(log N) law.
"""

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _engine
from .errors import BadParameter, DeltaOutOfRange, TooFewPaths
from .expansion import SeriesExpansion
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

    @classmethod
    def fbm(cls, hurst, T):
        if not (0.0 < hurst < 1.0):
            raise BadParameter("fbm model needs H in (0, 1)")
        return cls(kind="fbm", horizon_T=float(T), hurst=float(hurst))

    @classmethod
    def brownian(cls, T):
        return cls(kind="brownian", horizon_T=float(T))

    @classmethod
    def gen_ou(cls, theta, alpha, mu, sigma, sigma0, T):
        if not (theta > 0 and sigma > 0 and sigma0 >= 0):
            raise BadParameter("gen_ou model needs theta > 0, sigma > 0, sigma0 >= 0")
        return cls(
            kind="gen_ou", horizon_T=float(T), theta=float(theta), alpha=float(alpha),
            mu=float(mu), sigma=float(sigma), sigma0=float(sigma0),
        )

    @classmethod
    def type_a(cls, spec, T):
        return cls(kind="type_a", horizon_T=float(T), spec=spec)

    @classmethod
    def type_b(cls, spec_neg, T):
        return cls(kind="type_b", horizon_T=float(T), spec=spec_neg)

    @classmethod
    def type_c(cls, spec_neg, T):
        return cls(kind="type_c", horizon_T=float(T), spec=spec_neg)

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


def analytic_cov(model, s, t):
    """Exact covariance of ``model`` at (s, t) in [0, T]^2."""
    T = model.horizon_T
    s = float(s)
    t = float(t)
    for x in (s, t):
        if x < -1e-12 * T or x > T * (1.0 + 1e-12):
            raise BadParameter("s, t must lie inside [0, T]")
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
    raise BadParameter(f"unknown model kind {model.kind!r}")


def series_cov(exp, s, t):
    """Covariance implied by the truncated expansion, from its amplitudes.

    Sums a_k^2 sin sin + b_k^2 phi phi over k <= N (phi the cosine-channel
    basis), plus the drift and initial-value contributions.  No sampling.
    """
    T = exp.horizon_T
    s = float(s)
    t = float(t)
    for x in (s, t):
        if x < -1e-12 * T or x > T * (1.0 + 1e-12):
            raise BadParameter("s, t must lie inside [0, T]")
    total = 0.0
    n = exp.truncation_N
    if n > 0:
        w = (np.arange(1, n + 1) * (math.pi / exp.period_T))
        a2 = exp.sin_amp**2
        # on the diagonal the basis is evaluated once and used twice
        ss = np.sin(w * s)
        st = ss if t == s else np.sin(w * t)
        total += float(np.sum(a2 * ss * st))
        if exp.cos_amp is not None:
            b2 = exp.cos_amp**2
            cs = np.cos(w * s)
            ct = cs if t == s else np.cos(w * t)
            if exp.one_minus_cos:
                total += float(np.sum(b2 * (1.0 - cs) * (1.0 - ct)))
            else:
                total += float(np.sum(b2 * cs * ct))
    if exp.drift_amp > 0.0:
        if exp.family == "fbm_high":
            total += exp.drift_amp**2 * s * t
        elif exp.family == "type_b":
            total += exp.drift_amp**2
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        total += sigma0 * sigma0 * math.exp(-theta * (s + t))
    return total


def series_cov_grid(exp, grid):
    """Covariance matrix implied by the truncated expansion on a whole grid.

    ``S diag(a^2) S^T + C diag(b^2) C^T`` with S and C the sine and
    cosine-channel basis at the grid points, plus the drift and
    initial-value outer products: :func:`series_cov` at every pair, as one
    product.  Frequencies are taken in blocks so the basis stays small.
    """
    T = exp.horizon_T
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise BadParameter("grid must be a nonempty 1-D array")
    if np.any(t < -1e-12 * T) or np.any(t > T * (1.0 + 1e-12)):
        raise BadParameter("grid must lie inside [0, T]")
    cov = np.zeros((t.size, t.size))
    n = exp.truncation_N
    blk = max(1, (1 << 22) // t.size)
    for k0 in range(0, n, blk):
        k1 = min(k0 + blk, n)
        ang = np.outer(t, np.arange(k0 + 1, k1 + 1) * (math.pi / exp.period_T))
        basis = np.sin(ang) * exp.sin_amp[k0:k1]
        cov += basis @ basis.T
        if exp.cos_amp is not None:
            basis = np.cos(ang)
            if exp.one_minus_cos:
                basis = 1.0 - basis
            basis *= exp.cos_amp[k0:k1]
            cov += basis @ basis.T
    if exp.drift_amp > 0.0:
        if exp.family == "fbm_high":
            cov += exp.drift_amp**2 * np.outer(t, t)
        elif exp.family == "type_b":
            cov += exp.drift_amp**2
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        e = sigma0 * np.exp(-theta * t)
        cov += np.outer(e, e)
    return cov


def _require_paths(batch):
    n = batch.n_paths
    if n < 100:
        raise TooFewPaths(f"covariance estimation needs >= 100 paths, got {n}")
    return n


def empirical_cov(batch, i, j):
    """Unbiased sample covariance of grid columns i, j with a jackknife
    standard error.  Needs at least 100 paths."""
    n = _require_paths(batch)
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
    squared centred values.  The centred batch is the only n x m temporary.
    """
    n = _require_paths(batch)
    xc = batch.values - batch.values.mean(axis=0)
    gram = xc.T @ xc
    np.square(xc, out=xc)
    quad = xc.T @ xc
    est = gram / (n - 1)
    c = n / ((n - 1.0) * (n - 2.0))
    spread = np.maximum(quad - gram * gram / n, 0.0)
    se = np.sqrt((n - 1.0) / n * (c * c) * spread)
    return est, se


def covariance_report(model, exp, batch, *, z_bound=4.0):
    """Cross-check a sampled batch against the analytic and series
    covariances.  Returns a JSON-ready dict of named checks."""
    grid = batch.grid
    m = grid.size
    iu, ju = np.triu_indices(m)
    analytic = np.array([analytic_cov(model, grid[i], grid[j]) for i, j in zip(iu, ju)])
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
        series = series_cov_grid(exp, grid)
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


def rate_probe(model, Ns, replicates, grid_resolution, seed):
    """Monte Carlo estimate of E sup_t |B_t - B_t^N| over a geometric ladder
    of truncations, with a common high-truncation reference and coupled
    draws; fits the slope of log(est / sqrt(log N)) against log N.

    The sup over [0, T] is approximated by the max over a uniform grid of
    at least 16 * max(Ns) cells; the residual is band-limited, so the grid
    max converges quickly.
    """
    if model.kind != "fbm":
        raise BadParameter("rate probe is defined for the fractional model")
    Ns = [int(n) for n in Ns]
    if len(Ns) < 2 or any(b <= a for a, b in zip(Ns, Ns[1:])) or Ns[0] < 1:
        raise BadParameter("Ns must be a strictly increasing ladder of length >= 2")
    replicates = int(replicates)
    if replicates < 100:
        raise BadParameter("need at least 100 replicates")
    H = model.hurst
    T = model.horizon_T
    n_ref = 8 * Ns[-1]
    m = max(int(grid_resolution), 16 * Ns[-1])
    series = fbm_coefficients(H, T, n_ref)
    amps = np.sqrt(np.maximum(-series.values[1:] / 2.0, 0.0))
    # the residual beyond N keeps the amplitudes of frequencies k > N only;
    # every residual has truncation n_ref, so all share one stream of draws
    resids = {}
    for n in Ns:
        a = amps.copy()
        a[:n] = 0.0
        resids[n] = SeriesExpansion(
            family="fbm_low", horizon_T=T, period_T=T, truncation_N=n_ref,
            drift_amp=0.0, sin_amp=a, cos_amp=a,
        )
    sups = {n: np.empty(replicates) for n in Ns}

    def block(start, stop, z):
        for n in Ns:
            resid = _engine.fast_values(resids[n], m, z)
            sups[n][start:stop] = np.max(np.abs(resid), axis=1)

    _engine.run_blocks(resids[Ns[0]], replicates, m + 1, seed, 1, block)
    ests = []
    stderrs = []
    for n in Ns:
        vals = sups[n]
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
    if spec.delta >= 1.0:
        raise DeltaOutOfRange(f"reconstruction check needs delta < 1, got {spec.delta}")
    T = spec.horizon_T
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise BadParameter("grid must be a nonempty 1-D array")
    if np.any(np.abs(g) > T * (1.0 + 1e-12)):
        raise BadParameter("grid must lie inside [-T, T]")
    K = int(K)
    if K < 0:
        raise BadParameter("K must be >= 0")
    series = coeffs_quadrature(spec, K)
    a = np.abs(g)
    target = np.empty_like(a)
    pos = a > 0.0
    if np.any(pos):
        target[pos] = spec.evaluate(a[pos])
    target[~pos] = spec.gamma_at_zero
    recon = np.full(a.shape, spec.gamma_at_zero, dtype=float)
    w = math.pi / T
    blk = 1 << 13
    for k0 in range(1, K + 1, blk):
        k1 = min(k0 + blk - 1, K)
        ks = np.arange(k0, k1 + 1, dtype=float)
        recon += (np.cos(np.outer(a, ks * w)) - 1.0) @ series.values[k0 : k1 + 1]
    return float(np.max(np.abs(recon - target)))
