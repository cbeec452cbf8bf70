"""Cosine-coefficient engine for covariance generating functions.

For a generating function g on (0, T] the coefficients are

    c_k = (2/T) * integral_0^T g(t) cos(k pi t / T) dt,   k = 0, 1, 2, ...

Production values come from singularity-aware panel quadrature: an exact
power law is integrated through a shared per-half-period Gauss-Legendre
table of ``v^a cos v`` (O(k_max) work for a whole series), anything else
through per-coefficient half-period panels with geometric refinement toward
the origin.  :func:`oracle_coeff` is an independent brute-force graded
trapezoid used to anchor reference values; it shares no code with the
production route.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import atomic_write_text, check_int, csv_table_text, float_text, read_csv_table
from .errors import (
    BadParameter,
    InsufficientData,
    NonFiniteEvaluation,
    QuadratureNonConvergence,
    SingularityTooStrong,
)

_GL24 = np.polynomial.legendre.leggauss(24)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL12 = np.polynomial.legendre.leggauss(12)
_GL8 = np.polynomial.legendre.leggauss(8)
_GL32 = np.polynomial.legendre.leggauss(32)

_EVAL_CHUNK = 1 << 22
# relative error-bound target per coefficient of the production quadrature
_QUAD_TOL = 1e-11


@dataclass(frozen=True)
class CosineSeries:
    """A finite table c_0..c_k_max of cosine coefficients with error bounds.

    ``values[k]`` holds c_k in the (2/T)-normalization for every k including
    k = 0.  ``has_c0`` is False for series produced by the second-derivative
    transform, whose k = 0 entry is undefined (stored as 0).
    """

    horizon_T: float
    k_max: int
    values: np.ndarray
    method: str
    error_bounds: np.ndarray
    source_label: str = ""
    has_c0: bool = True

    def __post_init__(self):
        object.__setattr__(self, "k_max", check_int(self.k_max, "k_max", 0))
        if not (self.horizon_T > 0):
            raise BadParameter("horizon_T must be positive")
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        b = np.ascontiguousarray(np.asarray(self.error_bounds, dtype=float))
        if v.shape != (self.k_max + 1,) or b.shape != (self.k_max + 1,):
            raise BadParameter("values/error_bounds must have length k_max + 1")
        if not (np.all(np.isfinite(v)) and np.all(np.isfinite(b))):
            raise BadParameter("coefficient entries must be finite")
        v.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "error_bounds", b)

    def to_csv_text(self, comments=()):
        """CSV text ``k,c_k,err_bound`` with shortest round-trip floats."""
        meta = [("T", float_text(self.horizon_T)), ("method", self.method),
                ("has_c0", int(self.has_c0)), ("label", self.source_label)]
        head = [*comments, meta]
        return csv_table_text(
            head, ["k", "c_k", "err_bound"],
            [np.arange(self.k_max + 1), self.values, self.error_bounds],
        )

    def to_csv(self, path, comments=()):
        atomic_write_text(path, self.to_csv_text(comments))

    @classmethod
    def from_csv(cls, path):
        meta, data = read_csv_table(
            path,
            {"T": float, "method": str, "has_c0": lambda v: bool(int(v)), "label": str},
        )
        if data.shape[0] != 3:
            raise BadParameter(f"{path}: {data.shape[0]} columns, expected k,c_k,err_bound")
        ks, values, bounds = data
        if "T" not in meta:
            raise BadParameter(f"{path}: missing T= metadata comment")
        if not np.array_equal(ks, np.arange(ks.size)):
            raise BadParameter(f"{path}: rows must cover k = 0..k_max in order")
        return cls(
            horizon_T=meta["T"],
            k_max=ks.size - 1,
            values=values,
            method=meta.get("method", "quadrature"),
            error_bounds=bounds,
            source_label=meta.get("label", ""),
            has_c0=meta.get("has_c0", True),
        )


# ---------------------------------------------------------------------------
# independent oracle: graded composite trapezoid with mesh doubling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleResult:
    value: float
    converged: bool
    est_error: float
    n_points: int


def _eval_chunked(fn, x):
    if x.size <= _EVAL_CHUNK:
        out = np.asarray(fn(x), dtype=float)
    else:
        out = np.empty_like(x)
        for s in range(0, x.size, _EVAL_CHUNK):
            out[s : s + _EVAL_CHUNK] = fn(x[s : s + _EVAL_CHUNK])
    if not np.all(np.isfinite(out)):
        raise NonFiniteEvaluation("generating function returned non-finite values")
    return out


def _trap(fvals, t):
    dt = np.diff(t)
    return float(np.sum(0.5 * (fvals[1:] + fvals[:-1]) * dt))


def oracle_coeff(spec, T, k, refine_limit=23):
    """Brute-force graded composite trapezoid for a single coefficient.

    The mesh is clustered at the origin via the substitution t = (T/8) u^q
    with q chosen so the leading power t^(1-delta) is resolved, plus a
    uniform mesh on [T/8, T].  The resolution doubles until two successive
    values agree to 1e-10 relative (with unit floor) or the point count
    would exceed 2**refine_limit; the flag reports which happened.

    Deliberately naive: this is the reference implementation the panel
    quadrature is tested against, so it shares no machinery with it.
    """
    if k < 0:
        raise BadParameter("k must be >= 0")
    T = float(T)
    w = k * math.pi / T
    q = max(4.0, 3.0 / max(0.05, 2.0 - spec.delta) + 1.0)
    t_cut = T / 8.0
    singular = spec.delta >= 1.0

    def level_value(n):
        u = np.linspace(0.0, 1.0, n + 1)
        tg = t_cut * u**q
        fg = np.empty_like(tg)
        fg[1:] = _eval_chunked(spec.evaluate, tg[1:]) * np.cos(w * tg[1:])
        first_cell = 0.0
        if singular:
            fg[0] = 0.0
            tm = 0.5 * tg[1]
            first_cell = tg[1] * float(spec.evaluate(np.array([tm]))[0]) * math.cos(w * tm)
            first_cell -= 0.5 * (fg[0] + fg[1]) * tg[1]  # replace the broken trapezoid cell
        else:
            fg[0] = spec.gamma_at_zero
        tu = np.linspace(t_cut, T, 7 * n + 1)
        fu = _eval_chunked(spec.evaluate, tu) * np.cos(w * tu)
        return (2.0 / T) * (_trap(fg, tg) + first_cell + _trap(fu, tu))

    n = max(4096, 1 << int(math.ceil(math.log2(max(2, 4 * max(1, k))))))
    prev = level_value(n)
    converged = False
    diff = math.inf
    while True:
        if 8 * (2 * n) > (1 << refine_limit):
            break
        n *= 2
        cur = level_value(n)
        diff = abs(cur - prev)
        prev = cur
        if diff < 1e-10 * max(1.0, abs(cur)):
            converged = True
            break
    return OracleResult(value=prev, converged=converged, est_error=float(diff), n_points=8 * n + 2)


# ---------------------------------------------------------------------------
# production route 1: exact power laws via a shared panel table
# ---------------------------------------------------------------------------


def _head_integral(a):
    # series for integral_0^1 v^a cos v dv; converges fast for any a > -1
    total = 0.0
    fact = 1.0
    for m in range(0, 24):
        if m > 0:
            fact *= (2 * m - 1) * (2 * m)
        term = 1.0 / (fact * (2 * m + a + 1.0))
        total += term if m % 2 == 0 else -term
        if abs(term) < 1e-20:
            break
    return total


# panel chunk bound keeps the temporaries of _panel_cos_power below ~100 MB
_PANEL_CHUNK = 1 << 16


def _panel_cos_power(a, lo, hi, x, w):
    """Gauss-Legendre integrals of v^a cos v over panels [lo_i, hi_i], 0 < lo_i."""
    out = np.empty(lo.shape[0])
    for start in range(0, lo.shape[0], _PANEL_CHUNK):
        sl = slice(start, min(start + _PANEL_CHUNK, lo.shape[0]))
        mid = 0.5 * (lo[sl] + hi[sl])
        half = 0.5 * (hi[sl] - lo[sl])
        v = mid[:, None] + half[:, None] * x[None, :]
        out[sl] = half * ((v**a * np.cos(v)) @ w)
    return out


def _power_cumulative(a, k_max):
    """G[j] = integral_0^{(j+1)pi} v^a cos v dv for j = 0..k_max-1, with error.

    The error model adds a floor of 16 eps * x^(a+1) at x = (j+1) pi for the
    node-argument rounding of cos at large v, which both embedded rules
    share and their difference therefore cannot see.
    """
    lo = np.pi * np.arange(0, k_max, dtype=float)
    lo[0] = 1.0  # the head [0, 1] is handled analytically
    hi = np.pi * np.arange(1, k_max + 1, dtype=float)
    p_hi = _panel_cos_power(a, lo, hi, *_GL24)
    p_lo = _panel_cos_power(a, lo, hi, *_GL12)
    head = _head_integral(a)
    g = head + np.cumsum(p_hi)
    eps = float(np.finfo(float).eps)
    gerr = (
        np.cumsum(np.abs(p_hi - p_lo))
        + 2.0 * eps * (np.cumsum(np.abs(p_hi)) + abs(head))
        + 48.0 * eps * hi ** (a + 1.0)
    )
    return g, gerr


def power_series_coeffs(amp, exponent, T, k_max, label=None):
    """Coefficient series of amp * t**exponent on (0, T], exponent > -1."""
    if exponent <= -1.0:
        raise SingularityTooStrong(f"t**{exponent} is not integrable at 0")
    k_max = check_int(k_max, "k_max", 0)
    T = float(T)
    values = np.empty(k_max + 1)
    bounds = np.empty(k_max + 1)
    values[0] = amp * 2.0 * T**exponent / (exponent + 1.0)
    bounds[0] = abs(values[0]) * 5e-16
    if k_max >= 1:
        g, gerr = _power_cumulative(exponent, k_max)
        k = np.arange(1, k_max + 1, dtype=float)
        scale = (2.0 / T) * (T / (k * np.pi)) ** (exponent + 1.0)
        values[1:] = amp * scale * g
        bounds[1:] = abs(amp) * scale * (gerr + 1e-15 * (1.0 + np.abs(g)))
    return CosineSeries(
        horizon_T=T,
        k_max=k_max,
        values=values,
        method="quadrature",
        error_bounds=bounds,
        source_label=label or f"power(amp={amp},p={exponent},T={T})",
    )


# ---------------------------------------------------------------------------
# production route 2: generic per-coefficient half-period panels
# ---------------------------------------------------------------------------


def _grade_depth(delta):
    return min(400, int(54.0 / max(0.05, min(1.0, 2.0 - delta))) + 8)


def _generic_edges(T, k, depth):
    if k == 0:
        return T * 2.0 ** (-np.arange(depth, -1.0, -1.0))
    first = (T / k) * 2.0 ** (-np.arange(depth, -1.0, -1.0))
    if k == 1:
        return first
    rest = (T / k) * np.arange(2.0, k + 1.0)
    return np.concatenate([first, rest])


def _generic_coeff(spec, k, depth, gl_hi, gl_lo):
    T = spec.horizon_T
    w = k * math.pi / T
    edges = _generic_edges(T, k, depth)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def panel_sums(x, wt):
        v = mid[:, None] + half[:, None] * x[None, :]
        g = _eval_chunked(spec.evaluate, v.ravel()).reshape(v.shape)
        return half * ((g * np.cos(w * v)) @ wt)

    p_hi = panel_sums(*gl_hi)
    p_lo = panel_sums(*gl_lo)
    # dropped sliver [0, edges[0]] contributes at most ~ |g| * width there
    h0 = edges[0]
    drop = abs(float(spec.evaluate(np.array([h0]))[0])) * h0 * 2.0
    val = (2.0 / T) * float(np.sum(p_hi))
    err = (2.0 / T) * (float(np.sum(np.abs(p_hi - p_lo))) + drop)
    return val, err


def coeffs_quadrature(spec, k_max):
    """Panel quadrature of the coefficient series of ``spec``.

    Exact power laws (``spec.power_amp`` set) ride the shared panel table;
    everything else gets per-coefficient half-period panels, geometrically
    refined toward the origin, with an embedded lower-order rule providing
    the per-entry error bound.  Raises QuadratureNonConvergence when a bound
    stays above ``_QUAD_TOL * max(1, |c_k|)`` after one escalation.
    """
    k_max = check_int(k_max, "k_max", 0)
    if spec.delta >= 2.0:
        raise SingularityTooStrong(f"delta={spec.delta} makes the coefficients divergent")

    if spec.power_amp is not None:
        series = power_series_coeffs(
            spec.power_amp, spec.power_exponent, spec.horizon_T, k_max,
            label=spec.label or None,
        )
        bad = series.error_bounds[1:] > _QUAD_TOL * np.maximum(1.0, np.abs(series.values[1:]))
        if np.any(bad):
            raise QuadratureNonConvergence(
                f"power route bound exceeds tol at k={int(np.argmax(bad)) + 1}"
            )
        return series

    depth = _grade_depth(spec.delta)
    values = np.empty(k_max + 1)
    bounds = np.empty(k_max + 1)
    for k in range(k_max + 1):
        val, err = _generic_coeff(spec, k, depth, _GL16, _GL8)
        if err > _QUAD_TOL * max(1.0, abs(val)):
            val, err = _generic_coeff(spec, k, depth + 120, _GL32, _GL16)
            if err > _QUAD_TOL * max(1.0, abs(val)):
                raise QuadratureNonConvergence(
                    f"error estimate {err:.3e} stalled above tol at k={k}"
                )
        values[k] = val
        bounds[k] = err
    return CosineSeries(
        horizon_T=spec.horizon_T,
        k_max=k_max,
        values=values,
        method="quadrature",
        error_bounds=bounds,
        source_label=spec.label,
    )


# ---------------------------------------------------------------------------
# closed forms for the two worked examples
# ---------------------------------------------------------------------------


def coeffs_closed(model, T, k_max, *, theta=None, sigma2=None):
    """Closed-form coefficient series on the doubled interval (0, 2T].

    ``brownian_example``   : generating function -|t|; c_k = (1-(-1)^k) (2/(k pi))^2 T.
    ``generalized_ou``     : generating function (sigma2/theta) exp(-theta t).
    """
    k_max = check_int(k_max, "k_max", 0)
    if not (T > 0):
        raise BadParameter("T must be positive")
    k = np.arange(0, k_max + 1, dtype=float)
    sign = np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    if model == "brownian_example":
        values = np.empty(k_max + 1)
        values[0] = -2.0 * T
        if k_max >= 1:
            values[1:] = (1.0 - sign[1:]) * (2.0 / (k[1:] * np.pi)) ** 2 * T
        label = f"brownian_example(T={T})"
    elif model == "generalized_ou":
        if theta is None or not (theta > 0):
            raise BadParameter("generalized_ou requires theta > 0")
        if sigma2 is None or not (sigma2 > 0):
            raise BadParameter("generalized_ou requires sigma2 > 0")
        damp = 1.0 / (1.0 + (k * np.pi / (2.0 * theta * T)) ** 2)
        values = (sigma2 / theta) * damp * (1.0 - sign * math.exp(-2.0 * theta * T)) / (theta * T)
        label = f"generalized_ou(theta={theta},sigma2={sigma2},T={T})"
    else:
        raise BadParameter(f"unknown closed-form model {model!r}")
    return CosineSeries(
        horizon_T=2.0 * T,
        k_max=k_max,
        values=values,
        method="closed_form",
        error_bounds=np.abs(values) * 2e-16,
        source_label=label,
    )


def lemma2_transform(series, T):
    """Scale entry k by (T / k pi)^2; the k = 0 entry becomes undefined.

    Turns the coefficient series of the (negated) second derivative into the
    series of the function itself, up to the quadratic correction that the
    construction removes.
    """
    if abs(series.horizon_T - T) > 1e-12 * max(1.0, T):
        raise BadParameter(f"series horizon {series.horizon_T} does not match T={T}")
    k = np.arange(1, series.k_max + 1, dtype=float)
    factor = (T / (k * np.pi)) ** 2
    values = np.zeros(series.k_max + 1)
    bounds = np.zeros(series.k_max + 1)
    values[1:] = series.values[1:] * factor
    bounds[1:] = series.error_bounds[1:] * factor
    return CosineSeries(
        horizon_T=series.horizon_T,
        k_max=series.k_max,
        values=values,
        method="lemma2",
        error_bounds=bounds,
        source_label=f"lemma2({series.source_label})",
        has_c0=False,
    )


def fbm_coefficients(H, T, k_max):
    """The fractional-Brownian coefficient series for either parameter branch.

    H < 1/2: series of t^(2H) directly.  H > 1/2: series of the negated
    second derivative -2H(2H-1) t^(2H-2), passed through the quadratic-
    correction transform.  H = 1/2 is rejected; plain Brownian motion is
    covered by the linear generating function.
    """
    if not (0.0 < H < 1.0) or H == 0.5:
        raise BadParameter("H must lie in (0, 1) with H != 1/2")
    if H < 0.5:
        s = power_series_coeffs(1.0, 2.0 * H, T, k_max, label=f"fbm_low(H={H},T={T})")
        return s
    base = power_series_coeffs(
        -2.0 * H * (2.0 * H - 1.0), 2.0 * H - 2.0, T, k_max,
        label=f"neg_power(H={H},T={T})",
    )
    out = lemma2_transform(base, T)
    return replace(out, source_label=f"fbm_high(H={H},T={T})")


# ---------------------------------------------------------------------------
# decay diagnostics
# ---------------------------------------------------------------------------


def _significant(series, ks):
    """Entries distinguishable from zero: above their own error bound.

    Exact zeros (closed forms) and quadrature noise at parity-suppressed
    frequencies both fall below; a log-log fit through either is garbage.
    """
    vals = np.abs(series.values[ks])
    return vals > series.error_bounds[ks]


def decay_fit(series, k_lo, k_hi):
    """Least-squares slope of log|c_k| against log k on [k_lo, k_hi].

    Entries indistinguishable from zero (at or below their error bound, in
    particular the parity-suppressed ones) are skipped; fewer than 8 usable
    points raises InsufficientData.
    """
    if not (1 <= k_lo < k_hi <= series.k_max):
        raise BadParameter("need 1 <= k_lo < k_hi <= k_max")
    if k_hi < 4 * k_lo:
        raise BadParameter("fit window must span at least a factor of 4")
    ks = np.arange(k_lo, k_hi + 1)
    mask = _significant(series, ks)
    if np.count_nonzero(mask) < 8:
        raise InsufficientData("fewer than 8 significant entries in the fit window")
    vals = np.abs(series.values[ks[mask]])
    slope = np.polyfit(np.log(ks[mask]), np.log(vals), 1)[0]
    return float(slope)


def _tail_extrapolation(series):
    """Estimated sum of |c_k| beyond k_max (power-law fit, safety factor 2).

    The fit skips exact zeros, so its level describes only the nonzero
    entries; the integral is weighted by their density in the fit window
    (1/2 for parity-alternating series).
    """
    k_max = series.k_max
    if k_max < 1:
        return math.inf
    all_ks = np.arange(1, k_max + 1)
    sig = all_ks[_significant(series, all_ks)]
    if sig.size == 0:
        return 0.0
    lo = max(1, k_max // 4)
    density = 1.0
    try:
        p = decay_fit(series, lo, k_max) if k_max >= 4 * lo and k_max > lo else None
    except (InsufficientData, BadParameter):
        p = None
    if p is None:
        p = -1.0
    else:
        window = np.arange(lo, k_max + 1)
        density = np.count_nonzero(_significant(series, window)) / window.size
    if p > -1.05:
        return math.inf  # too flat to integrate; tail unknown
    p = min(-1.0, max(-3.0, p))
    k_a = int(sig[-1])
    c_a = abs(series.values[k_a])
    # integral_{k_max}^inf C x^p dx with C matched at the anchor entry
    est = density * c_a * (k_a ** -p) * (k_max ** (p + 1.0)) / (-(p + 1.0))
    return 2.0 * est


def tail_sum(series, N):
    """Sum of |c_k| for k > N: exact within the table plus an extrapolated
    remainder beyond k_max.  Returns inf when the tail decays too slowly to
    extrapolate."""
    if not (0 <= N <= series.k_max):
        raise BadParameter("need 0 <= N <= k_max")
    computed = float(np.sum(np.abs(series.values[N + 1 :])))
    return computed + _tail_extrapolation(series)
