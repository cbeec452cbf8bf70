"""Cosine-coefficient engine for covariance generating functions.

For a generating function g on (0, T] the coefficients are

    c_k = (2/T) * integral_0^T g(t) cos(k pi t / T) dt,   k = 0, 1, 2, ...

An exact power law amp * t^a, -1 < a < 5, has two routes.  Entries
k <= ``_K0`` come from a shared per-half-period Gauss-Legendre table of
``v^a cos v``.  Above ``_K0`` each entry is evaluated in closed form from
the integration-by-parts expansion of its Fourier integral, whose remainder
is bounded rigorously.  Such a series records its power law, so
:func:`tail_sum` sums its tail exactly from the same expansion with Hurwitz
zeta values.  Any other generating function is integrated on one mesh
shared by every k, N uniform panels with the first graded toward the
origin, g evaluated once per node and the oscillatory sums taken by FFT in
O(N log N); its tail beyond the table is extrapolated from a fitted decay.
Either way :func:`tail_sum` is defined at every N >= 0, which is what
:func:`specgauss.expansion.truncation_for_tolerance` searches.
:func:`oracle_coeff` is an independent brute-force graded trapezoid used to
anchor reference values; it shares no code with the production routes.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ._util import (
    atomic_write_text,
    check_instance,
    check_int,
    check_positive,
    check_real,
    csv_table_text,
    float_text,
    read_csv_table,
)
from .errors import (
    BadParameter,
    InsufficientData,
    NonFiniteEvaluation,
    QuadratureNonConvergence,
    SingularityTooStrong,
)
from .gamma import GammaSpec

_GL24 = np.polynomial.legendre.leggauss(24)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL12 = np.polynomial.legendre.leggauss(12)
_GL8 = np.polynomial.legendre.leggauss(8)
_GL32 = np.polynomial.legendre.leggauss(32)

_EVAL_CHUNK = 1 << 22
# relative error-bound target per coefficient of the production quadrature
_QUAD_TOL = 1e-11
# entries of an exact power law above this index are closed-form
_K0 = 128
# the closed form and the exact tail hold for exponents in this open interval
_ASYMPTOTIC_EXPONENTS = (-1.0, 5.0)
_EPS = float(np.finfo(float).eps)


def _flag(text):
    return bool(int(text))


@dataclass(frozen=True)
class CosineSeries:
    """A finite table c_0..c_k_max of cosine coefficients with error bounds.

    ``values[k]`` holds c_k in the (2/T)-normalization for every k including
    k = 0.  ``has_c0`` is False for series produced by the second-derivative
    transform, whose k = 0 entry is undefined (stored as 0).
    ``power_law`` is ``(amp, exponent, lifted)`` when the entries are those
    of amp * t^exponent, times (T / k pi)^2 when ``lifted``; it is the tail
    rule :func:`tail_sum` sums beyond the table.
    """

    horizon_T: float
    k_max: int
    values: np.ndarray
    method: str
    error_bounds: np.ndarray
    source_label: str = ""
    has_c0: bool = True
    power_law: Optional[Tuple[float, float, bool]] = None

    def __post_init__(self):
        object.__setattr__(self, "k_max", check_int(self.k_max, "k_max", 0))
        object.__setattr__(self, "horizon_T", check_positive(self.horizon_T, "horizon_T"))
        if self.power_law is not None:
            amp, exponent, lifted = self.power_law
            amp = check_real(amp, "power_law amp")
            exponent = check_real(exponent, "power_law exponent")
            lo, hi = _ASYMPTOTIC_EXPONENTS
            if not (math.isfinite(amp) and lo < exponent < hi
                    and isinstance(lifted, (bool, np.bool_))):
                raise BadParameter(
                    f"power_law must be (finite amp, exponent in ({lo}, {hi}), bool)"
                )
            object.__setattr__(self, "power_law", (amp, exponent, bool(lifted)))
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
        if self.power_law is not None:
            amp, exponent, lifted = self.power_law
            meta += [("power_amp", float_text(amp)), ("power_exponent", float_text(exponent)),
                     ("power_lifted", int(lifted))]
        head = [*comments, meta]
        return csv_table_text(
            head, ["k", "c_k", "err_bound"],
            [np.arange(self.k_max + 1), self.values, self.error_bounds],
        )

    def to_csv(self, path, comments=()):
        atomic_write_text(path, self.to_csv_text(comments))

    @classmethod
    def from_csv(cls, path):
        """Read a table written by :meth:`to_csv`; a table without the
        power-law tokens reads back with no tail rule."""
        meta, data = read_csv_table(
            path,
            {"T": float, "method": str, "has_c0": _flag, "label": str,
             "power_amp": float, "power_exponent": float, "power_lifted": _flag},
        )
        if data.shape[0] != 3:
            raise BadParameter(f"{path}: {data.shape[0]} columns, expected k,c_k,err_bound")
        ks, values, bounds = data
        if "T" not in meta:
            raise BadParameter(f"{path}: missing T= metadata comment")
        if not np.array_equal(ks, np.arange(ks.size)):
            raise BadParameter(f"{path}: rows must cover k = 0..k_max in order")
        keys = ("power_amp", "power_exponent", "power_lifted")
        power = [meta[key] for key in keys if key in meta]
        if len(power) not in (0, 3):
            raise BadParameter(f"{path}: power_amp, power_exponent and power_lifted go together")
        return cls(
            horizon_T=meta["T"],
            k_max=ks.size - 1,
            values=values,
            method=meta.get("method", "quadrature"),
            error_bounds=bounds,
            source_label=meta.get("label", ""),
            has_c0=meta.get("has_c0", True),
            power_law=tuple(power) or None,
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
    check_instance(spec, GammaSpec, "spec")
    k = check_int(k, "k", 0)
    T = check_positive(T, "T")
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


def _panel_cos_power(a, lo, hi, x, w):
    """Gauss-Legendre integrals of v^a cos v over panels [lo_i, hi_i], 0 < lo_i."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    v = mid[:, None] + half[:, None] * x[None, :]
    return half * ((v**a * np.cos(v)) @ w)


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


def _asymptotic_terms(a):
    """The expansion of G(X) = integral_0^X v^a cos v dv at X = k pi.

    Integrating by parts (Erdelyi, Asymptotic Expansions, 1956, 2.8),

        G(k pi) = C + (-1)^k (a X^(a-1) - a(a-1)(a-2) X^(a-3)
                      + a(a-1)(a-2)(a-3)(a-4) X^(a-5)) + R,
        C = -Gamma(a+1) sin(pi a / 2),
        R = a(a-1)...(a-5) integral_X^inf v^(a-6) cos v dv.

    For -1 < a < 5, v^(a-6) decreases to 0, so the second mean value
    theorem gives |R| <= |a(a-1)...(a-5)| X^(a-6); the bound used is twice
    that.  Returns ``(C, alternating, remainder, Gamma(a+1))`` with the
    three alternating coefficients in the order of the powers above.
    """
    falling = [1.0]  # falling[j] = a (a-1) ... (a-j+1)
    for j in range(6):
        falling.append(falling[-1] * (a - j))
    gamma = math.gamma(a + 1.0)
    c_inf = -gamma * math.sin(math.pi * a / 2.0)
    return c_inf, (falling[1], -falling[3], falling[5]), 2.0 * abs(falling[6]), gamma


def _asymptotic_entries(amp, a, T, k_lo, values, bounds):
    """Closed-form c_k of amp * t^a for k >= k_lo, written into ``values[k_lo:]``
    and ``bounds[k_lo:]``.

    With X = k pi, c_k = amp (2/T) (T/X)^(a+1) G(X) is

        A (C X^-(a+1) + (-1)^k (b1 X^-2 + b3 X^-4 + b5 X^-6)) + A R X^-(a+1),

    A = 2 amp T^a, so one power per entry suffices, and the remainder term is
    at most |A| r X^-7.  When r = 0 (a in {0, ..., 4}) X^-(a+1) is a power of
    the alternating terms' X^-2, so the even k of t^1 come out exactly 0.
    The bound adds the remainder to a rounding term: 16 eps (2 + |a|) on
    Gamma(a+1) X^-(a+1) for Gamma, the sine, the power and the rounding of
    X; 8 eps on the alternating terms; 4 eps of the entry.
    Every temporary is one array of the entries' length, three at most.
    """
    c_inf, (b1, b3, b5), rem, gamma = _asymptotic_terms(a)
    scale = 2.0 * amp * T**a
    vals, bnd = values[k_lo:], bounds[k_lo:]
    x = np.arange(k_lo, k_lo + vals.size, dtype=float)
    x *= np.pi
    w = x * x
    np.reciprocal(w, out=w)
    q = w ** ((a + 1.0) / 2.0) if rem == 0.0 else x ** -(a + 1.0)
    # alternating part and its absolute sum, by Horner in X^-2
    np.multiply(w, b5, out=vals)
    vals += b3
    vals *= w
    vals += b1
    vals *= w
    vals[(k_lo + 1) % 2 :: 2] *= -1.0
    np.multiply(w, abs(b5), out=bnd)
    bnd += abs(b3)
    bnd *= w
    bnd += abs(b1)
    bnd *= w
    bnd *= 8.0 * _EPS
    # remainder r X^-7 = r w^3 / X, in the storage of X
    np.divide(w, x, out=x)
    x *= w
    x *= w
    x *= rem
    bnd += x
    np.multiply(q, c_inf, out=w)
    vals += w
    q *= 16.0 * _EPS * (2.0 + abs(a)) * gamma
    bnd += q
    vals *= scale
    bnd *= abs(scale)
    np.abs(vals, out=q)
    q *= 4.0 * _EPS
    bnd += q


def power_series_coeffs(amp, exponent, T, k_max, label=None):
    """Coefficient series of amp * t**exponent on (0, T], -1 < exponent < 5.

    Entries k <= ``_K0`` come from the panel table of ``v^a cos v``; entries
    above are closed-form (see :func:`_asymptotic_entries`), each bounded by
    the expansion's remainder plus its rounding.  Exponents 0 .. 4, where
    the expansion terminates, are closed-form from k = 1.  The series
    records its power law, so :func:`tail_sum` is exact at every N.  An
    exponent at or below -1 raises SingularityTooStrong, one at or above 5
    (where the expansion's remainder bound fails) BadParameter.
    """
    amp = check_real(amp, "amp")
    exponent = check_real(exponent, "exponent")
    if not (math.isfinite(amp) and math.isfinite(exponent)):
        raise BadParameter(f"amp and exponent must be finite, got {amp!r}, {exponent!r}")
    if exponent <= -1.0:
        raise SingularityTooStrong(f"t**{exponent} is not integrable at 0")
    if exponent >= _ASYMPTOTIC_EXPONENTS[1]:
        raise BadParameter(f"t**{exponent}: power-law exponents must be below 5")
    k_max = check_int(k_max, "k_max", 0)
    T = check_positive(T, "T")
    # a terminating expansion (zero remainder) is exact from k = 1
    k_head = 0 if _asymptotic_terms(exponent)[2] == 0.0 else min(k_max, _K0)
    values = np.empty(k_max + 1)
    bounds = np.empty(k_max + 1)
    values[0] = amp * 2.0 * T**exponent / (exponent + 1.0)
    bounds[0] = abs(values[0]) * 5e-16
    if k_head >= 1:
        g, gerr = _power_cumulative(exponent, k_head)
        k = np.arange(1, k_head + 1, dtype=float)
        scale = (2.0 / T) * (T / (k * np.pi)) ** (exponent + 1.0)
        values[1 : k_head + 1] = amp * scale * g
        bounds[1 : k_head + 1] = abs(amp) * scale * (gerr + 1e-15 * (1.0 + np.abs(g)))
    if k_max > k_head:
        _asymptotic_entries(amp, exponent, T, k_head + 1, values, bounds)
    return CosineSeries(
        horizon_T=T,
        k_max=k_max,
        values=values,
        method=("quadrature" if k_max <= k_head else "quadrature+asymptotic" if k_head
                else "asymptotic"),
        error_bounds=bounds,
        source_label=label or f"power(amp={amp},p={exponent},T={T})",
        power_law=(amp, exponent, False),
    )


# ---------------------------------------------------------------------------
# production route 2: generic g on one shared mesh, oscillatory sums by FFT
# ---------------------------------------------------------------------------

# even Taylor terms of cos on the graded panels, where the phase is at most
# pi; the first one omitted, pi^36 / 36!, is below 3e-24
_TAYLOR_TERMS = 18


def _grade_depth(delta):
    return min(400, int(54.0 / max(0.05, min(1.0, 2.0 - delta))) + 8)


def _mesh_sums(spec, n, depth, x, w):
    """One Gauss-Legendre rule (nodes ``x``, weights ``w`` on [-1, 1]) on the
    mesh of n panels of width h = T/n, in units of h.

    Returns S[k] = sum over the nodes y of w g(y h) cos(phi_k y), phi_k =
    pi k / n, for k = 0..n, so that (2/n) S[k] is c_k on [h 2^-depth, T];
    and the absolute sums of w g over the uniform and the graded panels.

    The panels [j, j + 1], j = 1..n-1, are uniform: node j + s carries the
    phase e^(i phi_k j) e^(i phi_k s), so the row of one node is one real
    FFT of length 2n and one phase per k.  The panels [2^-(m+1), 2^-m],
    m < depth, grade (0, 1] toward the origin; there phi_k y <= pi, so cos
    is its even Taylor series, whose moments sum w g y^2m once, and one
    Horner pass in phi_k^2 takes them to every k.
    """
    h = spec.horizon_T / n
    s = 0.5 * (x + 1.0)
    half = 0.5 * w
    k = np.arange(n + 1, dtype=float)
    edges = 2.0 ** -np.arange(depth, -1.0, -1.0)
    width = np.diff(edges)
    y = edges[:-1, None] + width[:, None] * s
    wg = _eval_chunked(spec.evaluate, (y * h).ravel()).reshape(y.shape)
    wg *= width[:, None] * half
    graded_abs = float(np.sum(np.abs(wg)))
    y *= y
    moments = []
    for _ in range(_TAYLOR_TERMS):
        moments.append(float(np.sum(wg)))
        wg *= y
    u = k * (np.pi / n)
    u *= u
    total = np.full(n + 1, moments[-1])
    for m in range(_TAYLOR_TERMS - 2, -1, -1):
        total *= u
        total *= -1.0 / ((2 * m + 1) * (2 * m + 2))
        total += moments[m]
    uniform_abs = 0.0
    if n > 1:
        rows = np.arange(1.0, n)
        for node, weight in zip(s.tolist(), half.tolist()):
            # the row of panels 1..n-1, from index 0: its phase is phi_k (1 + s)
            a = _eval_chunked(spec.evaluate, (rows + node) * h)
            a *= weight
            uniform_abs += float(np.sum(np.abs(a)))
            f = np.fft.rfft(a, 2 * n)
            np.multiply(k, np.pi * (1.0 + node) / n, out=u)
            # Re(e^(i theta) conj(f)) = cos(theta) Re f + sin(theta) Im f
            part = np.cos(u)
            part *= f.real
            total += part
            np.sin(u, out=part)
            part *= f.imag
            total += part
    return total, uniform_abs, graded_abs


def _generic_series(spec, k_max, depth, gl_hi, gl_lo):
    """c_0..c_k_max of ``spec`` from one rule pair on the mesh of n =
    max(1, k_max) panels (:func:`_mesh_sums`), with two parts of their
    bounds: the discretization error and the rounding.

    The discretization error of an entry is (2/T) times the rules' gap plus
    the dropped sliver (0, t0], t0 = h 2^-depth, where g ~ t^(1 - delta)
    integrates to |g(t0)| t0 / (2 - delta), taken at least twice over.  The
    rounding, one number for all entries, is 16 eps per FFT pass plus eps
    per node row and 4 eps for g on the absolute sum of the uniform panels,
    and 2 eps per Taylor term on the graded panels' absolute sum times
    cosh(pi), which bounds the Taylor terms' magnitudes.
    """
    T = spec.horizon_T
    n = max(1, k_max)
    hi, uniform_abs, graded_abs = _mesh_sums(spec, n, depth, *gl_hi)
    lo = _mesh_sums(spec, n, depth, *gl_lo)[0]
    h0 = (T / n) * 2.0**-depth
    sliver = abs(float(spec.evaluate(np.array([h0]))[0])) * h0 * 2.0 / min(1.0, 2.0 - spec.delta)
    rounding = _EPS * (
        uniform_abs * (16.0 * math.log2(2 * n) + gl_hi[0].size + 4.0)
        + graded_abs * math.cosh(math.pi) * 2.0 * _TAYLOR_TERMS
    )
    error = np.abs(hi - lo)[: k_max + 1]
    error *= 2.0 / n
    error += (2.0 / T) * sliver
    values = hi[: k_max + 1]
    values *= 2.0 / n
    return values, error, (2.0 / n) * rounding


def coeffs_quadrature(spec, k_max):
    """Panel quadrature of the coefficient series of ``spec``.

    Exact power laws (``spec.power_amp`` set) go to
    :func:`power_series_coeffs`, which takes exponents in (-1, 5) and
    states each entry's bound; its table is returned as it is.
    Everything else is integrated on one mesh shared by all k: n =
    max(1, k_max) uniform panels of width h = T/n, the first one graded
    geometrically toward the origin, 16-point Gauss-Legendre with the
    8-point rule beside it for the per-entry bound.  g is evaluated once
    per node and the oscillatory sums come out of one FFT per node row, in
    O(k_max log k_max) time and O(k_max) memory (:func:`_mesh_sums`).  An
    entry's bound is its discretization error, the rules' gap and the
    dropped sliver, plus the rounding (:func:`_generic_series`).  When a
    discretization error is above ``_QUAD_TOL * max(1, |c_k|)`` the mesh
    escalates once, to 32/16 points and 120 more graded panels; one still
    above raises QuadratureNonConvergence.  The rounding, which scales with
    |g| and no escalation reduces, only widens the bounds.
    """
    check_instance(spec, GammaSpec, "spec")
    k_max = check_int(k_max, "k_max", 0)
    if spec.power_amp is not None:
        return power_series_coeffs(
            spec.power_amp, spec.power_exponent, spec.horizon_T, k_max,
            label=spec.label or None,
        )

    depth = _grade_depth(spec.delta)
    values, error, rounding = _generic_series(spec, k_max, depth, _GL16, _GL8)
    bad = error > _QUAD_TOL * np.maximum(1.0, np.abs(values))
    if np.any(bad):
        values, error, rounding = _generic_series(spec, k_max, depth + 120, _GL32, _GL16)
        bad = error > _QUAD_TOL * np.maximum(1.0, np.abs(values))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise QuadratureNonConvergence(
                f"error estimate {error[k]:.3e} stalled above tol at k={k}"
            )
    error += rounding
    return CosineSeries(
        horizon_T=spec.horizon_T,
        k_max=k_max,
        values=values,
        method="quadrature",
        error_bounds=error,
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
    check_positive(T, "T")  # T, theta and sigma2 stay as given: they spell the label
    k = np.arange(0, k_max + 1, dtype=float)
    sign = np.where(np.arange(k_max + 1) % 2 == 0, 1.0, -1.0)
    if model == "brownian_example":
        values = np.empty(k_max + 1)
        values[0] = -2.0 * T
        if k_max >= 1:
            values[1:] = (1.0 - sign[1:]) * (2.0 / (k[1:] * np.pi)) ** 2 * T
        label = f"brownian_example(T={T})"
    elif model == "generalized_ou":
        check_positive(theta, "generalized_ou theta")
        check_positive(sigma2, "generalized_ou sigma2")
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


def lemma2_transform(series):
    """Scale entry k by (T / k pi)^2, T the series' horizon; the k = 0 entry
    becomes undefined.

    Turns the coefficient series of the (negated) second derivative into the
    series of the function itself, up to the quadratic correction that the
    construction removes.  A power-law series keeps its power law, lifted.
    """
    check_instance(series, CosineSeries, "series")
    factor = np.arange(1, series.k_max + 1, dtype=float)
    factor *= np.pi
    np.divide(series.horizon_T, factor, out=factor)
    np.square(factor, out=factor)
    values = np.zeros(series.k_max + 1)
    bounds = np.zeros(series.k_max + 1)
    np.multiply(series.values[1:], factor, out=values[1:])
    np.multiply(series.error_bounds[1:], factor, out=bounds[1:])
    law = series.power_law
    return CosineSeries(
        horizon_T=series.horizon_T,
        k_max=series.k_max,
        values=values,
        method="lemma2",
        error_bounds=bounds,
        source_label=f"lemma2({series.source_label})",
        has_c0=False,
        # a twice-lifted law has no tail rule
        power_law=None if law is None or law[2] else (law[0], law[1], True),
    )


def fbm_coefficients(H, T, k_max):
    """The fractional-Brownian coefficient series for either parameter branch.

    H < 1/2: series of t^(2H) directly.  H > 1/2: series of the negated
    second derivative -2H(2H-1) t^(2H-2), passed through the quadratic-
    correction transform.  H = 1/2 is rejected; plain Brownian motion is
    covered by the linear generating function.
    """
    H = check_real(H, "H")
    if not (0.0 < H < 1.0) or H == 0.5:
        raise BadParameter("H must lie in (0, 1) with H != 1/2")
    if H < 0.5:
        s = power_series_coeffs(1.0, 2.0 * H, T, k_max, label=f"fbm_low(H={H},T={T})")
        return s
    base = power_series_coeffs(
        -2.0 * H * (2.0 * H - 1.0), 2.0 * H - 2.0, T, k_max,
        label=f"neg_power(H={H},T={T})",
    )
    out = lemma2_transform(base)
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
    check_instance(series, CosineSeries, "series")
    k_lo, k_hi = check_int(k_lo, "k_lo", 1), check_int(k_hi, "k_hi", 1)
    if not (k_lo < k_hi <= series.k_max):
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


def _tail_extrapolation(series, m):
    """Estimated sum of |c_k| beyond m >= k_max (power-law fit, safety
    factor 2), the fitted decay integrated from m.

    The fit skips exact zeros, so its level describes only the nonzero
    entries; the integral is weighted by their density in the fit window
    (1/2 for parity-alternating series).  The level is anchored at the
    larger of the last two significant entries' levels, so that a series
    whose odd and even entries decay on different levels is bounded by the
    upper one whatever the parity of k_max.
    """
    k_max = series.k_max
    if k_max < 1:
        return math.inf
    all_ks = np.arange(1, k_max + 1)
    sig = all_ks[_significant(series, all_ks)]
    if sig.size == 0:
        return 0.0
    lo = max(1, k_max // 4)
    try:
        p = decay_fit(series, lo, k_max)
    except (InsufficientData, BadParameter):
        return math.inf  # too few entries to fit; tail unknown
    if p > -1.05:
        return math.inf  # too flat to integrate; tail unknown
    p = max(-3.0, p)
    window = np.arange(lo, k_max + 1)
    density = np.count_nonzero(_significant(series, window)) / window.size
    # a parity-alternating series decays on two levels and the fit lands
    # between them, so C is matched at whichever of the last two significant
    # entries implies the larger level |c_k| k^-p
    level = max(abs(series.values[k]) * k**-p for k in sig[-2:].tolist())
    # integral_m^inf C x^p dx
    est = density * level * (m ** (p + 1.0)) / (-(p + 1.0))
    return 2.0 * est


# B_2j / (2j)! for j = 1..8, the Euler-Maclaurin correction coefficients
_EM_COEFFS = (
    1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0, 1.0 / 47900160.0,
    -691.0 / 1307674368000.0, 1.0 / 74724249600.0, -3617.0 / 10670622842880000.0,
)
# terms summed directly before the Euler-Maclaurin tail takes over at q + n
_EM_START = 20.0


def _hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{j>=0} (q + j)^-s for 1 < s <= 10, q > 0.

    Direct terms up to q + n >= 20, then the Euler-Maclaurin formula with
    eight Bernoulli corrections (Johansson, Numer. Algorithms 69, 2015); the
    first omitted correction is below 1e-15 of the result.  Summed with
    ``math.fsum``.
    """
    n = max(0, math.ceil(_EM_START - q))
    x = q + n
    terms = [(q + j) ** -s for j in range(n)]
    terms += [x ** (1.0 - s) / (s - 1.0), 0.5 * x**-s]
    rising = s * x ** (-s - 1.0)  # s (s+1) ... (s+2j-2) x^(-s-2j+1)
    for j, coeff in enumerate(_EM_COEFFS):
        terms.append(coeff * rising)
        rising *= (s + 2 * j + 1.0) * (s + 2 * j + 2.0) / (x * x)
    return math.fsum(terms)


def _power_tail(series, m):
    """Upper bound on sum_{k>m} |c_k| for a series that records its power law.

    Past the table every c_k is A (sum_i alpha_i k^-s_i + R_k) with the
    expansion's terms (:func:`_asymptotic_terms`), |R_k| <= rho k^-s_R, and
    (-1)^k fixed on each parity class.  On a class k = k0 + 2j each power
    sums to 2^-s zeta(s, k0 / 2).  When the slowest term outweighs all the
    others plus the remainder at k0 (so at every later k) the class keeps
    one sign and its sum is |sum_i alpha_i Z_i|; otherwise the bound is
    sum_i |alpha_i| Z_i.  Every class adds rho Z_R and a rounding allowance
    of 64 eps (3 + |a|) times its absolute terms and Gamma(a+1)'s.  Returns
    inf when a term decays no faster than 1/k.
    """
    amp, a, lifted = series.power_law
    T = series.horizon_T
    c_inf, alternating, rem, gamma = _asymptotic_terms(a)
    lift = 2.0 if lifted else 0.0
    scale = abs(2.0 * amp * T**a * (T * T if lifted else 1.0))
    s_inf, s_rem = a + 1.0 + lift, 7.0 + lift
    rho = rem * math.pi**-s_rem
    total = 0.0
    for k0 in (m + 1, m + 2):
        sign = 1.0 if k0 % 2 == 0 else -1.0
        coeffs = {s_inf: c_inf}
        for j, b in enumerate(alternating):
            s = 2.0 * j + 2.0 + lift
            coeffs[s] = coeffs.get(s, 0.0) + sign * b
        terms = sorted((s, c * math.pi**-s) for s, c in coeffs.items() if c != 0.0)
        if terms and terms[0][0] <= 1.0:
            return math.inf
        # C = 0 exactly when s_inf <= 1 here (a = 0); then it carries no rounding
        z = {s: 2.0**-s * _hurwitz_zeta(s, k0 / 2.0) for s in {*coeffs, s_rem} if s > 1.0}
        sums = [c * z[s] for s, c in terms]
        lead = abs(terms[0][1]) * k0 ** -terms[0][0] if terms else 0.0
        rest = sum(abs(c) * k0**-s for s, c in terms[1:]) + rho * k0**-s_rem
        magnitude = math.fsum(map(abs, sums))
        total += abs(math.fsum(sums)) if lead > 1.001 * rest else magnitude
        magnitude += gamma * math.pi**-s_inf * z.get(s_inf, 0.0)
        total += rho * z[s_rem] + 64.0 * _EPS * (3.0 + abs(a)) * magnitude
    return scale * total


def tail_sum(series, N):
    """Sum of |c_k| for k > N, as an upper bound.

    For a series that records its power law (``series.power_law``) the sum
    is exact: entries up to min(k_max, ``_K0``) are summed from the table
    with their error bounds, and everything beyond from the closed-form
    expansion with Hurwitz zeta values (:func:`_power_tail`), rounded up.
    For any other series the table beyond N is summed, and the rest beyond
    max(N, k_max) is the power law fitted to the table's last quarter,
    integrated with a safety factor of 2; inf when that quarter holds too
    few significant entries to fit, or the tail decays too slowly to
    extrapolate.  Either way any N >= 0 is accepted, and the sum
    is nonincreasing in N up to the rounding of the table's sum.
    """
    check_instance(series, CosineSeries, "series")
    N = check_int(N, "N", 0)
    if series.power_law is None:
        computed = float(np.sum(np.abs(series.values[N + 1 :])))
        return computed + _tail_extrapolation(series, max(N, series.k_max))
    m = max(N, min(series.k_max, _K0))
    head = math.fsum(np.abs(series.values[N + 1 : m + 1])) + math.fsum(
        series.error_bounds[N + 1 : m + 1]
    )
    return (head + _power_tail(series, m)) * (1.0 + 4.0 * _EPS)
