"""Covariance generating functions and their admissibility check.

A :class:`GammaSpec` wraps a scalar function g on (0, T] together with its
derivative and the exponent ``delta`` of the endpoint singularity of g'
(``g'(x) = O(x^-delta)`` as x -> 0+).  The admissible class consists of
increasing concave functions with ``delta < 2``; :func:`check_star` probes
those properties on a grid clustered at the origin.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._util import check_instance, check_positive, check_real
from .errors import BadParameter, NonFiniteEvaluation


@dataclass(frozen=True)
class GammaSpec:
    """A candidate generating function on (0, horizon_T].

    Parameters
    ----------
    evaluate, derivative : callable
        Vectorized callables mapping a positive float array to an array.
    delta : float
        Singularity exponent of the derivative at 0+, in [0, 2).
    horizon_T : float
        Right end of the domain, > 0.
    label : str
        Human-readable tag used in serialized artifacts.
    gamma_at_zero : float, optional
        Finite limit at 0+.  Required when ``delta < 1`` (the function itself
        stays bounded there); meaningless and unset when ``delta >= 1``.
    power_amp, power_exponent : float, optional
        Set when the function is exactly ``power_amp * t**power_exponent``.
        Enables the closed power-law coefficient route.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    delta: float
    horizon_T: float
    label: str = ""
    gamma_at_zero: Optional[float] = None
    power_amp: Optional[float] = None
    power_exponent: Optional[float] = None

    def __post_init__(self):
        delta = check_real(self.delta, "delta")
        if not (0.0 <= delta < 2.0):
            raise BadParameter(f"delta must lie in [0, 2), got {self.delta}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "horizon_T", check_positive(self.horizon_T, "horizon_T"))
        if self.delta < 1.0 and self.gamma_at_zero is None:
            raise BadParameter("gamma_at_zero is required when delta < 1")
        if (self.power_amp is None) != (self.power_exponent is None):
            raise BadParameter("power_amp and power_exponent must be supplied together")


@dataclass(frozen=True)
class StarReport:
    """Result of the admissibility probe."""

    passed: bool
    max_derivative_violation: float
    max_concavity_violation: float
    singular_bound_estimate: float


def negate_spec(spec):
    """GammaSpec of -g, with metadata negated accordingly."""
    check_instance(spec, GammaSpec, "spec")
    ev, dv = spec.evaluate, spec.derivative
    return GammaSpec(
        evaluate=lambda t: -ev(t),
        derivative=lambda t: -dv(t),
        delta=spec.delta,
        horizon_T=spec.horizon_T,
        label=f"neg({spec.label})" if spec.label else "neg",
        gamma_at_zero=None if spec.gamma_at_zero is None else -spec.gamma_at_zero,
        power_amp=None if spec.power_amp is None else -spec.power_amp,
        power_exponent=spec.power_exponent,
    )


def _power_spec(amp, exponent, delta, T, label, gamma_at_zero=None):
    """GammaSpec of the power law amp * t**exponent, tagged for the closed
    power-law coefficient route."""
    return GammaSpec(
        evaluate=lambda t: amp * np.asarray(t, dtype=float) ** exponent,
        derivative=lambda t: amp * exponent * np.asarray(t, dtype=float) ** (exponent - 1.0),
        delta=delta,
        horizon_T=float(T),
        label=label,
        gamma_at_zero=gamma_at_zero,
        power_amp=amp,
        power_exponent=exponent,
    )


def builtin_gamma(kind, T, *, hurst=None, theta=None, sigma2=None, slope=1.0):
    """Construct one of the built-in generating functions.

    Kinds
    -----
    ``power2H``   : t^(2H) for H in (0, 1/2); delta = 1 - 2H.
    ``neg_power`` : -2H(2H-1) t^(2H-2) for H in (1/2, 1); delta = 3 - 2H.
    ``linear``    : slope * t (slope > 0); delta = 0.
    ``minus_abs`` : -t, the doubled-interval Brownian generator; its negation
                    is the admissible side.  delta = 0.
    ``exp_decay`` : (sigma2/theta) exp(-theta t), the stationary
                    Ornstein-Uhlenbeck kernel; its negation is the admissible
                    side.  delta = 0.
    """
    check_positive(T, "T")
    if kind == "power2H":
        if hurst is None or not (0.0 < hurst < 0.5):
            raise BadParameter("power2H requires hurst in (0, 1/2)")
        return _power_spec(1.0, 2.0 * hurst, 1.0 - 2.0 * hurst, T, f"power2H(H={hurst})", 0.0)
    if kind == "neg_power":
        if hurst is None or not (0.5 < hurst < 1.0):
            raise BadParameter("neg_power requires hurst in (1/2, 1)")
        return _power_spec(-2.0 * hurst * (2.0 * hurst - 1.0), 2.0 * hurst - 2.0, 3.0 - 2.0 * hurst,
                           T, f"neg_power(H={hurst})")
    if kind == "linear":
        if not (slope > 0):
            raise BadParameter("linear requires slope > 0")
        return _power_spec(float(slope), 1.0, 0.0, T, f"linear(slope={slope})", 0.0)
    if kind == "minus_abs":
        return _power_spec(-1.0, 1.0, 0.0, T, "minus_abs", 0.0)
    if kind == "exp_decay":
        if theta is None or not (theta > 0):
            raise BadParameter("exp_decay requires theta > 0")
        if sigma2 is None or not (sigma2 > 0):
            raise BadParameter("exp_decay requires sigma2 > 0")
        scale = sigma2 / theta
        return GammaSpec(
            evaluate=lambda t, s=scale, th=theta: s * np.exp(-th * np.asarray(t, dtype=float)),
            derivative=lambda t, s2=sigma2, th=theta: -s2 * np.exp(-th * np.asarray(t, dtype=float)),
            delta=0.0,
            horizon_T=float(T),
            label=f"exp_decay(theta={theta},sigma2={sigma2})",
            gamma_at_zero=scale,
        )
    raise BadParameter(f"unknown builtin kind {kind!r}")


# largest relative derivative and concavity violation the star probe passes
_STAR_TOL = 1e-9
# points of the star probe's grid
_STAR_POINTS = 1024
# geometric window (x_lo, x_hi, points) of the singularity-exponent fit
_FIT_WINDOW = (1e-8, 1e-4, 64)


def check_star(spec):
    """Probe increasingness, concavity and the derivative's singular bound.

    The probe grid spends ``_STAR_POINTS`` points: a geometric tail T 2^-j,
    j = 1..40, catches the endpoint behaviour, and the rest sample
    [T/2, T] uniformly (T/2 is in both, so the grid keeps one fewer).  Violations are measured relative to the local
    derivative scale so that the huge derivative values near a singular
    origin do not drown the check in rounding noise.  ``passed`` requires
    both violations <= ``_STAR_TOL`` and a finite singular-bound estimate.
    """
    check_instance(spec, GammaSpec, "spec")
    T = spec.horizon_T
    geo = T * 2.0 ** (-np.arange(1.0, 41.0))
    grid = np.unique(np.concatenate([geo, np.linspace(T / 2.0, T, _STAR_POINTS - geo.size)]))
    g = np.asarray(spec.evaluate(grid), dtype=float)
    d = np.asarray(spec.derivative(grid), dtype=float)
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(d))):
        raise NonFiniteEvaluation(f"{spec.label or 'spec'} returned non-finite values on the probe grid")

    scale = np.maximum(1.0, np.abs(d))
    deriv_viol = float(max(0.0, np.max(-d / scale)))

    diffs = np.diff(d)  # must be <= 0 for a concave function
    pair_scale = np.maximum(scale[:-1], scale[1:])
    conc_viol = float(max(0.0, np.max(diffs / pair_scale)))

    # the geometric tail is the grid's head: grid[:geo.size] is geo reversed
    sing = float(np.max(grid[: geo.size] ** spec.delta * d[: geo.size]))

    passed = deriv_viol <= _STAR_TOL and conc_viol <= _STAR_TOL and np.isfinite(sing)
    return StarReport(
        passed=bool(passed),
        max_derivative_violation=deriv_viol,
        max_concavity_violation=conc_viol,
        singular_bound_estimate=sing,
    )


def fit_singularity_exponent(spec):
    """Least-squares slope of log g' against log x on ``_FIT_WINDOW``;
    returns the fitted -slope.

    For an admissible spec this recovers ``delta`` up to grid effects.
    """
    check_instance(spec, GammaSpec, "spec")
    x = np.geomspace(*_FIT_WINDOW)
    d = np.asarray(spec.derivative(x), dtype=float)
    if np.any(~np.isfinite(d)) or np.any(d <= 0):
        raise NonFiniteEvaluation("derivative must be positive finite on the fit window")
    slope = np.polyfit(np.log(x), np.log(d), 1)[0]
    return -float(slope)
