"""Generating-function specs: builtins, admissibility probe, exponent fit."""

import math

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    NonFiniteEvaluation,
    builtin_gamma,
    check_star,
    fit_singularity_exponent,
    negate_spec,
)
from specgauss.gamma import GammaSpec


def test_power2H_evaluates_power_law():
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    t = np.array([0.04, 0.25, 1.0])
    assert np.allclose(spec.evaluate(t), t**0.6, rtol=0, atol=1e-15)
    assert np.allclose(spec.derivative(t), 0.6 * t ** (-0.4), rtol=1e-15)
    assert spec.delta == pytest.approx(0.4)
    assert spec.gamma_at_zero == 0.0
    assert spec.power_exponent == pytest.approx(0.6)


def test_neg_power_matches_second_derivative_of_t2H():
    H = 0.75
    spec = builtin_gamma("neg_power", 1.0, hurst=H)
    t = np.array([0.1, 0.5, 0.9])
    # -(d^2/dt^2) t^(2H) = -2H(2H-1) t^(2H-2)
    expect = -2 * H * (2 * H - 1) * t ** (2 * H - 2)
    assert np.allclose(spec.evaluate(t), expect, rtol=1e-15)
    assert spec.delta == pytest.approx(3 - 2 * H)


def test_linear_and_minus_abs_and_exp_decay_values():
    lin = builtin_gamma("linear", 2.0, slope=3.0)
    assert lin.evaluate(np.array([0.5]))[0] == pytest.approx(1.5)

    neg = builtin_gamma("minus_abs", 2.0)
    assert neg.evaluate(np.array([0.7]))[0] == pytest.approx(-0.7)

    ou = builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)
    assert ou.evaluate(np.array([0.0]))[0] == pytest.approx(2.0)
    assert ou.gamma_at_zero == pytest.approx(2.0)
    assert ou.derivative(np.array([0.0]))[0] == pytest.approx(-4.0)


def test_builtin_rejects_bad_parameters():
    with pytest.raises(BadParameter):
        builtin_gamma("power2H", 1.0, hurst=0.5)
    with pytest.raises(BadParameter):
        builtin_gamma("neg_power", 1.0, hurst=0.3)
    with pytest.raises(BadParameter):
        builtin_gamma("exp_decay", 1.0, theta=-1.0, sigma2=1.0)
    with pytest.raises(BadParameter):
        builtin_gamma("linear", 1.0, slope=0.0)
    with pytest.raises(BadParameter):
        builtin_gamma("no_such_kind", 1.0)
    with pytest.raises(BadParameter):
        builtin_gamma("power2H", -2.0, hurst=0.3)


def test_spec_validation():
    with pytest.raises(BadParameter):
        GammaSpec(evaluate=lambda t: t, derivative=lambda t: t * 0 + 1,
                  delta=2.5, horizon_T=1.0)
    # delta < 1 needs the finite limit at zero
    with pytest.raises(BadParameter):
        GammaSpec(evaluate=lambda t: t, derivative=lambda t: t * 0 + 1,
                  delta=0.0, horizon_T=1.0)


def test_check_star_accepts_admissible_functions():
    for spec in (
        builtin_gamma("power2H", 1.0, hurst=0.2),
        builtin_gamma("neg_power", 1.0, hurst=0.8),
        builtin_gamma("linear", 1.0),
        negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)),
    ):
        rep = check_star(spec)
        assert rep.passed, spec.label
        assert rep.max_derivative_violation <= 1e-9
        assert rep.max_concavity_violation <= 1e-9
        assert np.isfinite(rep.singular_bound_estimate)


def test_check_star_rejects_decreasing_and_convex():
    rep = check_star(builtin_gamma("minus_abs", 1.0))
    assert not rep.passed
    assert rep.max_derivative_violation > 1e-9

    rep = check_star(builtin_gamma("exp_decay", 1.0, theta=1.0, sigma2=1.0))
    assert not rep.passed  # decreasing and convex


def test_check_star_non_finite_evaluation():
    spec = GammaSpec(
        evaluate=lambda t: np.where(t < 0.5, np.nan, t),
        derivative=lambda t: np.ones_like(t),
        delta=0.0, horizon_T=1.0, gamma_at_zero=0.0,
    )
    with pytest.raises(NonFiniteEvaluation):
        check_star(spec)


def test_negate_spec_flips_values_and_keeps_delta():
    spec = builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)
    neg = negate_spec(spec)
    t = np.array([0.2, 0.8])
    assert np.allclose(neg.evaluate(t), -spec.evaluate(t))
    assert np.allclose(neg.derivative(t), -spec.derivative(t))
    assert neg.delta == spec.delta
    assert neg.gamma_at_zero == pytest.approx(-2.0)


def test_fit_singularity_exponent_recovers_delta():
    spec = builtin_gamma("power2H", 1.0, hurst=0.3)
    assert fit_singularity_exponent(spec) == pytest.approx(0.4, abs=1e-6)

    spec_hi = builtin_gamma("neg_power", 1.0, hurst=0.75)
    assert fit_singularity_exponent(spec_hi) == pytest.approx(1.5, abs=1e-6)

    flat = negate_spec(builtin_gamma("exp_decay", 1.0, theta=1.0, sigma2=1.0))
    assert fit_singularity_exponent(flat) == pytest.approx(0.0, abs=1e-3)
