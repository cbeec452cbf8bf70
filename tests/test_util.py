"""Shared helpers: the integer check at every size, count, seed and index
argument, the real and array checks at every scalar parameter and array
input, and the one CSV table format."""

import dataclasses
import math

import numpy as np
import pytest

from specgauss import (
    BadParameter,
    CovModel,
    GammaSpec,
    NegativeC0,
    NonFiniteEvaluation,
    Quantizer1D,
    SingularityTooStrong,
    TailEstimateUnavailable,
    aliased_expansion,
    allocate_levels,
    analytic_cov,
    build_fbm,
    build_generalized_ou,
    build_type_a,
    build_type_b,
    build_type_c,
    builtin_gamma,
    check_star,
    coeffs_closed,
    coeffs_quadrature,
    covariance_report,
    decay_fit,
    distortion_mc,
    empirical_cov,
    empirical_cov_grid,
    fbm_coefficients,
    fit_singularity_exponent,
    gauss1d_quantizer,
    gram_matrix,
    kl_reduce,
    lemma1_check,
    lemma2_transform,
    negate_spec,
    oracle_coeff,
    power_series_coeffs,
    product_quantizer,
    rate_probe,
    sample_paths,
    sample_paths_fast,
    series_cov,
    series_cov_grid,
    series_cov_uniform,
    series_var_uniform,
    tail_sum,
    truncation_for_tolerance,
)
from specgauss._util import check_real, csv_table_text, read_csv_table
from specgauss.expansion import PathBatch, SeriesExpansion
from specgauss.fourier import CosineSeries

_FBM = build_fbm(0.3, 1.0, 16, fbm_coefficients(0.3, 1.0, 16))
_LINEAR = builtin_gamma("linear", 1.0, slope=1.0)
_MU = np.array([1.0, 0.5, 0.25])
_SERIES = fbm_coefficients(0.3, 1.0, 512)

# (entry point taking the integer argument alone, its minimum or None)
_INTEGER_ARGS = {
    "build_fbm-N": (lambda v: build_fbm(0.3, 1.0, v, fbm_coefficients(0.3, 1.0, 16)), 0),
    "sample_paths_fast-M": (lambda v: sample_paths_fast(_FBM, v, 2, 1), 1),
    "sample_paths_fast-n_paths": (lambda v: sample_paths_fast(_FBM, 8, v, 1), 1),
    "sample_paths_fast-seed": (lambda v: sample_paths_fast(_FBM, 8, 2, v), None),
    "sample_paths_fast-threads": (lambda v: sample_paths_fast(_FBM, 8, 2, 1, threads=v), 1),
    "gauss1d_quantizer-n": (gauss1d_quantizer, 1),
    "kl_reduce-m": (lambda v: kl_reduce(_FBM, v), 1),
    "lemma1_check-K": (lambda v: lemma1_check(_LINEAR, v, np.linspace(0.0, 1.0, 5)), 0),
    "allocate_levels-budget": (lambda v: allocate_levels(_MU, v), 1),
    "coeffs_quadrature-k_max": (lambda v: coeffs_quadrature(_LINEAR, v), 0),
    "power_series_coeffs-k_max": (lambda v: power_series_coeffs(1.0, 0.6, 1.0, v), 0),
    "coeffs_closed-k_max": (lambda v: coeffs_closed("brownian_example", 1.0, v), 0),
    "fbm_coefficients-k_max": (lambda v: fbm_coefficients(0.3, 1.0, v), 0),
    "tail_sum-N": (lambda v: tail_sum(_SERIES, v), 0),
    "decay_fit-k_lo": (lambda v: decay_fit(_SERIES, v, 512), 1),
    "CosineSeries-k_max": (lambda v: CosineSeries(1.0, v, np.zeros(2), "x", np.zeros(2)), 0),
    "SeriesExpansion-truncation_N": (
        lambda v: SeriesExpansion("fbm_low", 1.0, v, 0.0, np.ones(1)), 0
    ),
    "PathBatch-seed": (lambda v: PathBatch(np.zeros(1), np.zeros((1, 1)), v), None),
    "PathBatch-truncation_N": (
        lambda v: PathBatch(np.zeros(1), np.zeros((1, 1)), 0, truncation_N=v), 0
    ),
}


# integer arguments that may be left unset (None)
_OPTIONAL = {"sample_paths_fast-threads"}


def _bad_integers():
    for name, (_, minimum) in sorted(_INTEGER_ARGS.items()):
        bads = [8.7, math.nan, True] + ([] if name in _OPTIONAL else [None])
        bads += [] if minimum is None else [minimum - 1]
        for bad in bads:
            yield pytest.param(name, bad, id=f"{name}-{bad}")


@pytest.mark.parametrize("name, bad", _bad_integers())
def test_sizes_counts_and_seeds_must_be_integers(name, bad):
    call, minimum = _INTEGER_ARGS[name]
    with pytest.raises(BadParameter, match="must be an integer"):
        call(bad)
    # the same entry point accepts a numpy integer
    call(np.int64(max(minimum or 0, 1)))


def test_an_unset_thread_cap_is_accepted_and_a_count_below_one_is_not():
    # None leaves the worker count to the engine: the CPUs this process may use
    unset = sample_paths_fast(_FBM, 8, 2, 1, threads=None)
    assert unset.values.tobytes() == sample_paths_fast(_FBM, 8, 2, 1, threads=1).values.tobytes()
    for bad in (0, -1, -8, 2.0, "2"):
        with pytest.raises(BadParameter, match="threads must be an integer >= 1"):
            sample_paths_fast(_FBM, 8, 2, 1, threads=bad)


def _gen_ou(**kw):
    args = dict(theta=2.0, alpha=0.0, mu=0.0, sigma=1.0, sigma0=0.5)
    return build_generalized_ou(**{**args, **kw}, T=1.0, N=8)


def _ou_model(**kw):
    args = dict(theta=2.0, alpha=0.0, mu=0.0, sigma=1.0, sigma0=0.5)
    return CovModel.gen_ou(**{**args, **kw}, T=1.0)


def _spec(**kw):
    args = dict(evaluate=np.abs, derivative=np.sign, delta=0.0, horizon_T=1.0, gamma_at_zero=0.0)
    return GammaSpec(**{**args, **kw})


def _expansion(**kw):
    args = dict(family="fbm_low", horizon_T=1.0, truncation_N=1, drift_amp=0.0, amp=[1.0])
    return SeriesExpansion(**{**args, **kw})


_BATCH = PathBatch(np.linspace(0.0, 1.0, 3), np.zeros((100, 3)), 1)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_fbm("0.3", 1.0, 8, _SERIES), id="fbm-H-string"),
    pytest.param(lambda: build_fbm(0.3, "1", 8, _SERIES), id="fbm-T-string"),
    pytest.param(lambda: build_fbm(0.0, 1.0, 8, _SERIES), id="fbm-H-zero"),
    pytest.param(lambda: build_fbm(1.2, 1.0, 8, _SERIES), id="fbm-H-above-one"),
    pytest.param(lambda: _gen_ou(theta="2"), id="gen_ou-theta-string"),
    pytest.param(lambda: _gen_ou(theta=math.inf), id="gen_ou-theta-inf"),
    pytest.param(lambda: _gen_ou(alpha="0"), id="gen_ou-alpha-string"),
    pytest.param(lambda: _gen_ou(mu=None), id="gen_ou-mu-none"),
    pytest.param(lambda: _gen_ou(sigma="1"), id="gen_ou-sigma-string"),
    pytest.param(lambda: _gen_ou(sigma0="0.5"), id="gen_ou-sigma0-string"),
    pytest.param(lambda: _gen_ou(sigma0=math.inf), id="gen_ou-sigma0-inf"),
    pytest.param(lambda: CovModel.fbm("0.3", 1.0), id="model-fbm-H-string"),
    pytest.param(lambda: CovModel.fbm(0.0, 1.0), id="model-fbm-H-zero"),
    pytest.param(lambda: CovModel.fbm(1.5, 1.0), id="model-fbm-H-above-one"),
    pytest.param(lambda: _ou_model(theta="2"), id="model-gen_ou-theta-string"),
    pytest.param(lambda: _ou_model(alpha=1j), id="model-gen_ou-alpha-complex"),
    pytest.param(lambda: _ou_model(mu="0"), id="model-gen_ou-mu-string"),
    pytest.param(lambda: _ou_model(sigma=None), id="model-gen_ou-sigma-none"),
    pytest.param(lambda: _ou_model(sigma0="0"), id="model-gen_ou-sigma0-string"),
    pytest.param(lambda: truncation_for_tolerance(_SERIES, "0.1"), id="truncation-eps-string"),
    pytest.param(lambda: truncation_for_tolerance(_SERIES, math.nan), id="truncation-eps-nan"),
    pytest.param(lambda: covariance_report(CovModel.fbm(0.3, 1.0), _FBM, _BATCH, z_bound="4"),
                 id="report-z_bound-string"),
    pytest.param(lambda: covariance_report(CovModel.fbm(0.3, 1.0), _FBM, _BATCH, z_bound=0.0),
                 id="report-z_bound-zero"),
    pytest.param(lambda: covariance_report(CovModel.fbm(0.3, 0.5), _FBM, _BATCH),
                 id="report-grid-outside-horizon"),
    pytest.param(lambda: builtin_gamma("linear", "1"), id="builtin-T-string"),
    pytest.param(lambda: _spec(delta="0"), id="spec-delta-string"),
    pytest.param(lambda: _spec(horizon_T="1"), id="spec-T-string"),
    pytest.param(lambda: _spec(horizon_T=math.inf), id="spec-T-inf"),
    pytest.param(lambda: _expansion(horizon_T="1"), id="expansion-T-string"),
    pytest.param(lambda: _expansion(drift_amp="0"), id="expansion-drift-string"),
    pytest.param(lambda: _expansion(amp=["a"]), id="expansion-amp-string"),
    pytest.param(lambda: _expansion(amp=[1j]), id="expansion-amp-complex"),
    pytest.param(lambda: _expansion(family="fbm_mid"), id="expansion-family-unknown"),
    pytest.param(lambda: _expansion(amp=[1.0, 2.0]), id="expansion-amp-length"),
    pytest.param(lambda: _expansion(amp=[-1.0]), id="expansion-amp-negative"),
    pytest.param(lambda: _expansion(amp=[math.inf]), id="expansion-amp-inf"),
    pytest.param(lambda: _expansion(drift_amp=-1.0), id="expansion-drift-negative"),
    pytest.param(lambda: sample_paths(_FBM, ["a", "b"], 2, 1), id="sample_paths-grid-strings"),
    pytest.param(lambda: sample_paths(_FBM, [[0.0, 1.0]], 2, 1), id="sample_paths-grid-2d"),
    pytest.param(lambda: sample_paths(_FBM, [0.0, 1.5], 2, 1), id="sample_paths-grid-past-T"),
    pytest.param(lambda: sample_paths(_FBM, [-0.5, 0.5], 2, 1), id="sample_paths-grid-below-0"),
    pytest.param(lambda: sample_paths_fast(_FBM, ["a", "b"], 2, 1), id="fast-grid-strings"),
    pytest.param(lambda: PathBatch(["a"], np.zeros((1, 1)), 1), id="batch-grid-string"),
    pytest.param(lambda: PathBatch([0.0], [["a"]], 1), id="batch-values-string"),
    pytest.param(lambda: PathBatch([0.0, 1.0], [[0.0, 1.0], [2.0]], 1), id="batch-values-ragged"),
    pytest.param(lambda: allocate_levels(["a"], 4), id="allocate-mu-string"),
    pytest.param(lambda: allocate_levels([], 4), id="allocate-mu-empty"),
    pytest.param(lambda: CosineSeries(1.0, 2, np.zeros(2), "x", np.zeros(3)), id="series-values-length"),
    pytest.param(lambda: CosineSeries(1.0, 1, np.zeros(2), "x", np.zeros(1)), id="series-bounds-length"),
    pytest.param(lambda: CosineSeries(1.0, 1, [0.0, math.nan], "x", np.zeros(2)), id="series-values-nan"),
    pytest.param(lambda: CosineSeries(1.0, 1, np.zeros(2), "x", [0.0, math.inf]), id="series-bounds-inf"),
    pytest.param(lambda: coeffs_closed("poisson", 1.0, 4), id="closed-model-unknown"),
    pytest.param(lambda: Quantizer1D(2, [-1.0, 0.0, 1.0], 0.4), id="quantizer-levels-shape"),
])
def test_malformed_real_input_is_a_bad_parameter(call):
    with pytest.raises(BadParameter):
        call()


# four significant entries: too few for the decay fit beyond the table
_UNFITTABLE = CosineSeries(1.0, 4, [0.0, -1.0, -0.5, -0.3, -0.2], "closed", np.zeros(5))


@pytest.mark.parametrize("call, error", [
    # -gamma = t is admissible, but gamma = -t has a negative mean
    pytest.param(lambda: build_type_b(_LINEAR, 1.0, 8), NegativeC0, id="type_b-negative-mean"),
    pytest.param(lambda: power_series_coeffs(1.0, -1.0, 1.0, 8), SingularityTooStrong,
                 id="power-exponent-minus-one"),
    pytest.param(lambda: power_series_coeffs(1.0, -1.5, 1.0, 8), SingularityTooStrong,
                 id="power-exponent-below-minus-one"),
    pytest.param(lambda: truncation_for_tolerance(_UNFITTABLE, 0.1), TailEstimateUnavailable,
                 id="truncation-fit-fails"),
    pytest.param(lambda: coeffs_quadrature(_spec(evaluate=lambda t: np.full(np.shape(t), np.nan)), 8),
                 NonFiniteEvaluation, id="quadrature-g-nan"),
    pytest.param(lambda: decay_fit(_SERIES, 32, 1024), BadParameter, id="decay_fit-window-past-k_max"),
    pytest.param(lambda: _spec(power_amp=1.0), BadParameter, id="spec-power-amp-alone"),
    pytest.param(lambda: builtin_gamma("exp_decay", 1.0, theta=1.0), BadParameter,
                 id="builtin-exp_decay-sigma2-none"),
    pytest.param(lambda: fit_singularity_exponent(builtin_gamma("minus_abs", 1.0)),
                 NonFiniteEvaluation, id="fit-derivative-negative"),
    pytest.param(lambda: Quantizer1D(2, [1.0, -1.0], 0.4), BadParameter, id="quantizer-levels-decreasing"),
    pytest.param(lambda: kl_reduce(_expansion(amp=[0.0]), 1), BadParameter, id="kl_reduce-zero-amplitudes"),
    pytest.param(lambda: product_quantizer(None, aliased_expansion(_FBM, 8), 4), BadParameter,
                 id="product_quantizer-folded-expansion"),
    pytest.param(lambda: analytic_cov(CovModel.type_a(builtin_gamma("neg_power", 1.0, hurst=0.75), 1.0),
                                      0.0, 0.5),
                 BadParameter, id="analytic_cov-gamma-at-zero-unset"),
])
def test_reachable_checks_raise_their_named_errors(call, error):
    with pytest.raises(error):
        call()


def test_a_zero_dimensional_array_is_a_real_number():
    value = check_real(np.array(0.25), "x")
    assert type(value) is float and value == 0.25
    assert CovModel.fbm(np.array(0.3), np.array(1.0)).hurst == 0.3


def test_tail_sum_of_a_series_without_a_power_law_at_its_edges():
    # c_0 alone leaves nothing to fit, so the tail is unknown
    assert tail_sum(CosineSeries(1.0, 0, [1.0], "closed", [0.0]), 0) == math.inf
    # entries within their error bounds are zeros: nothing to extrapolate
    quiet = CosineSeries(1.0, 8, np.full(9, -1e-4), "closed", np.full(9, 1e-3))
    assert tail_sum(quiet, 8) == 0.0
    # the table beyond N is summed, and the failed fit makes its rest unknown
    assert tail_sum(_UNFITTABLE, 1) == math.inf


_FBM_MODEL = CovModel.fbm(0.3, 1.0)
_QUANTIZER = product_quantizer(None, _FBM, 4)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_fbm(0.3, 1.0, 8, None), id="fbm-series-none"),
    pytest.param(lambda: build_fbm(0.3, 1.0, 8, _LINEAR), id="fbm-series-spec"),
    pytest.param(lambda: build_type_a(None, 1.0, 8), id="type_a-spec-none"),
    pytest.param(lambda: build_type_b(_SERIES, 1.0, 8), id="type_b-spec-series"),
    pytest.param(lambda: build_type_c(None, 1.0, 8), id="type_c-spec-none"),
    pytest.param(lambda: sample_paths(None, [0.0, 1.0], 2, 1), id="sample_paths-exp-none"),
    pytest.param(lambda: sample_paths_fast(None, 8, 2, 1), id="fast-exp-none"),
    pytest.param(lambda: aliased_expansion(_SERIES, 8), id="aliased-exp-series"),
    pytest.param(lambda: analytic_cov(CovModel.type_a(None, 1.0), 0.2, 0.5), id="model-type_a-spec-none"),
    pytest.param(lambda: CovModel.type_c("linear", 2.0), id="model-type_c-spec-string"),
    pytest.param(lambda: CovModel("levy", 1.0), id="model-kind-unknown"),
    pytest.param(lambda: analytic_cov(None, 0.2, 0.5), id="analytic_cov-model-none"),
    pytest.param(lambda: tail_sum(None, 4), id="tail_sum-series-none"),
    pytest.param(lambda: truncation_for_tolerance(None, 0.1), id="truncation-series-none"),
    pytest.param(lambda: covariance_report(_FBM_MODEL, None, None), id="report-exp-none"),
    pytest.param(lambda: covariance_report(_FBM_MODEL, _FBM, None), id="report-batch-none"),
    pytest.param(lambda: covariance_report(None, _FBM, _BATCH), id="report-model-none"),
    pytest.param(lambda: series_cov(None, 0.2, 0.5), id="series_cov-exp-none"),
    pytest.param(lambda: series_cov_grid(None, [0.0, 1.0]), id="series_cov_grid-exp-none"),
    pytest.param(lambda: series_cov_uniform(None, 4), id="series_cov_uniform-exp-none"),
    pytest.param(lambda: series_var_uniform(None, 4), id="series_var_uniform-exp-none"),
    pytest.param(lambda: empirical_cov(None, 0, 1), id="empirical_cov-batch-none"),
    pytest.param(lambda: empirical_cov_grid(None), id="empirical_cov_grid-batch-none"),
    pytest.param(lambda: kl_reduce(None, 2), id="kl_reduce-exp-none"),
    pytest.param(lambda: gram_matrix(None), id="gram_matrix-exp-none"),
    pytest.param(lambda: product_quantizer(None, None, 4), id="product_quantizer-exp-none"),
    pytest.param(lambda: distortion_mc(None, _FBM, 200, 1), id="distortion_mc-q-none"),
    pytest.param(lambda: distortion_mc(_QUANTIZER, None, 200, 1), id="distortion_mc-exp-none"),
    pytest.param(lambda: lemma1_check(None, 4, [0.0, 1.0]), id="lemma1_check-spec-none"),
    pytest.param(lambda: rate_probe(None, [8, 16], 100, 1), id="rate_probe-model-none"),
    pytest.param(lambda: decay_fit(None, 32, 512), id="decay_fit-series-none"),
    pytest.param(lambda: lemma2_transform(None), id="lemma2_transform-series-none"),
    pytest.param(lambda: check_star(None), id="check_star-spec-none"),
    pytest.param(lambda: negate_spec(None), id="negate_spec-spec-none"),
    pytest.param(lambda: fit_singularity_exponent(None), id="fit_singularity_exponent-spec-none"),
    pytest.param(lambda: coeffs_quadrature(None, 8), id="coeffs_quadrature-spec-none"),
    pytest.param(lambda: oracle_coeff(None, 1.0, 1), id="oracle_coeff-spec-none"),
])
def test_malformed_object_argument_is_a_bad_parameter(call):
    with pytest.raises(BadParameter):
        call()


def test_csv_table_round_trips_columns_and_metadata(tmp_path):
    grid = np.array([0.0, 0.1, 1.0 / 3.0])
    block = np.array([[1e-300, -2.5, 7.0], [0.0, 1e300, -0.1]])
    text = csv_table_text(["a=1 b=x", "a=2 c=3.5"], ["t", "u", "v", "k"],
                          [grid, block, np.arange(3)])
    assert text.splitlines()[:4] == ["# a=1 b=x", "# a=2 c=3.5", "t,u,v,k",
                                     "0.0,1e-300,0.0,0"]
    path = tmp_path / "table.csv"
    path.write_text(text)
    meta, data = read_csv_table(path, {"a": int, "c": float})
    assert meta == {"a": 2, "c": 3.5}  # the later token wins, unnamed keys are skipped
    assert data.shape == (4, 3) and data.flags.c_contiguous
    assert np.array_equal(data[0], grid) and np.array_equal(data[1:3], block)
    assert np.array_equal(data[3], np.arange(3))


def test_csv_table_reader_names_the_bad_line(tmp_path):
    cases = {
        "header": "# a=1\nt,x\n0.0\n",
        "metadata": "t,x\n# a=y\n0.0,1.0\n",
        "number": "t,x\n0.0,1.0\n0.5,one\n",
    }
    lines = {"header": 3, "metadata": 2, "number": 3}
    for kind, text in cases.items():
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        with pytest.raises(BadParameter, match=rf"{kind}\.csv: line {lines[kind]}"):
            read_csv_table(path, {"a": int})
    path = tmp_path / "empty.csv"
    path.write_text("# a=1\nt,x\n")
    with pytest.raises(BadParameter, match="no data rows"):
        read_csv_table(path, {})


@pytest.mark.parametrize("label", ["my gamma", "5% of 100%25", "tab\tnbsp\u00a0line\u2028end", ""])
def test_csv_metadata_values_with_whitespace_and_percent_round_trip(tmp_path, label):
    path = tmp_path / "table.csv"
    batch = PathBatch(np.array([0.0, 1.0]), np.zeros((1, 2)), 3,
                      expansion_ref=f"type_a({label},N=8)", truncation_N=8)
    batch.to_csv(path)
    assert PathBatch.from_csv(path).expansion_ref == batch.expansion_ref
    series = dataclasses.replace(fbm_coefficients(0.3, 1.0, 4), source_label=label)
    series.to_csv(path)
    assert CosineSeries.from_csv(path).source_label == label
    quantizer = dataclasses.replace(product_quantizer(None, _FBM, 4), label=label)
    path.write_text(quantizer.to_csv_text(np.linspace(0.0, 1.0, 3)))
    meta, _ = read_csv_table(path, {"label": str, "budget_levels": str})
    assert meta == {"label": label, "budget_levels": "x".join(map(str, quantizer.levels_per_dim))}


def test_csv_metadata_escapes_only_whitespace_and_percent():
    head = [["codebook", ("label", "fbm_low(H=0.3,T=1.0,N=8)"), ("x", "a b%\u00e9\u3000")]]
    line = csv_table_text(head, ["t"], [np.zeros(1)]).splitlines()[0]
    assert line == "# codebook label=fbm_low(H=0.3,T=1.0,N=8) x=a%20b%25\u00e9%E3%80%80"
