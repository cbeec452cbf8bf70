"""Command line interface: argument handling, exit codes, artifacts."""

import json
import math
import sys

import numpy as np
import pytest

from specgauss import (
    CovModel,
    __version__,
    NumericalFailure,
    _engine,
    aliased_expansion,
    build_fbm,
    coeffs_closed,
    covariance_report,
    fbm_coefficients,
    product_quantizer,
    sample_paths_fast,
)
from specgauss import cli
from specgauss._util import read_csv_table
from specgauss.cli import main
from specgauss.expansion import PathBatch
from specgauss.fourier import CosineSeries, tail_sum


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("SPECGAUSS_SEED", raising=False)


def _usage_exit(argv):
    with pytest.raises(SystemExit) as ei:
        main(argv)
    return ei.value.code


# ---------------------------------------------------------------------------
# help and dispatch
# ---------------------------------------------------------------------------

_COMMANDS = ("coeffs", "simulate", "validate-cov", "rate", "quantize")


def _help_of(capsys, parse, argv):
    """What ``parse(argv)`` prints before it exits 0."""
    with pytest.raises(SystemExit) as ei:
        parse(argv)
    assert ei.value.code == 0
    return capsys.readouterr().out


def test_help_lists_the_five_commands(capsys):
    text = _help_of(capsys, main, ["--help"])
    assert text.startswith("usage: specgauss")
    for name in _COMMANDS:
        assert f"\n    {name} " in text, name


@pytest.mark.parametrize("command", _COMMANDS)
def test_command_help_is_that_of_the_parser_with_every_flag(capsys, command):
    text = _help_of(capsys, main, [command, "--help"])
    assert text.startswith(f"usage: specgauss {command}") and "--out" in text
    assert text == _help_of(capsys, cli._build_parser().parse_args, [command, "--help"])


def test_version_prints_the_version(capsys):
    assert _help_of(capsys, main, ["--version"]) == __version__ + "\n"


@pytest.mark.parametrize("argv", [["bogus"], [], ["--bogus"]])
def test_an_unknown_or_missing_command_exits_2(capsys, argv):
    assert _usage_exit(argv) == 2
    assert capsys.readouterr().err.startswith("usage: specgauss [-h] [--version]")


def test_main_without_argv_reads_the_process_arguments(monkeypatch, capsys):
    argv = ["coeffs", "--model", "brownian", "--kmax", "3"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["specgauss", *argv])
    assert main() == 0
    assert capsys.readouterr().out == want


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


def test_unknown_model_exits_2():
    assert _usage_exit(["coeffs", "--model", "poisson", "--kmax", "4"]) == 2


def test_fbm_requires_hurst():
    assert _usage_exit(["coeffs", "--model", "fbm", "--kmax", "4"]) == 2


def test_hurst_out_of_range():
    code = _usage_exit(
        ["coeffs", "--model", "fbm", "--hurst", "1.5", "--kmax", "4"]
    )
    assert code == 2


def test_excluded_hurst_is_reported_as_usage(capsys):
    # 1/2 survives flag checks but the coefficient builder rejects it
    code = main(["coeffs", "--model", "fbm", "--hurst", "0.5", "--kmax", "4"])
    assert code == 2
    assert "coeffs" in capsys.readouterr().err


# one small run of each command that writes --out
_WRITERS = {
    "coeffs": ["coeffs", "--model", "fbm", "--hurst", "0.3", "--kmax", "4"],
    "simulate": ["simulate", "--model", "brownian", "--paths", "4", "--N", "8", "--grid", "4",
                 "--seed", "1"],
    "simulate-bin": ["simulate", "--model", "brownian", "--paths", "4", "--N", "8", "--grid", "4",
                     "--seed", "1", "--format", "bin"],
    "validate-cov": ["validate-cov", "--model", "brownian", "--paths", "100", "--N", "8",
                     "--grid", "5", "--seed", "1"],
    "rate": ["rate", "--hurst", "0.3", "--Ns", "8,16", "--replicates", "100", "--seed", "1"],
    "quantize": ["quantize", "--model", "fbm", "--hurst", "0.4", "--budget", "4", "--N", "8"],
}


@pytest.mark.parametrize("target", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_an_unwritable_out_is_a_usage_error(tmp_path, capsys, command, target):
    # a path under a missing directory, and one that names a directory: the
    # write fails after the run, with one line and no traceback, and the
    # temporary file beside the target is gone
    out = tmp_path / "missing" / "x.out"
    if target == "a-dir":
        out = tmp_path / "taken"
        out.mkdir()
    capsys.readouterr()
    assert main(_WRITERS[command] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"specgauss {command.split('-bin')[0]}: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not list(tmp_path.rglob(".tmp-*"))


def test_simulate_requires_seed():
    code = _usage_exit(
        ["simulate", "--model", "brownian", "--paths", "4", "--N", "8"]
    )
    assert code == 2


def test_non_integer_env_seed_exits_2(monkeypatch):
    monkeypatch.setenv("SPECGAUSS_SEED", "7.5")
    code = _usage_exit(
        ["simulate", "--model", "brownian", "--paths", "4", "--N", "8"]
    )
    assert code == 2


def test_rate_ns_must_be_integers():
    code = _usage_exit(["rate", "--hurst", "0.3", "--Ns", "64,x", "--seed", "1"])
    assert code == 2


def test_bin_format_requires_out():
    code = _usage_exit(
        ["simulate", "--model", "brownian", "--paths", "4", "--N", "8",
         "--seed", "1", "--format", "bin"]
    )
    assert code == 2


def test_validate_cov_z_bound_must_be_positive_and_finite():
    base = ["validate-cov", "--model", "brownian", "--N", "8", "--paths", "100",
            "--grid", "3", "--seed", "1"]
    for bad in ("0", "-1", "nan", "inf"):
        assert _usage_exit(base + [f"--z-bound={bad}"]) == 2, bad


def test_rate_slope_tol_must_be_positive_and_finite():
    base = ["rate", "--hurst", "0.75", "--Ns", "8,16", "--replicates", "100",
            "--seed", "1"]
    for bad in ("0", "-0.1", "nan", "inf"):
        assert _usage_exit(base + [f"--slope-tol={bad}"]) == 2, bad


def test_numerical_failure_exits_3(monkeypatch, capsys):
    import specgauss.cli as cli

    def boom(*a, **kw):
        raise NumericalFailure("quadrature stalled")

    monkeypatch.setattr(cli, "fbm_coefficients", boom)
    code = main(["coeffs", "--model", "fbm", "--hurst", "0.3", "--kmax", "4"])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_matches_library(tmp_path, capsys):
    assert main(["coeffs", "--model", "fbm", "--hurst", "0.3", "--kmax", "8"]) == 0
    text = capsys.readouterr().out
    assert "version=" in text and "config=" in text
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--model", "fbm", "--hurst", "0.3", "--kmax", "8",
                 "--out", str(out)]) == 0
    series = CosineSeries.from_csv(str(out))
    ref = fbm_coefficients(0.3, 1.0, 8)
    assert np.array_equal(series.values, ref.values)
    assert out.read_text() == text


def test_coeffs_gen_ou_matches_the_closed_form(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--model", "gen-ou", "--theta", "2", "--sigma", "1.5",
                 "--T", "0.5", "--kmax", "16", "--out", str(out)]) == 0
    series = CosineSeries.from_csv(str(out))
    ref = coeffs_closed("generalized_ou", 0.5, 16, theta=2.0, sigma2=2.25)
    assert series.horizon_T == ref.horizon_T == 1.0
    assert np.array_equal(series.values, ref.values)
    assert np.array_equal(series.error_bounds, ref.error_bounds)
    assert series.method == "closed_form" and series.source_label == ref.source_label


def test_coeffs_brownian_to_file(tmp_path):
    out = tmp_path / "c.csv"
    code = main(["coeffs", "--model", "brownian", "--kmax", "6",
                 "--T", "2.0", "--out", str(out)])
    assert code == 0
    series = CosineSeries.from_csv(str(out))
    assert series.values[0] == pytest.approx(-4.0)  # -2T
    assert series.values[2] == 0.0


def test_coeffs_brownian_carries_its_exact_tail(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--model", "brownian", "--kmax", "9",
                 "--T", "0.7", "--out", str(out)]) == 0
    series = CosineSeries.from_csv(str(out))
    assert series.power_law == (-1.0, 1.0, False)
    # c_k = 8T/(pi k)^2 at odd k, and 1/k^2 sums to pi^2/8 over odd k
    truth = 0.7 * (1.0 - (8.0 / math.pi**2) * (10.0 / 9.0))
    assert tail_sum(series, 4) == pytest.approx(truth, rel=1e-12)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_csv_and_bin_agree(tmp_path):
    common = ["simulate", "--model", "gen-ou", "--theta", "2.0",
              "--paths", "6", "--N", "16", "--grid", "8", "--seed", "9"]
    csv_out = tmp_path / "p.csv"
    bin_out = tmp_path / "p.sgpb"
    assert main(common + ["--out", str(csv_out)]) == 0
    assert main(common + ["--format", "bin", "--out", str(bin_out)]) == 0
    a = PathBatch.from_csv(str(csv_out))
    b = PathBatch.from_binary(str(bin_out))
    assert np.array_equal(a.values, b.values)
    assert a.values.shape == (6, 9)
    head = csv_out.read_text().splitlines()[0]
    assert "seed=9" in head and "config=" in head


def test_simulate_env_seed_matches_flag(tmp_path, monkeypatch):
    args = ["simulate", "--model", "brownian", "--paths", "3",
            "--N", "8", "--grid", "4"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--seed", "77", "--out", str(f1)]) == 0
    monkeypatch.setenv("SPECGAUSS_SEED", "77")
    assert main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_byte_identical_across_threads(tmp_path):
    base = ["simulate", "--model", "fbm", "--hurst", "0.75", "--paths", "40",
            "--N", "64", "--grid", "32", "--seed", "5"]
    f1, f2, f3 = (tmp_path / n for n in ("t1.csv", "t1b.csv", "t8.csv"))
    assert main(base + ["--threads", "1", "--out", str(f1)]) == 0
    assert main(base + ["--threads", "1", "--out", str(f2)]) == 0
    assert main(base + ["--threads", "8", "--out", str(f3)]) == 0
    assert f1.read_bytes() == f2.read_bytes() == f3.read_bytes()


# ---------------------------------------------------------------------------
# validate-cov
# ---------------------------------------------------------------------------


def test_validate_cov_pass(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["validate-cov", "--model", "brownian", "--N", "256",
                 "--paths", "400", "--grid", "9", "--seed", "13",
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS covariance")
    report = json.loads(out.read_text())
    assert report["passed"] is True
    assert report["command"] == "validate-cov"
    assert report["seed"] == 13
    # Brownian motion is type C: L = 2 * 8 reflected residues, and Z_0
    assert report["normals_per_path"] == 2 * 16 + 1
    names = {c["name"] for c in report["report"]["checks"]}
    assert names == {"empirical_vs_analytic", "series_vs_analytic"}


def test_validate_cov_detects_truncation_gap(tmp_path, capsys):
    # N=16 leaves a visible covariance hole for H=0.3
    out = tmp_path / "r.json"
    code = main(["validate-cov", "--model", "fbm", "--hurst", "0.3",
                 "--N", "16", "--paths", "2000", "--grid", "17",
                 "--seed", "3", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL covariance")
    assert json.loads(out.read_text())["passed"] is False


def test_validate_cov_samples_the_aliased_grid_law(tmp_path, monkeypatch, capsys):
    # N = 256 > L = 8: each path draws 2 * 8 + 1 normals, not 513
    argv = ["validate-cov", "--model", "fbm", "--hurst", "0.3", "--N", "256",
            "--paths", "400", "--grid", "9", "--seed", "29"]
    model = CovModel.fbm(0.3, 1.0)
    exp = build_fbm(0.3, 1.0, 256, fbm_coefficients(0.3, 1.0, 256))
    folded = aliased_expansion(exp, 8)
    # blocks of 50 paths, so that two threads share the work: a row holds
    # its 17 draws, the spectrum and the transform buffer (L = 8); rows this
    # narrow run on one worker unless the cutoff is lifted
    monkeypatch.setattr(_engine, "BLOCK_DOUBLES", 50 * (17 + _engine.grid_row_doubles(folded, 8)))
    monkeypatch.setattr(_engine, "PARALLEL_MIN_DRAWS", 0)
    texts = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.json"
        assert main(argv + ["--threads", str(threads), "--out", str(out)]) == 0
        texts.append(out.read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["normals_per_path"] == 2 * 8 + 1
    got = json.loads(texts[0])["report"]
    want = covariance_report(model, exp, sample_paths_fast(folded, 8, 400, 29))
    series = covariance_report(model, exp, sample_paths_fast(exp, 8, 400, 29))
    stat = [c["statistic"] for c in got["checks"]]
    assert stat == [c["statistic"] for c in want["checks"]]
    assert stat != [c["statistic"] for c in series["checks"]]


# ---------------------------------------------------------------------------
# rate
# ---------------------------------------------------------------------------


def test_rate_report_schema(tmp_path, capsys):
    out = tmp_path / "rate.json"
    code = main(["rate", "--hurst", "0.75", "--Ns", "8,16", "--replicates",
                 "100", "--slope-tol", "5.0",
                 "--seed", "21", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.startswith("PASS rate")
    report = json.loads(out.read_text())
    assert report["Ns"] == [8, 16]
    assert len(report["sup_err_estimates"]) == 2
    assert report["fitted_slope"] < 0
    assert report["reference_slope"] == pytest.approx(-0.75)
    assert report["slope_tolerance"] == 5.0


def test_rate_report_records_the_probe_sizes(tmp_path):
    # the reference truncation is 8 max(Ns), the sup grid 16 max(Ns) cells
    out = tmp_path / "rate.json"
    code = main(["rate", "--hurst", "0.3", "--Ns", "8,16", "--replicates",
                 "120", "--slope-tol", "5.0",
                 "--seed", "21", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["n_reference"] == 128
    assert report["grid_resolution"] == 256
    assert report["replicate_count"] == 120


def test_rate_tight_tolerance_can_fail(tmp_path):
    # two tiny truncations cannot land within 1e-6 of the asymptote
    out = tmp_path / "rate.json"
    code = main(["rate", "--hurst", "0.75", "--Ns", "8,16", "--replicates",
                 "100", "--slope-tol", "1e-6",
                 "--seed", "21", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["passed"] is False


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------


def test_quantize_writes_codebook_and_sidecar(tmp_path):
    out = tmp_path / "book.csv"
    code = main(["quantize", "--model", "gen-ou", "--theta", "2.0",
                 "--budget", "6", "--N", "32", "--grid", "17",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# version=")
    assert lines[1].startswith("# codebook label=")
    assert len(lines) == 2 + 1 + 17  # headers, column row, grid rows
    import specgauss

    sidecar = json.loads((tmp_path / "book.json").read_text())
    assert "levels_per_dim" in sidecar and "mu" in sidecar
    assert sidecar["version"] == specgauss.__version__
    assert int(np.prod(sidecar["levels_per_dim"])) <= 6


def test_quantize_codebook_reads_back_exactly(tmp_path):
    out = tmp_path / "book.csv"
    assert main(["quantize", "--model", "fbm", "--hurst", "0.4", "--budget", "20",
                 "--out", str(out)]) == 0
    meta, data = read_csv_table(out, {"version": str, "budget_levels": str})
    exp = build_fbm(0.4, 1.0, 64, fbm_coefficients(0.4, 1.0, 64))
    q = product_quantizer(CovModel.fbm(0.4, 1.0), exp, 20)
    tgrid = np.linspace(0.0, 1.0, 65)
    assert meta["budget_levels"] == "x".join(str(n) for n in q.levels_per_dim)
    assert data.shape == (1 + q.n_codewords, tgrid.size)
    assert np.array_equal(data[0], tgrid)
    assert np.array_equal(data[1:], q.codebook_paths(tgrid))


def test_quantize_stdout(capsys):
    assert main(["quantize", "--model", "brownian", "--budget", "4",
                 "--N", "16", "--grid", "9"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("# codebook label=")


@pytest.mark.parametrize("flag", ["--alpha", "--mu"])
def test_quantize_rejects_non_finite_gen_ou_means(tmp_path, flag):
    out = tmp_path / "book.csv"
    code = main(["quantize", "--model", "gen-ou", "--theta", "2", flag, "nan",
                 "--budget", "4", "--out", str(out)])
    assert code == 2
    assert not out.exists() and not (tmp_path / "book.json").exists()


def test_quantize_rejects_initial_value_noise(capsys):
    code = main(["quantize", "--model", "gen-ou", "--theta", "2.0",
                 "--sigma0", "0.5", "--budget", "4", "--N", "16"])
    assert code == 2
    assert "sigma0" in capsys.readouterr().err
