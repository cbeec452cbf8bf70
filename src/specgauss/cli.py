"""Batch front door: coefficients, path simulation, validation suites and
quantizer codebooks, all reproducibly seeded.

Exit codes
----------
0   success (for validation commands: every check passed)
1   a validation check failed; the JSON report is still written
2   usage error: bad flags, out-of-range parameters, missing seed, an
    ``--out`` that cannot be written
3   numerical failure (quadrature non-convergence and friends)

Stochastic artifacts embed ``seed=... version=... config=...`` in a header
comment; ``config`` is a short hash of the parsed run configuration, so two
artifacts with equal headers were produced by identical runs.

JSON report schema (validate-cov, rate)
---------------------------------------
Common keys: ``command``, ``version``, ``config``, ``seed``, ``passed``.
``validate-cov`` adds the :func:`specgauss.validate.covariance_report` dict
under ``report`` (named checks with statistic/bound/passed each) and
``normals_per_path``, the normals each path of the folded expansion
(:func:`specgauss.expansion.aliased_expansion`) drew: 2 min(N, L) + 1, one
(sine, cosine) pair per reflected grid residue and Z_0, plus one for an
initial value, with L = grid - 1, or 2 (grid - 1) on the doubled period of
Brownian motion and gen-OU.  Its ``empirical_vs_analytic`` check compares
the sample covariance with the untruncated covariance, so ``--N`` must push
the ``series_vs_analytic`` statistic (the truncation gap) well below the
Monte Carlo standard error at ``--paths``; otherwise the check fails for
some seeds on correct paths.
``rate`` adds ``slope_tolerance`` and the fields of
:class:`specgauss.validate.RateProbeResult`: ``Ns``, ``sup_err_estimates``,
``sup_err_stderrs``, ``fitted_slope``, ``reference_slope``, and the probe's
``n_reference`` (reference truncation, 8 max(Ns)), ``grid_resolution`` (the
sup grid's cells, m = 16 max(Ns)) and ``replicate_count``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, _engine
from ._util import atomic_write_text, config_hash
from .errors import NumericalFailure, SpecgaussError
from .expansion import (
    aliased_expansion,
    build_fbm,
    build_generalized_ou,
    build_type_c,
    sample_paths_fast,
)
from .fourier import coeffs_closed, fbm_coefficients, power_series_coeffs
from .gamma import builtin_gamma
from .quantize import product_quantizer
from .validate import CovModel, covariance_report, rate_probe

def _add_model_flags(p, *, require_model=True):
    p.add_argument(
        "--model",
        required=require_model,
        choices=("fbm", "brownian", "gen-ou"),
        help="process family",
    )
    p.add_argument("--hurst", type=float, help="Hurst exponent (fbm)")
    p.add_argument("--theta", type=float, help="mean-reversion rate (gen-ou)")
    p.add_argument("--alpha", type=float, default=0.0, help="long-run mean (gen-ou)")
    p.add_argument("--mu", type=float, default=0.0, help="initial mean (gen-ou)")
    p.add_argument("--sigma", type=float, default=1.0, help="noise scale (gen-ou)")
    p.add_argument("--sigma0", type=float, default=0.0, help="initial-value std (gen-ou)")
    p.add_argument("--T", type=float, default=1.0, help="time horizon")


def _require(parser, cond, msg):
    if not cond:
        parser.error(msg)  # exits 2


def _model_config(args):
    cfg = {"command": args.command, "model": args.model, "T": args.T}
    if args.model == "fbm":
        cfg["hurst"] = args.hurst
    elif args.model == "gen-ou":
        cfg.update(
            theta=args.theta, alpha=args.alpha, mu=args.mu,
            sigma=args.sigma, sigma0=args.sigma0,
        )
    return cfg


def _check_model_args(parser, args):
    if args.model == "fbm":
        _require(parser, args.hurst is not None, "--model fbm requires --hurst")
        _require(parser, 0.0 < args.hurst < 1.0, "--hurst must lie in (0, 1)")
    elif args.model == "gen-ou":
        _require(parser, args.theta is not None, "--model gen-ou requires --theta")
        _require(parser, args.theta > 0, "--theta must be positive")
        _require(parser, args.sigma > 0, "--sigma must be positive")
        _require(parser, args.sigma0 >= 0, "--sigma0 must be nonnegative")
    _require(parser, args.T > 0, "--T must be positive")


def _cov_model(args):
    if args.model == "fbm":
        return CovModel.fbm(args.hurst, args.T)
    if args.model == "brownian":
        return CovModel.brownian(args.T)
    return CovModel.gen_ou(args.theta, args.alpha, args.mu, args.sigma, args.sigma0, args.T)


def _expansion(args, N):
    if args.model == "fbm":
        return build_fbm(args.hurst, args.T, N, fbm_coefficients(args.hurst, args.T, N))
    if args.model == "brownian":
        spec = builtin_gamma("linear", 2.0 * args.T, slope=1.0)
        return build_type_c(spec, args.T, N)
    return build_generalized_ou(
        args.theta, args.alpha, args.mu, args.sigma, args.sigma0, args.T, N
    )


def _resolve_seed(parser, args):
    """The seed of a stochastic command: ``--seed``, else SPECGAUSS_SEED."""
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SPECGAUSS_SEED")
    if env is None:
        parser.error(f"{args.command} is stochastic: pass --seed or set SPECGAUSS_SEED")
    try:
        return int(env)
    except ValueError:
        parser.error(f"SPECGAUSS_SEED is not an integer: {env!r}")


def _header_line(cfg, seed):
    tag = f"version={__version__} config={config_hash(cfg)}"
    if seed is not None:
        tag = f"seed={seed} " + tag
    return tag


def _emit_text(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _write_report(args, cfg, seed, payload, passed):
    report = {
        "command": args.command,
        "version": __version__,
        "config": config_hash(cfg),
        "seed": seed,
        "passed": bool(passed),
    }
    report.update(payload)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    _emit_text(args.out, text)
    return 0 if passed else 1


def _cmd_coeffs(parser, args):
    _check_model_args(parser, args)
    _require(parser, args.kmax >= 0, "--kmax must be >= 0")
    cfg = _model_config(args)
    cfg["kmax"] = args.kmax
    if args.model == "fbm":
        series = fbm_coefficients(args.hurst, args.T, args.kmax)
    elif args.model == "brownian":
        # the power law t^1 that simulate builds from, with its exact tail
        series = power_series_coeffs(
            -1.0, 1.0, 2.0 * args.T, args.kmax, label=f"brownian_example(T={args.T})"
        )
    else:
        series = coeffs_closed(
            "generalized_ou", args.T, args.kmax,
            theta=args.theta, sigma2=args.sigma * args.sigma,
        )
    _emit_text(args.out, series.to_csv_text(comments=[_header_line(cfg, None)]))
    return 0


def _cmd_simulate(parser, args):
    _check_model_args(parser, args)
    _require(parser, args.paths >= 1, "--paths must be >= 1")
    _require(parser, args.grid >= 1, "--grid must be >= 1")
    _require(parser, args.N >= 1, "--N must be >= 1")
    _require(parser, args.threads is None or args.threads >= 1, "--threads must be >= 1")
    if args.format == "bin":
        _require(parser, args.out is not None, "--format bin requires --out")
    seed = _resolve_seed(parser, args)
    cfg = _model_config(args)
    cfg.update(N=args.N, grid=args.grid, paths=args.paths, seed=seed, format=args.format)
    exp = _expansion(args, args.N)
    batch = sample_paths_fast(exp, args.grid, args.paths, seed, threads=args.threads)
    if args.format == "bin":
        batch.to_binary(args.out)
    else:
        _emit_text(args.out, batch.to_csv_text(comments=[_header_line(cfg, seed)]))
    return 0


def _cmd_validate_cov(parser, args):
    _check_model_args(parser, args)
    _require(parser, args.paths >= 100, "--paths must be >= 100")
    _require(parser, args.grid >= 2, "--grid must be >= 2")
    _require(parser, args.N >= 1, "--N must be >= 1")
    _require(parser, args.threads is None or args.threads >= 1, "--threads must be >= 1")
    _require(parser, 0.0 < args.z_bound < math.inf, "--z-bound must be positive and finite")
    seed = _resolve_seed(parser, args)
    cfg = _model_config(args)
    cfg.update(N=args.N, grid=args.grid, paths=args.paths, seed=seed)
    model = _cov_model(args)
    exp = _expansion(args, args.N)
    # the report judges the law on the grid alone, which the folded expansion
    # draws at a width that stops growing with N past the grid's L
    folded = aliased_expansion(exp, args.grid - 1)
    batch = sample_paths_fast(folded, args.grid - 1, args.paths, seed, threads=args.threads)
    report = covariance_report(model, exp, batch, z_bound=args.z_bound)
    payload = {"normals_per_path": _engine.draw_width(folded), "report": report}
    code = _write_report(args, cfg, seed, payload, report["passed"])
    print(("PASS" if code == 0 else "FAIL") + f" covariance: worst check "
          f"{max(c['statistic'] / c['bound'] for c in report['checks']):.3f}x bound")
    return code


def _cmd_rate(parser, args):
    _require(parser, 0.0 < args.hurst < 1.0, "--hurst must lie in (0, 1)")
    _require(parser, args.T > 0, "--T must be positive")
    _require(parser, args.replicates >= 100, "--replicates must be >= 100")
    _require(parser, 0.0 < args.slope_tol < math.inf, "--slope-tol must be positive and finite")
    try:
        Ns = [int(tok) for tok in args.Ns.split(",") if tok]
    except ValueError:
        parser.error(f"--Ns must be a comma list of integers, got {args.Ns!r}")
    seed = _resolve_seed(parser, args)
    cfg = {
        "command": args.command, "hurst": args.hurst, "T": args.T, "Ns": Ns,
        "replicates": args.replicates, "seed": seed,
    }
    model = CovModel.fbm(args.hurst, args.T)
    res = rate_probe(model, Ns, args.replicates, seed)
    gap = abs(res.fitted_slope - res.reference_slope)
    payload = {**dataclasses.asdict(res), "slope_tolerance": args.slope_tol}
    code = _write_report(args, cfg, seed, payload, gap <= args.slope_tol)
    print(("PASS" if code == 0 else "FAIL")
          + f" rate: slope {res.fitted_slope:.4f} vs {res.reference_slope:.4f}"
          + f" (tol {args.slope_tol})")
    return code


def _cmd_quantize(parser, args):
    _check_model_args(parser, args)
    _require(parser, args.budget >= 1, "--budget must be >= 1")
    _require(parser, args.grid >= 2, "--grid must be >= 2")
    _require(parser, args.N >= 1, "--N must be >= 1")
    _require(parser, args.m is None or args.m >= 1, "--m must be >= 1")
    cfg = _model_config(args)
    cfg.update(N=args.N, budget=args.budget, m=args.m, grid=args.grid)
    model = _cov_model(args)
    exp = _expansion(args, args.N)
    q = product_quantizer(model, exp, args.budget, m=args.m)
    tgrid = np.linspace(0.0, args.T, args.grid)
    _emit_text(args.out, q.to_csv_text(tgrid, comments=[_header_line(cfg, None)]))
    if args.out is not None:
        sidecar = dict(q.sidecar_dict())
        sidecar.update(version=__version__, config=config_hash(cfg))
        atomic_write_text(
            os.path.splitext(args.out)[0] + ".json",
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
        )
    return 0


def _coeffs_flags(p):
    _add_model_flags(p)
    p.add_argument("--kmax", type=int, required=True, help="largest index k")
    p.add_argument("--out", help="output path (default stdout)")


def _simulate_flags(p):
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=256, help="series truncation")
    p.add_argument("--paths", type=int, required=True, help="number of paths")
    p.add_argument("--grid", type=int, default=256, help="grid resolution (grid+1 points)")
    p.add_argument("--seed", type=int, help="RNG seed (or SPECGAUSS_SEED)")
    p.add_argument("--threads", type=int,
                   help="worker thread cap (default: the CPUs this process may use)")
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    p.add_argument("--out", help="output path (default stdout, csv only)")


def _validate_cov_flags(p):
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=256, help="series truncation")
    p.add_argument("--paths", type=int, default=20000, help="number of paths")
    p.add_argument("--grid", type=int, default=33, help="number of grid points")
    p.add_argument("--z-bound", type=float, default=4.0, help="allowed z-score")
    p.add_argument("--seed", type=int, help="RNG seed (or SPECGAUSS_SEED)")
    p.add_argument("--threads", type=int,
                   help="worker thread cap (default: the CPUs this process may use)")
    p.add_argument("--out", help="JSON report path (default stdout)")


def _rate_flags(p):
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--Ns", default="64,128,256,512,1024",
                   help="comma list of truncations")
    p.add_argument("--replicates", type=int, default=200)
    p.add_argument("--slope-tol", type=float, default=0.15)
    p.add_argument("--seed", type=int, help="RNG seed (or SPECGAUSS_SEED)")
    p.add_argument("--out", help="JSON report path (default stdout)")


def _quantize_flags(p):
    _add_model_flags(p)
    p.add_argument("--N", type=int, default=64, help="series truncation")
    p.add_argument("--budget", type=int, required=True, help="codebook size cap")
    p.add_argument("--m", type=int, help="reduced frequencies (default log2 budget)")
    p.add_argument("--grid", type=int, default=65, help="number of grid points")
    p.add_argument("--out", help="codebook CSV path (default stdout); a JSON "
                               "sidecar is written next to it")


# each command's help line, the function that adds its flags and its handler
_COMMANDS = {
    "coeffs": ("cosine coefficient table as CSV", _coeffs_flags, _cmd_coeffs),
    "simulate": ("sample paths on a uniform grid", _simulate_flags, _cmd_simulate),
    "validate-cov": ("covariance validation report", _validate_cov_flags, _cmd_validate_cov),
    "rate": ("uniform-error rate probe report", _rate_flags, _cmd_rate),
    "quantize": ("product-quantizer codebook as CSV", _quantize_flags, _cmd_quantize),
}


def _build_parser(command=None):
    """The parser of the five commands.  When ``command`` names one, only
    its flags are added, since each ``add_argument`` builds a help formatter
    and a run parses one command; otherwise (help, version, usage errors)
    every command's flags are."""
    parser = argparse.ArgumentParser(
        prog="specgauss",
        description="trigonometric-series Gaussian process toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command not in _COMMANDS or command == name:
            add_flags(p)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command][2](parser, args)
    except NumericalFailure as e:
        print(f"specgauss {args.command}: numerical failure: {e}", file=sys.stderr)
        return 3
    except (SpecgaussError, OSError) as e:
        print(f"specgauss {args.command}: {e}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
