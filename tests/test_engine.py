"""The sampling engine's draw discipline, and the module boundary around it."""

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from test_expansion import all_family_expansions, truncated

from specgauss import (
    _engine,
    build_fbm,
    build_generalized_ou,
    fbm_coefficients,
    sample_paths_aliased,
    sample_paths_fast,
    series_cov_grid,
    series_cov_uniform,
    series_var_uniform,
)

_SRC = pathlib.Path(_engine.__file__).parent


@pytest.mark.parametrize("seed", [0, -7, 2**64 + 3])
def test_run_blocks_hands_each_path_its_own_philox_stream(monkeypatch, seed):
    n, n_paths = 5, 11
    cases = [
        (build_fbm(0.3, 1.0, n, fbm_coefficients(0.3, 1.0, n)), 2 * n + 1),
        (build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, n), 2 * n + 2),
    ]
    hi = (seed % 2**64) << 64
    for exp, width in cases:
        ref = np.array([np.random.Generator(np.random.Philox(key=hi + i)).standard_normal(width)
                        for i in range(n_paths)])
        for budget in (width, _engine.BLOCK_DOUBLES):
            for threads in (1, 3):
                got = np.full((n_paths, width), np.nan)

                def block(start, stop, z):
                    assert z.shape == (stop - start, width)
                    got[start:stop] = z

                with monkeypatch.context() as mp:
                    mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                    _engine.run_blocks(exp, n_paths, 1, seed, threads, block)
                assert got.tobytes() == ref.tobytes(), f"width={width} budget={budget} threads={threads}"


_M = 16
# around the band edges of the fold at M = 16 (L = 16, or 32 for type C):
# one residue per frequency up to N = 2L, then whole 2L-wide bands plus a
# remainder (32 bands and 5 at N = 1029)
_ALIAS_NS = (_M - 2, _M - 1, _M, _M + 1, 2 * _M - 1, 2 * _M, 2 * _M + 1,
             4 * _M, 4 * _M + 3, 64 * _M + 5, 1000)


@pytest.fixture(scope="module")
def deep_families():
    return all_family_expansions(max(_ALIAS_NS))


def _aliased_width(exp, table):
    return 2 * table.shape[0] + 1 + (exp.init_coupling is not None)


def test_aliased_values_carry_the_series_covariance_on_the_grid(deep_families):
    # aliased_values is affine in the draws: its rows at the unit vectors,
    # less its mean, are the columns B of the map, and B^T B is the grid law
    tgrid = np.arange(_M + 1) / _M
    for name, full in deep_families.items():
        for n in _ALIAS_NS:
            exp = truncated(full, n)
            table = _engine.folded_amplitudes(exp, _M)
            cells = 2 * _M if exp.family == "type_c" else _M
            assert table.shape == (min(n, 2 * cells), 2)
            width = _aliased_width(exp, table)
            mean = _engine.aliased_values(exp, _M, table, np.zeros((1, width)))
            basis = _engine.aliased_values(exp, _M, table, np.eye(width)) - mean
            ref = series_cov_grid(exp, tgrid)
            err = np.max(np.abs(basis.T @ basis - ref)) / np.max(np.abs(ref))
            assert err <= 1e-12, f"{name} N={n}: relative covariance error {err:.2e}"


def test_folded_covariance_is_the_trig_covariance_on_the_grid(deep_families):
    # N = 2L folds a frequency onto residue 0, N > 2L aliases whole bands,
    # and pair sums i + j > L read the mirror Phi(2L - d).  The builders give
    # both channels the same amplitudes, which cancels the i + j terms
    # between them, so each family with a cosine channel is also checked
    # with halved cosine amplitudes.
    for m in (1, 15, 16):
        tgrid = np.arange(m + 1) * (1.0 / m)
        for name, full in deep_families.items():
            for n in _ALIAS_NS:
                exp = truncated(full, n)
                cases = [exp]
                if exp.cos_amp is not None:
                    cases.append(dataclasses.replace(exp, cos_amp=0.5 * exp.cos_amp))
                for case in cases:
                    got = series_cov_uniform(case, m)
                    ref = series_cov_grid(case, tgrid)
                    # each pair's terms are bounded by sqrt(var(s) var(t))
                    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                    err = np.max(np.abs(got - ref) - 1e-13 * scale)
                    where = f"{name} N={n} M={m} halved cosines={case is not exp}"
                    assert err <= 0.0, f"{where}: excess error {err:.2e}"
                    assert np.array_equal(series_var_uniform(case, m), np.diag(got)), where


def test_aliased_sampler_is_the_fast_sampler_up_to_one_residue_per_frequency(deep_families):
    for name, full in deep_families.items():
        cells = 2 * _M if full.family == "type_c" else _M
        for n in _ALIAS_NS:
            if n > 2 * cells:
                continue
            exp = truncated(full, n)
            got = sample_paths_aliased(exp, _M, 9, 5).values
            ref = sample_paths_fast(exp, _M, 9, 5).values
            assert got.tobytes() == ref.tobytes(), f"{name} N={n}"


@pytest.mark.parametrize("seed", [0, -7])
def test_aliased_sampler_draws_each_path_from_its_own_philox_stream(
        monkeypatch, deep_families, seed):
    n_paths = 11
    hi = (seed % 2**64) << 64
    for name in ("fbm_high", "gen_ou"):
        exp = truncated(deep_families[name], 4 * _M + 3)
        table = _engine.folded_amplitudes(exp, _M)
        width = _aliased_width(exp, table)
        draws = np.array([np.random.Generator(np.random.Philox(key=hi + i)).standard_normal(width)
                          for i in range(n_paths)])
        ref = _engine.aliased_values(exp, _M, table, draws)
        # the last budget draws all paths in one block that spans several
        # transform sub-blocks of BLOCK_DOUBLES // 8 doubles: six of two rows
        # for fBm, eleven of one on gen-OU's doubled grid (type C)
        for budget in (width, _engine.BLOCK_DOUBLES, 8 * (4 * _M + 2) * 2):
            with monkeypatch.context() as mp:
                mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                for threads in (1, 3):
                    got = sample_paths_aliased(exp, _M, n_paths, seed, threads=threads).values
                    assert got.tobytes() == ref.tobytes(), f"{name} budget={budget} threads={threads}"


# the runtime dependencies declared in pyproject.toml: one numeric backend
_DEPENDENCIES = {"numpy", "scipy"}


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign(module):
    top = module.split(".")[0]
    return top not in _DEPENDENCIES and top not in sys.stdlib_module_names


def _boundary_breaches(source):
    """Private names a module takes from a sibling module, and imports of
    packages that are neither declared dependencies nor the standard library."""
    tree = ast.parse(source)
    siblings = set()  # local names bound to sibling modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if _foreign(a.name)]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if _foreign(node.module):
                    found.append(node.module)
            elif node.module is None:
                siblings.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if _private(a.name)]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_modules_take_no_private_name_from_a_sibling():
    assert _boundary_breaches("from .expansion import _fold, build_fbm") == ["expansion._fold"]
    assert _boundary_breaches("from . import expansion as e\ne._fold(1)") == ["e._fold"]
    assert _boundary_breaches("import cupy\nfrom jax import jit\nimport scipy.fft") == ["cupy", "jax"]
    breaches = {
        path.name: found
        for path in sorted(_SRC.glob("*.py"))
        if (found := _boundary_breaches(path.read_text(encoding="utf-8")))
    }
    assert not breaches


def test_importing_the_cli_loads_neither_scipy_fft_nor_scipy_special():
    # numpy.fft does every transform, and quantize imports scipy.special
    # inside the functions that call it, so a command starts without either
    code = "import sys, specgauss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.')))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    loaded = ast.literal_eval(done.stdout)
    assert not {"scipy.fft", "scipy.special"} & set(loaded), loaded
