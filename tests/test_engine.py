"""The sampling engine's draw discipline, and the module boundary around it."""

import ast
import os
import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest
from test_expansion import all_family_expansions, sample_folded, truncated

from specgauss import (
    CovModel,
    _engine,
    aliased_expansion,
    build_fbm,
    build_generalized_ou,
    fbm_coefficients,
    rate_probe,
    sample_paths,
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
    # rows this narrow run on one worker unless the cutoff is lifted
    monkeypatch.setattr(_engine, "PARALLEL_MIN_DRAWS", 0)
    for exp, width in cases:
        ref = np.array([np.random.Generator(np.random.Philox(key=hi + i)).standard_normal(width)
                        for i in range(n_paths)])
        # blocks of one path on one worker, of one path on three, and of all
        for budget in (width, 3 * width, _engine.BLOCK_DOUBLES):
            for threads in (1, 3):
                got = np.full((n_paths, width), np.nan)

                def block(start, stop, z, work):
                    assert z.shape == (stop - start, width) and work.size == 0
                    got[start:stop] = z

                with monkeypatch.context() as mp:
                    mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                    _engine.run_blocks(exp, n_paths, 0, seed, threads, block)
                assert got.tobytes() == ref.tobytes(), f"width={width} budget={budget} threads={threads}"


_M = 16
# around the band edges of the fold at M = 16 (L = 16, or 32 for type C):
# one residue per frequency up to N = 2L, residues past L reflected onto
# 2L - r, residue 0 from N = 2L, then whole 2L-wide bands plus a remainder
# (32 bands and 5 at N = 1029)
_ALIAS_NS = (_M - 2, _M - 1, _M, _M + 1, 2 * _M - 1, 2 * _M, 2 * _M + 1,
             4 * _M, 4 * _M + 3, 64 * _M + 5, 1000)


@pytest.fixture(scope="module")
def deep_families():
    return all_family_expansions(max(_ALIAS_NS))


def _fast(exp, m, z):
    """fast_values of the draws ``z`` with a workspace of its own."""
    work = np.empty(z.shape[0] * _engine.grid_row_doubles(exp, m))
    out = np.empty((z.shape[0], m + 1))
    return _engine.fast_values(exp, m, _engine.draw_weights(exp), z, work, out)


def test_aliased_values_carry_the_series_covariance_on_the_grid(deep_families):
    # the folded expansion's grid covariance, from its amplitudes and from
    # its sampler: fast_values is affine in the draws, so its rows at the
    # unit vectors, less its mean, are the columns B of the map, and B^T B
    # is the grid law
    tgrid = np.arange(_M + 1) / _M
    for name, full in deep_families.items():
        for n in _ALIAS_NS:
            exp = truncated(full, n)
            folded = aliased_expansion(exp, _M)
            cells = 2 * _M if exp.family == "type_c" else _M
            # one frequency per reflected residue 1 .. min(N, L)
            assert folded.truncation_N == folded.amp.size == min(n, cells)
            assert folded.coeff_series is None and folded.family == exp.family
            ref = series_cov_grid(exp, tgrid)
            width = _engine.draw_width(folded)
            mean = _fast(folded, _M, np.zeros((1, width)))
            basis = _fast(folded, _M, np.eye(width)) - mean
            for route, cov in (("data", series_cov_grid(folded, tgrid)), ("draws", basis.T @ basis)):
                err = np.max(np.abs(cov - ref)) / np.max(np.abs(ref))
                assert err <= 1e-12, f"{name} N={n} {route}: relative covariance error {err:.2e}"


def test_folded_covariance_is_the_trig_covariance_on_the_grid(deep_families):
    # N = 2L folds a frequency onto residue 0 and N > 2L aliases whole
    # bands; the families between them check all three folded formulas.
    for m in (1, 15, 16):
        tgrid = np.arange(m + 1) * (1.0 / m)
        for name, full in deep_families.items():
            for n in _ALIAS_NS:
                exp = truncated(full, n)
                got = series_cov_uniform(exp, m)
                ref = series_cov_grid(exp, tgrid)
                # each pair's terms are bounded by sqrt(var(s) var(t))
                scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
                err = np.max(np.abs(got - ref) - 1e-13 * scale)
                where = f"{name} N={n} M={m}"
                assert err <= 0.0, f"{where}: excess error {err:.2e}"
                assert np.array_equal(series_var_uniform(exp, m), np.diag(got)), where


def test_aliased_sampler_is_the_fast_sampler_up_to_one_residue_per_frequency(deep_families):
    for name, full in deep_families.items():
        cells = 2 * _M if full.family == "type_c" else _M
        for n in _ALIAS_NS:
            # past N = L residue r and 2L - r share one pair of draws
            if n > cells:
                continue
            exp = truncated(full, n)
            got = sample_folded(exp, _M, 9, 5).values
            ref = sample_paths_fast(exp, _M, 9, 5).values
            assert got.tobytes() == ref.tobytes(), f"{name} N={n}"


@pytest.mark.parametrize("seed", [0, -7])
def test_aliased_sampler_draws_each_path_from_its_own_philox_stream(
        monkeypatch, deep_families, seed):
    n_paths = 11
    hi = (seed % 2**64) << 64
    for name in ("fbm_high", "gen_ou"):
        exp = truncated(deep_families[name], 4 * _M + 3)
        folded = aliased_expansion(exp, _M)
        width = _engine.draw_width(folded)
        # Z_0, one (sine, cosine) pair per residue 1 .. min(N, L), and the
        # initial-value draw of gen-OU
        cells = exp.period_multiple * _M
        assert width == 2 * cells + 1 + (name == "gen_ou")
        draws = np.array([np.random.Generator(np.random.Philox(key=hi + i)).standard_normal(width)
                          for i in range(n_paths)])
        ref = _fast(folded, _M, draws)
        # blocks of one path, of all paths, and of two paths with their
        # spectra and transform buffers (gen-OU's on its doubled grid, type
        # C), which three threads share as two workers of one path each
        row = width + _engine.grid_row_doubles(folded, _M)
        for budget in (row, _engine.BLOCK_DOUBLES, 2 * row):
            with monkeypatch.context() as mp:
                mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                mp.setattr(_engine, "PARALLEL_MIN_DRAWS", 0)
                for threads in (1, 3):
                    got = sample_folded(exp, _M, n_paths, seed, threads=threads).values
                    assert got.tobytes() == ref.tobytes(), f"{name} budget={budget} threads={threads}"


def _workers_seen(mp, exp, n_paths, threads, cpus, budget_rows, row_doubles=0, workers=1):
    """The threads that ran blocks of ``exp`` when the engine sees ``cpus``
    CPUs and one budget holds ``budget_rows`` rows, and the largest
    workspace a block got.

    Each thread's first block waits until ``workers`` threads have started
    one, so that no worker finishes before the next is submitted, which
    would let the pool run the next on the idle thread."""
    seen, spaces = set(), [0]
    barrier = threading.Barrier(workers, timeout=30)
    mp.setattr(_engine, "_cpu_count", lambda: cpus)
    mp.setattr(_engine, "BLOCK_DOUBLES", budget_rows * (_engine.draw_width(exp) + row_doubles))

    def block(start, stop, z, work):
        ident = threading.get_ident()
        if ident not in seen:
            seen.add(ident)
            barrier.wait()
        spaces.append(work.size)

    _engine.run_blocks(exp, n_paths, row_doubles, 1, threads, block)
    return seen, max(spaces)


def test_worker_count_is_the_cap_within_blocks_and_width(monkeypatch):
    wide = build_fbm(0.3, 1.0, 200, fbm_coefficients(0.3, 1.0, 200))  # 401 normals a row
    narrow = build_fbm(0.3, 1.0, 100, fbm_coefficients(0.3, 1.0, 100))  # 201
    assert _engine.draw_width(narrow) < _engine.PARALLEL_MIN_DRAWS <= _engine.draw_width(wide)
    main = {threading.get_ident()}
    # unset, the cap is the CPUs this process may use
    for cpus in (1, 2, 3):
        assert len(_workers_seen(monkeypatch, wide, 60, None, cpus, 12, workers=cpus)[0]) == cpus
    # a set cap overrides the CPU count; the calling thread is worker 0, and
    # the four workers' draws and workspaces share the one budget of 12 rows
    seen, space = _workers_seen(monkeypatch, wide, 60, 4, 1, 12, row_doubles=30, workers=4)
    assert len(seen) == 4 and main <= seen and space == 3 * 30
    # narrow rows run on the calling thread alone, whatever the cap
    assert _workers_seen(monkeypatch, narrow, 60, 4, 4, 12)[0] == main
    # a batch that one budget holds is never split
    assert _workers_seen(monkeypatch, wide, 12, 4, 4, 12)[0] == main
    # nor is one row: each worker's share of the budget must hold a row
    assert _workers_seen(monkeypatch, wide, 60, 4, 4, 1)[0] == main


def test_values_are_byte_identical_whatever_the_cpu_count(monkeypatch):
    # a budget of 2^14 doubles makes 4 to 17 blocks of each run below, so
    # that with the thread cap unset up to three workers share them; direct
    # synthesis runs on one worker whatever the CPU count
    fbm = build_fbm(0.3, 1.0, 200, fbm_coefficients(0.3, 1.0, 200))
    ou = build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 300)
    deep_ou = build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 4096)

    def probe():
        res = rate_probe(CovModel.fbm(0.3, 1.0), [8, 16, 32], 100, 3)
        return np.array([*res.sup_err_estimates, *res.sup_err_stderrs, res.fitted_slope])

    runs = {
        "fast-fbm": lambda: sample_paths_fast(fbm, 16, 97, 3).values,
        "fast-gen-ou": lambda: sample_paths_fast(ou, 16, 97, 3).values,
        "aliased-gen-ou": lambda: sample_folded(deep_ou, 128, 97, 3).values,
        "rate-probe": probe,
    }
    monkeypatch.setattr(_engine, "BLOCK_DOUBLES", 1 << 14)
    got = {}
    # three workers on fewer cores, switching often: a write lost between
    # workers would show as a changed byte
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(_engine, "_cpu_count", lambda: cpus)
            for name, run in runs.items():
                got.setdefault(name, []).append(run().tobytes())
            got.setdefault("direct", []).append(
                sample_paths(fbm, np.linspace(0.0, 1.0, 17), 97, 3).values.tobytes()
            )
    finally:
        sys.setswitchinterval(interval)
    for name, values in got.items():
        assert values[0] == values[1] == values[2], name


# the runtime dependencies declared in pyproject.toml: one numeric backend
_DEPENDENCIES = {"numpy"}


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
    assert _boundary_breaches("import cupy\nfrom jax import jit\nimport scipy.fft") == ["cupy", "jax", "scipy.fft"]
    breaches = {
        path.name: found
        for path in sorted(_SRC.glob("*.py"))
        if (found := _boundary_breaches(path.read_text(encoding="utf-8")))
    }
    assert not breaches


def test_a_quantize_command_loads_no_scipy_module(tmp_path):
    # quantize is the command with the most numerics (normal tails, the
    # inverse normal cdf, tridiagonal Newton solves); numpy and the standard
    # library serve it all
    code = ("import sys\nfrom specgauss import cli\n"
            "code = cli.main(['quantize', '--model', 'fbm', '--hurst', '0.4', '--budget', '20',"
            " '--out', sys.argv[1]])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(_SRC.parent), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "book.csv")], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split(None, 1) == ["0", "[]\n"], done.stdout
