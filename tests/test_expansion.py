"""Expansion builders and path sampling: exactness, determinism, round trips."""

import dataclasses
import math
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgauss import _engine, expansion
from specgauss import (
    BadParameter,
    BranchMismatch,
    ClampWarning,
    DeltaOutOfRange,
    NegativeRadicand,
    PathBatch,
    StarViolated,
    TailEstimateUnavailable,
    build_fbm,
    build_generalized_ou,
    build_type_a,
    build_type_b,
    build_type_c,
    builtin_gamma,
    coeffs_closed,
    fbm_coefficients,
    negate_spec,
    sample_paths,
    sample_paths_aliased,
    sample_paths_fast,
    truncation_for_tolerance,
)


@pytest.fixture(scope="module")
def exp_low():
    return build_fbm(0.3, 1.0, 64, fbm_coefficients(0.3, 1.0, 64))


@pytest.fixture(scope="module")
def exp_high():
    return build_fbm(0.75, 1.0, 64, fbm_coefficients(0.75, 1.0, 64))


@pytest.fixture(scope="module")
def exp_ou():
    return build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.0, 1.0, 64)


# one builder per family, each taking the truncation N
FAMILY_BUILDERS = {
    "fbm_low": lambda n: build_fbm(0.3, 1.0, n, fbm_coefficients(0.3, 1.0, n)),
    "fbm_high": lambda n: build_fbm(0.75, 1.0, n, fbm_coefficients(0.75, 1.0, n)),
    "type_a": lambda n: build_type_a(builtin_gamma("power2H", 1.0, hurst=0.3), 1.0, n),
    "type_b": lambda n: build_type_b(
        negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)), 1.0, n
    ),
    "type_c": lambda n: build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, n),
    "gen_ou": lambda n: build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, n),
}


def all_family_expansions(n=64):
    return {name: build(n) for name, build in FAMILY_BUILDERS.items()}


def test_fbm_low_amplitudes_and_drift(exp_low):
    series = fbm_coefficients(0.3, 1.0, 64)
    expect = np.sqrt(-series.values[1:] / 2.0)
    assert np.allclose(exp_low.amp, expect, rtol=0, atol=1e-15)
    assert exp_low.drift_amp == 0.0
    assert exp_low.cos_kind == "omc"
    assert exp_low.drift_kind is None


def test_fbm_high_has_drift(exp_high):
    H = 0.75
    assert exp_high.drift_amp == pytest.approx(math.sqrt(H))
    assert exp_high.family == "fbm_high"


def test_fbm_branch_mismatch_rejected():
    low_series = fbm_coefficients(0.3, 1.0, 32)
    with pytest.raises(BranchMismatch):
        build_fbm(0.75, 1.0, 32, low_series)
    # right branch flag, wrong parameter value
    other = fbm_coefficients(0.2, 1.0, 32)
    with pytest.raises(BranchMismatch):
        build_fbm(0.3, 1.0, 32, other)


def test_fbm_argument_validation():
    s = fbm_coefficients(0.3, 1.0, 16)
    with pytest.raises(BadParameter):
        build_fbm(0.5, 1.0, 16, s)
    with pytest.raises(BadParameter):
        build_fbm(0.3, 1.0, 32, s)  # table shorter than N
    with pytest.raises(BadParameter):
        build_fbm(0.3, 2.0, 16, s)  # horizon mismatch


@pytest.mark.parametrize("build, spec_horizon", [
    (lambda T, N: build_fbm(0.3, T, N, fbm_coefficients(0.3, 1.0, 16)), True),
    (lambda T, N: build_type_a(builtin_gamma("power2H", 1.0, hurst=0.3), T, N), True),
    (lambda T, N: build_type_b(
        negate_spec(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0)), T, N
    ), True),
    (lambda T, N: build_type_c(builtin_gamma("linear", 2.0, slope=1.0), T, N), True),
    (lambda T, N: build_generalized_ou(2.0, 0.0, 0.0, 1.0, 0.0, T, N), False),
], ids=["fbm", "type_a", "type_b", "type_c", "gen_ou"])
def test_builders_share_the_size_and_horizon_checks(build, spec_horizon):
    for T in (0.0, -1.0, math.nan, math.inf, "1"):
        with pytest.raises(BadParameter):
            build(T, 8)
    with pytest.raises(BadParameter):
        build(1.0, -1)
    assert build(1.0, 0).truncation_N == 0
    if spec_horizon:
        with pytest.raises(BadParameter):
            build(2.0, 8)  # the coefficients were made for T = 1


def test_type_builders_reject_wrong_admissible_side():
    with pytest.raises(StarViolated):
        build_type_b(builtin_gamma("exp_decay", 1.0, theta=2.0, sigma2=4.0), 1.0, 16)
    with pytest.raises(StarViolated):
        build_type_c(builtin_gamma("minus_abs", 2.0), 1.0, 16)


def test_type_a_rejects_strong_singularity():
    spec = builtin_gamma("neg_power", 1.0, hurst=0.75)  # delta = 1.5
    with pytest.raises(DeltaOutOfRange):
        build_type_a(spec, 1.0, 16)


def test_type_c_uses_doubled_period():
    exp = build_type_c(builtin_gamma("linear", 2.0, slope=1.0), 1.0, 16)
    assert exp.period_T == pytest.approx(2.0)
    assert exp.horizon_T == pytest.approx(1.0)
    assert exp.cos_kind is None


def test_period_is_derived_from_family_and_horizon():
    exps = all_family_expansions(8)
    for name, exp in exps.items():
        assert exp.period_T == (2.0 if exp.family == "type_c" else 1.0), name
    with pytest.raises(TypeError):
        expansion.SeriesExpansion(
            family="fbm_low", horizon_T=1.0, period_T=1.0, truncation_N=1,
            drift_amp=0.0, amp=[1.0],
        )


def test_family_table_gives_each_basis():
    # (cosine-channel function, drift function, period in horizons)
    expected = {
        "fbm_low": ("omc", None, 1),
        "fbm_high": ("omc", "t", 1),
        "type_a": ("omc", None, 1),
        "type_b": ("cos", "one", 1),
        "type_c": (None, None, 2),
        "gen_ou": (None, None, 2),
    }
    for name, exp in all_family_expansions(8).items():
        got = (exp.cos_kind, exp.drift_kind, exp.period_multiple)
        assert got == expected[name], name
        assert (exp.drift_amp > 0.0) == (name in ("fbm_high", "type_b")), name


@pytest.mark.parametrize("family", ["fbm_low", "type_a", "type_c"])
def test_drift_outside_the_family_basis_is_rejected(family):
    fields = dict(family=family, horizon_T=1.0, truncation_N=1, amp=[1.0])
    assert expansion.SeriesExpansion(**fields, drift_amp=0.0).drift_amp == 0.0
    with pytest.raises(BadParameter, match="no drift term"):
        expansion.SeriesExpansion(**fields, drift_amp=1.0)


def test_amps_from_radicands_clamps_noise_and_rejects_a_sign_violation():
    # the scale is max(1, max |r|) = 9, so the clamp window is [-9e-12, 0)
    r = np.array([4.0, -1e-13, 9.0, -8e-12, 0.0])
    with pytest.warns(ClampWarning, match="probe: clamped 2 tiny negative"):
        amps = expansion._amps_from_radicands(r, "probe")
    assert amps.tolist() == [2.0, 0.0, 3.0, 0.0, 0.0]
    with pytest.raises(NegativeRadicand, match="probe: entry k=4"):
        expansion._amps_from_radicands(np.array([4.0, -1e-13, 9.0, -1e-11]), "probe")


def test_gen_ou_validation():
    with pytest.raises(BadParameter):
        build_generalized_ou(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 8)
    with pytest.raises(BadParameter):
        build_generalized_ou(1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 8)
    with pytest.raises(BadParameter):
        build_generalized_ou(1.0, 0.0, 0.0, 1.0, -0.1, 1.0, 8)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(BadParameter):
            build_generalized_ou(1.0, bad, 0.0, 1.0, 0.0, 1.0, 8)  # alpha
        with pytest.raises(BadParameter):
            build_generalized_ou(1.0, 0.0, bad, 1.0, 0.0, 1.0, 8)  # mu


def test_path_batch_validation():
    with pytest.raises(BadParameter):
        PathBatch(grid=np.array([0.0, 0.0, 1.0]), values=np.zeros((2, 3)), seed=1)
    with pytest.raises(BadParameter):
        PathBatch(grid=np.array([0.0, 1.0]), values=np.zeros((2, 3)), seed=1)
    with pytest.raises(BadParameter):
        PathBatch(grid=np.array([0.0, 1.0]), values=np.array([[0.0, np.inf]]), seed=1)


def truncated(exp, n):
    """The first ``n`` frequencies of ``exp``."""
    return dataclasses.replace(exp, truncation_N=n, amp=exp.amp[:n])


# (N, M) around the band edges of the fold: the Nyquist residue at N = M (or
# 2M for the doubled type-C period), whole bands of 2M frequencies, and a
# deep case with 8 bands (4 for type C)
_FOLD_CASES = [(n, 16) for n in (14, 15, 16, 17, 31, 32, 33)] + [(64, 4)]


def test_fast_path_matches_direct_all_families(monkeypatch):
    families = all_family_expansions()
    for name, full in families.items():
        for n, m in _FOLD_CASES:
            exp = truncated(full, n)
            fast = sample_paths_fast(exp, m, 8, 42)
            direct = sample_paths(exp, fast.grid, 8, 42)
            gap = np.max(np.abs(fast.values - direct.values))
            assert gap <= 1e-10, f"{name} N={n} M={m}: fast vs direct gap {gap:.2e}"
    # a budget of 5 grid columns makes direct synthesis take frequencies in
    # chunks of 5 on a 17-point grid: 13 chunks at N = 64
    with monkeypatch.context() as mp:
        mp.setattr(_engine, "BLOCK_DOUBLES", 5 * 17)
        for name, exp in families.items():
            fast = sample_paths_fast(exp, 16, 8, 42)
            direct = sample_paths(exp, fast.grid, 8, 42)
            gap = np.max(np.abs(fast.values - direct.values))
            assert gap <= 1e-10, f"{name} chunked: fast vs direct gap {gap:.2e}"


def test_fast_path_is_byte_identical_across_blocks_and_threads(monkeypatch):
    n_paths = 23  # not a multiple of any block size below
    for name, exp in all_family_expansions().items():
        ref = sample_paths_fast(exp, 8, n_paths, 6).values
        # a row holds its draws, the fold's residue table once N >= 2L
        # (L = 8 cells per half period, 16 on type C's doubled grid), the
        # spectrum and the transform buffer
        row = _engine.draw_width(exp) + _engine.grid_row_doubles(
            exp.period_multiple * 8, exp.truncation_N)
        # three threads share blocks of 7 rows as three workers of 2, and
        # blocks of 12 as two workers of 6; the cutoff is lifted for these
        # 129-normal rows
        for rows in (1, 7, 12, None):
            budget = _engine.BLOCK_DOUBLES if rows is None else rows * row
            with monkeypatch.context() as mp:
                mp.setattr(_engine, "BLOCK_DOUBLES", budget)
                mp.setattr(_engine, "PARALLEL_MIN_DRAWS", 0)
                for threads in (1, 3):
                    got = sample_paths_fast(exp, 8, n_paths, 6, threads=threads).values
                    assert got.tobytes() == ref.tobytes(), f"{name} rows={rows} threads={threads}"


def test_fast_path_memory_is_bounded_by_the_block_budget():
    n = 1 << 16
    amps = np.arange(1, n + 1, dtype=float) ** -0.8
    exp = expansion.SeriesExpansion(
        family="fbm_low", horizon_T=1.0, truncation_N=n,
        drift_amp=0.0, amp=amps,
    )
    tracemalloc.start()
    try:
        sample_paths_fast(exp, 32, 256, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # all 256 paths at once would need 256 * (2N + 1) doubles, 32x the budget
    assert peak < 2 * 8 * _engine.BLOCK_DOUBLES, f"peak {peak / 2**20:.1f} MiB"


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _assert_within_two_blocks(batch, peak):
    bound = batch.values.nbytes + 2 * 8 * _engine.BLOCK_DOUBLES
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_grid_heavy_fast_sampling_writes_in_place_within_two_blocks():
    # N = M: one block of 2000 paths whose draws and grid values are both
    # large, so every block-sized temporary would show
    exp = build_fbm(0.75, 1.0, 1024, fbm_coefficients(0.75, 1.0, 1024))
    _assert_within_two_blocks(*_traced_peak(lambda: sample_paths_fast(exp, 1024, 2000, 1)))


def _assert_within_one_budget(out_bytes, peak):
    # the output plus one block budget; 1 MiB covers the per-call tables
    bound = out_bytes + 8 * _engine.BLOCK_DOUBLES + 2**20
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_workers_share_one_budget():
    # the same wide rows on four workers: their draws and workspaces
    # together hold one budget, not one each
    exp = build_fbm(0.75, 1.0, 1024, fbm_coefficients(0.75, 1.0, 1024))
    sample_paths_fast(exp, 1024, 1, 1)
    batch, peak = _traced_peak(lambda: sample_paths_fast(exp, 1024, 2000, 1, threads=4))
    _assert_within_one_budget(batch.values.nbytes, peak)


def test_fast_sampling_holds_the_output_and_one_budget():
    # N = M = 1024, 2000 paths: the spectrum and transform buffer of a row
    # (4L + 2 doubles) outweigh its 2N + 1 draws, and count against the
    # same budget
    exp = build_fbm(0.75, 1.0, 1024, fbm_coefficients(0.75, 1.0, 1024))
    sample_paths_fast(exp, 1024, 1, 1)  # lazy imports are not the block's
    batch, peak = _traced_peak(lambda: sample_paths_fast(exp, 1024, 2000, 1))
    _assert_within_one_budget(batch.values.nbytes, peak)


def test_direct_synthesis_holds_the_output_and_one_budget():
    # N = 32768 on 33 points: the basis of all N frequencies would be 8.6 MB;
    # the rows' draws and one in-place basis block share the budget
    exp = build_fbm(0.3, 1.0, 32768, fbm_coefficients(0.3, 1.0, 32768))
    grid = np.linspace(0.0, 1.0, 33)
    sample_paths(exp, grid, 1, 1)
    batch, peak = _traced_peak(lambda: sample_paths(exp, grid, 32, 1))
    _assert_within_one_budget(batch.values.nbytes, peak)
    fast = sample_paths_fast(exp, 32, 32, 1)
    assert np.max(np.abs(fast.values - batch.values)) <= 1e-10


def test_aliased_sampling_writes_in_place_within_two_blocks():
    # 40 blocks of 511 paths, with the initial-value term of gen-OU
    exp = build_generalized_ou(2.0, 0.0, 0.0, 2.0, 0.5, 1.0, 512)
    _assert_within_two_blocks(*_traced_peak(lambda: sample_paths_aliased(exp, 128, 20000, 2)))


@pytest.fixture(scope="module")
def wide_batch(exp_ou):
    return sample_paths_fast(exp_ou, 1024, 400, 3)


def test_binary_writer_makes_no_copy_of_the_batch(tmp_path, wide_batch):
    path = tmp_path / "paths.bin"
    _, peak = _traced_peak(lambda: wide_batch.to_binary(path))
    assert peak < 2**20, f"to_binary peak {peak / 2**20:.2f} MiB"
    assert path.read_bytes() == wide_batch.to_binary_bytes()


def test_binary_reader_reads_straight_into_the_batch(tmp_path, wide_batch):
    path = tmp_path / "paths.bin"
    path.write_bytes(wide_batch.to_binary_bytes())
    back, peak = _traced_peak(lambda: PathBatch.from_binary(path))
    nbytes = wide_batch.grid.nbytes + wide_batch.values.nbytes
    assert peak < nbytes + 2**20, f"from_binary peak {peak / 2**20:.2f} MiB"
    assert back.values.tobytes() == wide_batch.values.tobytes()
    assert back.grid.tobytes() == wide_batch.grid.tobytes()
    assert back.seed == wide_batch.seed


def test_sampling_is_deterministic_and_extends_by_path(exp_low):
    a = sample_paths_fast(exp_low, 32, 12, 7)
    b = sample_paths_fast(exp_low, 32, 12, 7)
    assert np.array_equal(a.values, b.values)
    # per-path seeding: a longer run reproduces the shorter one as a prefix
    c = sample_paths_fast(exp_low, 32, 30, 7)
    assert np.array_equal(c.values[:12], a.values)
    d = sample_paths_fast(exp_low, 32, 12, 8)
    assert not np.array_equal(a.values, d.values)


def test_threading_does_not_change_values(exp_low, monkeypatch):
    # blocks of 100 paths, so that four workers share them
    monkeypatch.setattr(_engine, "BLOCK_DOUBLES", 100 * (129 + _engine.grid_row_doubles(16, 64)))
    monkeypatch.setattr(_engine, "PARALLEL_MIN_DRAWS", 0)
    one = sample_paths_fast(exp_low, 16, 2500, 5, threads=1)
    many = sample_paths_fast(exp_low, 16, 2500, 5, threads=4)
    assert np.array_equal(one.values, many.values)


def test_fbm_paths_start_at_zero(exp_low, exp_high):
    for exp in (exp_low, exp_high):
        batch = sample_paths_fast(exp, 16, 50, 3)
        assert np.max(np.abs(batch.values[:, 0])) <= 1e-12


def test_gen_ou_initial_values():
    pinned = build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.0, 1.0, 32)
    batch = sample_paths_fast(pinned, 16, 200, 11)
    assert np.max(np.abs(batch.values[:, 0] - 1.0)) <= 1e-12

    loose = build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.7, 1.0, 32)
    batch = sample_paths_fast(loose, 16, 4000, 11)
    x0 = batch.values[:, 0]
    assert np.std(x0) == pytest.approx(0.7, rel=0.1)
    assert np.mean(x0) == pytest.approx(1.0, abs=0.05)


def test_gen_ou_mean_function():
    exp = build_generalized_ou(2.0, 0.5, 1.0, 2.0, 0.0, 1.0, 64)
    t = np.linspace(0, 1, 9)
    expect = 1.0 * np.exp(-2.0 * t) + 0.5 * (1.0 - np.exp(-2.0 * t))
    batch = sample_paths_fast(exp, 8, 20000, 19)
    emp = batch.values.mean(axis=0)
    assert np.max(np.abs(emp - expect)) <= 0.05


def test_sampling_argument_validation(exp_low):
    for uniform in (sample_paths_fast, sample_paths_aliased):
        with pytest.raises(BadParameter):
            uniform(exp_low, 16, 0, 1)
        with pytest.raises(BadParameter):
            uniform(exp_low, 0, 5, 1)
        with pytest.raises(BadParameter):
            uniform(exp_low, 16, 5, 1.5)
        # M is the resolution only: a grid array, even the uniform one, is not
        for grid in (np.array([0.0, 0.3, 1.0]), np.linspace(0.0, 1.0, 9)):
            with pytest.raises(BadParameter, match="M must be an integer"):
                uniform(exp_low, grid, 5, 1)
    with pytest.raises(BadParameter):
        sample_paths(exp_low, np.array([0.0, 0.3, 0.2]), 5, 1)


def test_csv_and_binary_round_trips(tmp_path, exp_ou):
    batch = sample_paths_fast(exp_ou, 16, 9, 77)
    csv_path = tmp_path / "paths.csv"
    batch.to_csv(csv_path, comments=["extra metadata"])
    back = PathBatch.from_csv(csv_path)
    assert np.array_equal(back.values, batch.values)
    assert np.array_equal(back.grid, batch.grid)
    assert back.seed == batch.seed
    assert back.truncation_N == batch.truncation_N

    bin_path = tmp_path / "paths.bin"
    batch.to_binary(bin_path)
    back2 = PathBatch.from_binary(bin_path)
    assert np.array_equal(back2.values, batch.values)
    assert np.array_equal(back2.grid, batch.grid)
    assert back2.seed == batch.seed


def _corrupt_blobs(blob):
    """(message fragment, corrupted blob) for each rejection of the format."""
    yield "bytes, expected", blob + b"junk"
    yield "bytes, expected", blob[:-1]
    yield "truncated header", blob[:10]
    yield "bad magic", b"XXXX" + blob[4:]
    yield "unsupported version", blob[:4] + struct.pack("<I", 2) + blob[8:]


def test_binary_readers_reject_corrupt_batches(tmp_path, exp_ou):
    blob = sample_paths_fast(exp_ou, 16, 9, 77).to_binary_bytes()
    for why, bad in _corrupt_blobs(blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(bad)
        with pytest.raises(BadParameter, match=why):
            PathBatch.from_binary(path)
        with pytest.raises(BadParameter, match=why):
            PathBatch.from_binary_bytes(bad)


def test_truncation_for_tolerance():
    s = coeffs_closed("brownian_example", 1.0, 2048)
    from specgauss import tail_sum

    # 1e-4 lies far beyond the table, where the fitted decay continues
    ns = []
    for eps in (0.3, 0.1, 0.05, 1e-4):
        n = truncation_for_tolerance(s, eps)
        assert math.sqrt(2.0 * tail_sum(s, n)) <= eps
        if n > 1:
            assert math.sqrt(2.0 * tail_sum(s, n - 1)) > eps
        ns.append(n)
    assert ns == sorted(ns) and ns[-1] > 2048
    with pytest.raises(BadParameter):
        truncation_for_tolerance(s, 0.0)


@pytest.mark.parametrize("H, eps", [(0.3, 0.1), (0.3, 0.02), (0.75, 1e-3)])
def test_truncation_for_tolerance_searches_the_exact_fbm_tail_beyond_the_table(H, eps):
    from specgauss import tail_sum

    s = fbm_coefficients(H, 1.0, 64)
    n = truncation_for_tolerance(s, eps)
    assert n > s.k_max
    assert math.sqrt(2.0 * tail_sum(s, n)) <= eps < math.sqrt(2.0 * tail_sum(s, n - 1))
    # the tail rule is the table's own: a table reaching n has the same tail there
    assert tail_sum(fbm_coefficients(H, 1.0, n), n) == tail_sum(s, n)


def test_path_csv_rejects_malformed_rows(tmp_path, exp_ou):
    good = sample_paths_fast(exp_ou, 4, 3, 1).to_csv_text().splitlines()
    first_data = next(i for i, line in enumerate(good) if line[0].isdigit())
    # (0-based index of the edited line, its new text, 1-based line reported)
    bad_lines = {
        "non-numeric": (first_data + 1, good[first_data].replace(",", ",abc,", 1), first_data + 2),
        "ragged": (first_data + 1, good[first_data] + ",0.5", first_data + 2),
        # every data row agrees with the others, but not with the header
        "header-width": (first_data - 1, good[first_data - 1] + ",path_3", first_data + 1),
    }
    for kind, (index, bad, lineno) in bad_lines.items():
        lines = list(good)
        lines[index] = bad
        path = tmp_path / f"{kind}.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(BadParameter, match=rf"{kind}\.csv: line {lineno}"):
            PathBatch.from_csv(path)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_finite, min_size=1, max_size=6, unique=True),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_path_csv_round_trips_arbitrary_finite_floats(grid, n_paths, data):
    grid = np.sort(np.array(grid))
    values = np.array(
        data.draw(st.lists(st.lists(_finite, min_size=grid.size, max_size=grid.size),
                           min_size=n_paths, max_size=n_paths))
    )
    batch = PathBatch(grid=grid, values=values, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "paths.csv")
        batch.to_csv(path)
        back = PathBatch.from_csv(path)
    assert back.grid.tobytes() == batch.grid.tobytes()
    assert back.values.tobytes() == batch.values.tobytes()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_finite, min_size=1, max_size=6, unique=True),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.data(),
)
def test_path_binary_round_trips_arbitrary_finite_floats(grid, n_paths, seed, data):
    grid = np.sort(np.array(grid))
    values = np.array(
        data.draw(st.lists(st.lists(_finite, min_size=grid.size, max_size=grid.size),
                           min_size=n_paths, max_size=n_paths))
    ).reshape(n_paths, grid.size)
    batch = PathBatch(grid=grid, values=values, seed=seed)
    back = PathBatch.from_binary_bytes(batch.to_binary_bytes())
    assert back.grid.tobytes() == batch.grid.tobytes()
    assert back.values.tobytes() == batch.values.tobytes()
    # the v1 header stores the 64-bit word the sampler keys on
    assert back.seed == seed % 2**64
