"""The sampling engine: draws, path blocks, fold, transforms, direct synthesis.

This is the one module that knows how the random draws of a
:class:`~specgauss.expansion.SeriesExpansion` are laid out.  An expansion
carries one amplitude per frequency plus the family table: each frequency's
(sine, cosine) draw pair takes its one amplitude, or the amplitude and 0
when the family has no cosine channel (``cos_kind``), and the engine reads
the basis from ``cos_kind``, ``drift_kind`` and ``period_multiple`` alone.

Draw discipline: the doubly-indexed normals are serialized per path as
(Z_0, Z_1, Z_-1, Z_2, Z_-2, ...), generated from a counter-based Philox
stream keyed by (path index, seed), the stream of ``Philox(key=(seed mod
2^64) 2^64 + index)``.  Each worker keeps one bit generator and re-keys it
per path in place: it writes the key's word 0, the counter and the buffer
position through views of numpy's Philox state, which it checks against
``bitgen.state`` once per call (:func:`run_blocks`).  Every family draws
the full block of 2N+1 normals (plus one trailing draw for the initial
value when present), whether or not it consumes all of them, so a path's
randomness depends only on (seed, index), never on the family or the
execution schedule.  On the uniform grid an expansion has the law of its
folded expansion (:func:`specgauss.expansion.aliased_expansion`), an
ordinary expansion of R = min(N, L) frequencies, one per distinct grid
function, with the amplitudes of :func:`folded_amplitudes`; its paths draw
2R+1 normals in the same layout, plus the initial-value draw, and for
N <= L they are exactly the paths of the expansion itself.

Sampling streams paths one bounded block at a time, and everything the
engine holds per path row counts against one budget of ``BLOCK_DOUBLES``
doubles (8 MiB) per call, shared by its workers: the row's draws, the fold's
residue table past N = 2L (4L doubles), the Hermitian half spectrum
(2(L + 1) doubles) and the inverse transform's 2L values
(:func:`grid_row_doubles`).  Each worker's draw buffer and workspace are
allocated once per call; normals are drawn straight into the draw buffer,
weighted in place, folded onto the grid's residues and transformed as one
block, one inverse real FFT over all its rows, in views carved from the
workspace, straight into the caller's output rows before the next block is
drawn.  Sampling memory is therefore the budget whatever N and the worker
count are, or one row when a single row outgrows it (one path of fBm past
N = 2^19 on a small grid).  The worker count defaults to the CPUs the
process may run on (:func:`run_blocks`).  Because every path keeps its own
stream and every per-path operation is row-independent, the fast sampler's
values are byte-identical across block sizes and thread counts.

On a uniform grid the series is a fold plus one inverse real FFT of one
Hermitian spectrum (:func:`fast_values`, :func:`_spectrum`);
:func:`direct_values` sums the basis at arbitrary points and is the
reference the fast route is checked against; its caller runs it on one
worker, since BLAS already parallelizes its matrix products.  The rate probe's fBm
residuals need no fold (their frequencies stay below the grid's Nyquist),
so :func:`residual_sups` maps a whole ladder of them from one spectrum,
one inverse real FFT per rung.

One fold of the squared amplitudes (:func:`folded_variances`) serves both
the folded expansion and the covariance: the root of its reflection onto
residues 1 .. L gives the folded amplitudes, and its real FFT
(:func:`folded_cosine_sums`) gives the covariance of the series on the
grid, from which :mod:`specgauss.validate` reads every pair
without evaluating a sine or cosine per frequency.
"""

import ctypes
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import SpecgaussError

# Everything the workers of one sampling call hold, draws and transform
# buffers alike, fits this many doubles (8 MiB), so sampling memory grows
# with neither N, M nor the worker count.  The covariance grid bounds its
# basis blocks by it too.  One worker keeps 6 rows of the rate probe's
# 65536-point transforms in a block, two keep 3 each.  Blocks of 3 rows make
# the whole probe about 12 % slower than blocks of 4 on one worker (275
# against 245 ms), yet two workers of 3 rows run it in 143 ms against 240 ms
# for one of 6; a fourth row each (130 ms) would hold a third more than the
# budget (2-core box).
BLOCK_DOUBLES = 1 << 20

# Rows of fewer normals than this run on one worker.  Re-keying a path's
# stream holds the interpreter lock (about 0.3 us) while its normals, fold
# and transform release it, so narrow rows contend instead of gaining: two
# workers drawing 10000 paths on as many cells as frequencies ran
# 0.73-0.75x as fast as one at 129 normals a row,
# 0.78-0.82x at 193, 0.88-0.89x at 225, 0.85-1.01x at 257, 0.90-1.00x at
# 321 and 1.14-1.28x at 385 (medians of 11 alternating runs, two runs,
# 2-core box under outside load).
PARALLEL_MIN_DRAWS = 256


def uniform_grid(T, m):
    """The samplers' uniform grid t_j = j T / m, j = 0 .. m.  Every uniform
    route builds it here, so a sampled batch's grid compares exactly equal to
    the one the covariance report rebuilds."""
    return np.arange(m + 1) * (T / m)


def draw_width(exp):
    """Normals per path: Z_0, one (sine, cosine) pair per frequency and the
    initial-value draw when present."""
    return 2 * exp.truncation_N + 1 + (1 if exp.init_coupling is not None else 0)


def grid_row_doubles(exp, m):
    """Doubles the fold and the transform carve from the workspace per path
    row of ``exp`` on the grid t_j = j T / m, L = ``period_multiple`` m cells
    per half period, in this order: the residue table of :func:`_fold` when
    the N frequencies fill a 2L-wide band (2L sine and cosine sums), the half
    spectrum (L + 1 complex bins) and the inverse transform's 2L values."""
    lng = exp.period_multiple * m
    table = 4 * lng if exp.truncation_N >= 2 * lng else 0
    return table + 2 * (lng + 1) + 2 * lng


def direct_row_doubles(exp, size):
    """Doubles :func:`direct_values` carves per path row on ``size``
    points: an output-sized scratch row, and as much again as the row's
    draws and scratch for a frequency chunk's basis and scaled draws."""
    return draw_width(exp) + 2 * size


def run_blocks(exp, n_paths, row_doubles, seed, threads, block_fn):
    """Draw the normals of ``n_paths`` paths of ``exp`` one bounded block at
    a time and hand each block to ``block_fn(start, stop, z, work)``.

    Each path draws :func:`draw_width` normals: Z_0, one (sine, cosine)
    pair per frequency and the initial-value draw when present.  ``work``
    is a flat workspace of ``row_doubles`` doubles
    per row of a full block (:func:`grid_row_doubles`,
    :func:`direct_row_doubles`), from whose front the block function carves
    its buffers (:func:`carve`).  Draws and workspaces of all workers share
    one budget of ``BLOCK_DOUBLES`` doubles, so a block has
    ``BLOCK_DOUBLES // (workers (draws + row_doubles))`` paths (at least
    one).  Each worker allocates its draw buffer and workspace once per
    call and takes every ``workers``-th block; the calling thread is worker
    0.  It keeps one Philox bit generator, and re-keys it per path i in
    place, through views of its state (:func:`_philox_views`): key word 0
    set to i, a zero counter and an empty buffer, which is the stream of
    ``Philox(key=hi + i)`` with ``hi`` the seed word.  Before its first
    draw it checks that the views read what ``bitgen.state`` reports and
    that its first re-key reads back there, and raises
    :class:`~specgauss.errors.SpecgaussError` otherwise.

    The worker count is the cap ``threads`` (None: the CPUs this process
    may run on), lowered to the number of blocks the whole budget would
    make, so that a batch that fits one block is never split, and to the
    rows the budget holds.  Rows narrower than ``PARALLEL_MIN_DRAWS``
    normals run on one worker.

    ``block_fn`` owns ``z`` and ``work`` for the call and may overwrite
    them (the samplers weight ``z`` in place), so a caller that needs the
    raw draws must read them before weighting; it must keep neither, which
    the next block overwrites.
    """
    width = draw_width(exp)
    per_row = width + row_doubles
    hi = (int(seed) % (1 << 64)) << 64
    workers = 1
    if width >= PARALLEL_MIN_DRAWS:
        fits = BLOCK_DOUBLES // per_row  # rows of one whole budget
        cap = _cpu_count() if threads is None else int(threads)
        workers = max(1, min(cap, -(-n_paths // max(1, fits)), fits))
    rows = max(1, BLOCK_DOUBLES // (workers * per_row))
    size = min(rows, n_paths)
    # each worker's draw buffer and workspace, allocated by the calling thread
    held = np.empty((workers, size * per_row))

    def work(first):
        # key word 0 all ones and one raw draw taken: a key, counter and
        # buffer position that no re-key writes, so the guard sees the writes
        bitgen = np.random.Philox(key=hi + (1 << 64) - 1)
        bitgen.random_raw()
        gen = np.random.Generator(bitgen)
        key, ctr, pos = _philox_views(bitgen)
        _check_philox(bitgen, (key.tolist(), ctr.tolist(), int(pos[0])))
        unchecked = True
        buf = held[first, : size * width].reshape(size, width)
        space = held[first, size * width :]
        for start in range(first * rows, n_paths, workers * rows):
            stop = min(start + rows, n_paths)
            z = buf[: stop - start]
            for i in range(start, stop):
                # the counter's upper words stay 0, as no row draws 2^64
                # blocks, and has_uint32 stays 0, as standard_normal draws
                # no 32-bit word
                key[0] = i
                ctr[0] = 0
                pos[0] = 4
                if unchecked:
                    _check_philox(bitgen, ([i, hi >> 64], [0, 0, 0, 0], 4))
                    unchecked = False
                gen.standard_normal(out=z[i - start])
            block_fn(start, stop, z, space)

    if workers == 1:
        work(0)
        return
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        futures = [pool.submit(work, w) for w in range(1, workers)]
        work(0)
        for fut in futures:
            fut.result()


def _philox_views(bitgen):
    """Writable views (key, counter, buffer position) of the state of the
    Philox bit generator ``bitgen``, in the layout of numpy's philox_state:
    a pointer to the 4-word counter, a pointer to the 2-word key, then the
    int buffer position; the 4-word buffer, has_uint32 and uinteger
    follow."""
    addr = bitgen.ctypes.state_address
    ctr, key = (ctypes.c_void_p * 2).from_address(addr)
    at = addr + 2 * ctypes.sizeof(ctypes.c_void_p)
    return (
        np.frombuffer((ctypes.c_uint64 * 2).from_address(key), np.uint64),
        np.frombuffer((ctypes.c_uint64 * 4).from_address(ctr), np.uint64),
        np.frombuffer(ctypes.c_int.from_address(at), np.intc),
    )


def _check_philox(bitgen, want):
    """Raise unless ``bitgen.state`` reports the (key, counter, buffer
    position) ``want``."""
    st = bitgen.state
    got = (st["state"]["key"].tolist(), st["state"]["counter"].tolist(), st["buffer_pos"])
    if got != want:
        raise SpecgaussError(
            f"numpy {np.__version__} lays out its Philox state unlike the engine's "
            f"views of it: bitgen.state reads {got}, the views {want}"
        )


def _cpu_count():
    """The CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def carve(work, shape, dtype=float):
    """A C-contiguous ``shape`` view of ``dtype`` (float or complex) at the
    front of the flat float workspace ``work``, and the rest of ``work``."""
    n = math.prod(shape) * (2 if dtype is complex else 1)
    return work[:n].view(dtype).reshape(shape), work[n:]


def split_draws(exp, z):
    """Views (Z_0, sine draws, cosine draws) of one block of draws, each
    indexed by path first."""
    block = z[:, : 2 * exp.truncation_N + 1]
    return block[:, 0], block[:, 1::2], block[:, 2::2]


def _deterministic_terms(exp, tgrid, z, out, scratch):
    """Add the drift, mean and initial-value terms of one block to ``out``;
    the (paths, grid) outer products are formed in ``scratch``."""
    # Z_0 leads and the initial-value draw closes every layout of a path
    z0 = z[:, 0]
    xi = z[:, -1]
    if exp.drift_amp > 0.0:
        drift = (exp.drift_amp * z0)[:, None]
        out += np.multiply(drift, tgrid[None, :], out=scratch) if exp.drift_kind == "t" else drift
    if exp.mean_fn is not None:
        out += np.asarray(exp.mean_fn(tgrid), dtype=float)[None, :]
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        if sigma0 > 0.0:
            out += np.multiply((sigma0 * xi)[:, None], np.exp(-theta * tgrid)[None, :], out=scratch)
    return out


def direct_values(exp, tgrid, z, work, out):
    """Path values at the points ``tgrid`` from one block of draws, written
    into ``out``, summing the sine and cosine-channel bases directly, one
    frequency chunk at a time; both channels of a frequency take its one
    amplitude.  Everything lives in the workspace ``work``
    (:func:`direct_row_doubles` per row): an output-sized scratch block,
    then a chunk's basis, built in place (angles, then sines; angles again,
    then the cosine channel), and the chunk's scaled draws.  The matrix
    products round according to the block's shape, so direct values agree
    across block shapes to rounding, not bit for bit."""
    _, zs, zc = split_draws(exp, z)
    p, size = out.shape
    out[...] = 0.0
    scratch, work = carve(work, (p, size))
    n = exp.truncation_N
    base = math.pi / exp.period_T
    blk = max(1, min(n, work.size // (size + p)))
    for k0 in range(0, n, blk):
        k1 = min(k0 + blk, n)
        w = np.arange(k0 + 1, k1 + 1, dtype=np.float64) * base
        basis, rest = carve(work, (k1 - k0, size))
        coef, _ = carve(rest, (p, k1 - k0))
        np.sin(np.outer(w, tgrid, out=basis), out=basis)
        out += np.matmul(np.multiply(zs[:, k0:k1], exp.amp[k0:k1], out=coef), basis, out=scratch)
        if exp.cos_kind is not None:
            np.cos(np.outer(w, tgrid, out=basis), out=basis)
            if exp.cos_kind == "omc":
                np.subtract(1.0, basis, out=basis)
            out += np.matmul(np.multiply(zc[:, k0:k1], exp.amp[k0:k1], out=coef), basis, out=scratch)
    return _deterministic_terms(exp, tgrid, z, out, scratch)


def _fold(z, weights, length, work):
    """Residue sums of the amplitude-weighted draws on a grid with
    ``length`` cells per half period, and the rest of the workspace
    ``work``.  The remainder band is weighted in place in ``z``; below
    N = 2 length the result is a view of ``z``, else a table carved from
    ``work``.

    sin and cos of pi k j / length depend on k only through k mod 2 length,
    the aliasing identity behind circulant embedding.  The draws of
    frequency k sit at columns 2k-1 (sine) and 2k (cosine) of ``z``, so
    ``z[:, 1:2N+1]`` views as (paths, N, 2) pairs and whole 2 length-wide
    bands of frequencies weight and sum in one pass, before the remainder
    band.  Returns ``res[p, i, c]``, the sum of weights[k-1, c] * draw over
    k = i + 1 (mod 2 length), for i < min(N, 2 length): index i holds
    residue i + 1, and the last of 2 length entries residue 0.
    """
    p = z.shape[0]
    n = weights.shape[0]
    band = 2 * length
    pairs = z[:, 1 : 2 * n + 1].reshape(p, n, 2)
    full = n - n % band
    # the remainder is scaled on its 2-D columns, which numpy does through
    # small buffers; on the 3-D view a broadcast table copies the operand
    rem = z[:, 2 * full + 1 : 2 * n + 1]
    rem *= weights[full:].ravel()
    rem = rem.reshape(p, -1, 2)
    if not full:
        return rem, work
    res, work = carve(work, (p, band, 2))
    np.einsum(
        "pbic,bic->pic",
        pairs[:, :full].reshape(p, full // band, band, 2),
        weights[:full].reshape(full // band, band, 2),
        out=res,
    )
    res[:, : n - full] += rem
    return res, work


def draw_weights(exp):
    """The flat (N, 2) table of the weights of each frequency's (sine,
    cosine) draw pair: its amplitude twice, or the amplitude and 0 for a
    family without a cosine channel.  A sampling call builds it once and
    hands it to every block (:func:`fast_values`, :func:`residual_sups`)."""
    return np.outer(exp.amp, (1.0, 1.0 if exp.cos_kind is not None else 0.0))


def fast_values(exp, m, weights, z, work, out):
    """Path values on the uniform grid t_j = j T / m from one block of draws,
    written into ``out``: the draws weighted by ``weights``
    (:func:`draw_weights` of ``exp``), folded onto the grid's residues, then
    mapped onto the grid, in the workspace ``work`` (:func:`grid_row_doubles`
    per row).  The draws are weighted in place, so ``z`` no longer holds
    them afterwards."""
    res, work = _fold(z, weights, exp.period_multiple * m, work)
    return _grid_values(exp, m, res, z, work, out)


def folded_variances(exp, m):
    """The R folded variances on the grid t_j = j T / m, R = min(N, 2L), in
    the residue layout of :func:`_fold`: entry i is the sum of amp[k-1]^2
    over k = i + 1 (mod 2L), the variance of each channel's draw sum of
    residue i + 1.  One reshape-and-sum over whole 2L-wide bands plus the
    remainder band, O(N)."""
    a2 = exp.amp**2
    band = 2 * exp.period_multiple * m
    full = a2.size - a2.size % band
    if not full:
        return a2
    var = a2[:full].reshape(-1, band).sum(axis=0)
    var[: a2.size - full] += a2[full:]
    return var


def folded_amplitudes(exp, m):
    """The amplitudes and the drift amplitude of the folded expansion of
    ``exp`` on the grid t_j = j T / m: the R = min(N, L) roots of the
    reflected variances W(r) = V(r) + V(2L - r) of residues r = 1 .. R, V
    the folded variances (:func:`folded_variances`), and the amplitude of
    the drift draw Z_0.

    On the grid, sin(pi (2L - r) j / L) = -sin(pi r j / L) and the cosines
    agree, so the independent draw sums of residues r and 2L - r are one
    Gaussian per channel with the summed variance; residue L is its own
    reflection, and its sine draw meets sin(pi j) = 0.  Residue 0, reached
    when N >= 2L, vanishes on the grid except in a cos channel, where it is
    the constant, the function of that family's drift: its variance joins
    the drift draw's."""
    lng = exp.period_multiple * m
    var = folded_variances(exp, m)
    own = var[:lng]
    mirror = var[lng : 2 * lng - 1]
    own[lng - 1 - mirror.size : lng - 1] += mirror[::-1]
    drift = exp.drift_amp
    if var.size == 2 * lng and exp.cos_kind == "cos":
        drift = math.sqrt(drift * drift + var[-1])
    return np.sqrt(own), drift


def folded_cosine_sums(exp, m):
    """The L + 1 values Phi(d) = sum over residues r of V(r) cos(pi r d / L),
    d = 0 .. L, with V(r) the folded squared amplitudes
    (:func:`folded_variances`): with V laid out by residue mod 2L, the real
    part of one real FFT.  Phi(0) is the total of the squared amplitudes.
    The grid's covariance reads Phi at |i - j|, i, j and, on type C's
    doubled period (L = 2m), i + j, all at most L.  O(N + L log L).
    """
    lng = exp.period_multiple * m
    var = folded_variances(exp, m)
    full = np.zeros(2 * lng)
    full[np.arange(1, var.size + 1) % (2 * lng)] = var
    return np.fft.rfft(full).real


def _spectrum(res, lng, omc, x):
    """Write into ``x`` the half spectrum X (bins 0 .. L, L = ``lng``) of
    each row of the residue sums ``res`` (the layout of :func:`_fold`), whose
    ``irfft(X, norm="forward")`` is sum over residues r of
    S_r sin(pi r j / L) + C_r cos(pi r j / L).

    With Y_r = C_r - i S_r, bin r holds (Y_r + conj Y_{2L-r}) / 2: residues
    1 .. L land on their own bin, L + 1 .. 2L (2L is residue 0) reflect onto
    bins L - 1 .. 0, and the transform reads only the real part of bins 0
    and L, C_0 and C_L.  A folded expansion's sums, reflected already,
    fill bins 1 .. min(N, L) alone.  With ``omc`` the cosine channel is
    1 - cos: the constant sum of C less the cosine series.
    """
    k = res.shape[1]
    own = min(k, lng)
    top = min(k, 2 * lng)
    x[:, 0] = 0.0
    x.real[:, 1 : own + 1] = res[:, :own, 1]
    np.negative(res[:, :own, 0], out=x.imag[:, 1 : own + 1])
    x[:, own + 1 :] = 0.0
    x.real[:, 2 * lng - top : lng] += res[:, lng:top, 1][:, ::-1]
    x.imag[:, 2 * lng - top : lng] += res[:, lng:top, 0][:, ::-1]
    x[:, 1:lng] *= 0.5
    if omc:
        np.negative(x.real, out=x.real)
        x.real[:, 0] += np.sum(res[:, :, 1], axis=1)


def residual_sups(exp, m, Ns, weights, z, work):
    """Sup over the grid t_j = j T / m of each fBm residual along the
    increasing ladder ``Ns``, from one block of draws of a reference fBm
    expansion ``exp`` with N < m amplitudes a_k, weighted by ``weights``
    (:func:`draw_weights` of ``exp``).  Returns the
    (len(Ns), paths) maxima of

        |sum_{k > n} a_k (sin(pi k j / m) Z_k + (1 - cos(pi k j / m)) Z_-k)|.

    No frequency aliases, so the draws, weighted in place, are the residue
    sums of one spectrum (:func:`_spectrum`).  Along the ladder its bins
    k <= n are zeroed and bin 0 is reset to the constant
    sum_{k > n} a_k Z_-k = -2 sum Re X_k; each rung is one inverse real FFT
    into one buffer.  Spectrum and buffer are carved from the workspace
    ``work`` (:func:`grid_row_doubles` per row).
    """
    p = z.shape[0]
    res, work = _fold(z, weights, m, work)
    x, work = carve(work, (p, m + 1), complex)
    _spectrum(res, m, exp.cos_kind == "omc", x)
    buf, _ = carve(work, (p, 2 * m))
    sups = np.empty((len(Ns), p))
    for col, n in enumerate(Ns):
        x[:, 1 : n + 1] = 0.0
        x.real[:, 0] = -2.0 * np.sum(x.real[:, n + 1 :], axis=1)
        v = np.fft.irfft(x, norm="forward", out=buf)[:, : m + 1]
        np.max(np.abs(v, out=v), axis=1, out=sups[col])
    return sups


def _grid_values(exp, m, res, z, work, out):
    """Map residue sums ``res`` (the layout of :func:`_fold`) onto the grid,
    into ``out``: one inverse real FFT of length 2L per row
    (:func:`_spectrum`), whose first m + 1 values are the grid's; type C's
    sine frequencies k pi / (2T) live on a virtual grid of L = 2m cells.
    Spectrum and transform output are carved from the workspace ``work``,
    and the deterministic terms reuse the transform's output.
    """
    p, lng = z.shape[0], exp.period_multiple * m
    x, work = carve(work, (p, lng + 1), complex)
    _spectrum(res, lng, exp.cos_kind == "omc", x)
    buf, _ = carve(work, (p, 2 * lng))
    v = np.fft.irfft(x, norm="forward", out=buf)[:, : m + 1]
    out[...] = v
    return _deterministic_terms(exp, uniform_grid(exp.horizon_T, m), z, out, v)
