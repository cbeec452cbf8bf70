"""The sampling engine: draws, path blocks, fold, transforms, direct synthesis.

This is the one module that knows how the random draws of a
:class:`~specgauss.expansion.SeriesExpansion` are laid out.  An expansion
carries one amplitude per frequency plus the family table: each frequency's
(sine, cosine) draw pair takes its one amplitude, or the amplitude and 0
when the family has no cosine channel (``cos_kind``), and the engine reads
the basis from ``cos_kind``, ``drift_kind`` and ``period_multiple`` alone.

Draw discipline: the doubly-indexed normals are serialized per path as
(Z_0, Z_1, Z_-1, Z_2, Z_-2, ...), generated from a counter-based Philox
stream keyed by (seed, path index).  Every family draws the full block of
2N+1 normals (plus one trailing draw for the initial value when present),
whether or not it consumes all of them, so a path's randomness depends only
on (seed, index), never on the family or the execution schedule.  The
aliased sampler (:func:`aliased_values`) keeps that layout but draws one
(sine, cosine) pair per grid residue instead of per frequency: 2R+1 normals,
R = min(N, 2L), plus the initial-value draw, each pair scaled by the root of
its residue's folded variance (:func:`folded_amplitudes`).  That is exact in
law on the grid, and for N <= 2L it draws and returns exactly what
:func:`fast_values` does.

Sampling streams paths one bounded block at a time, and everything the
engine holds per path row counts against one per-worker budget of
``BLOCK_DOUBLES`` doubles (8 MiB): the row's draws, the fold's residue table
past N = 2L (4L doubles), the Hermitian half spectrum (2(L + 1) doubles) and
the inverse transform's 2L values (:func:`grid_row_doubles`).  Normals are
drawn straight into a block buffer, weighted in place, folded onto the
grid's residues and transformed as one block, one inverse real FFT over all
its rows, straight into the caller's output rows before the next block is
drawn.  Memory per worker is therefore the budget whatever N is, or one row
when a single row outgrows it (one path of fBm past N = 2^19 on a small
grid).  Because every path keeps its own stream and every per-path
operation is row-independent, sampled values are byte-identical across
block sizes and thread counts.

On a uniform grid the series is a fold plus one inverse real FFT of one
Hermitian spectrum (:func:`fast_values`, :func:`_spectrum`);
:func:`direct_values` sums the basis at arbitrary points and is the
reference the fast route is checked against.  The rate probe's fBm
residuals need no fold (their frequencies stay below the grid's Nyquist),
so :func:`residual_sups` maps a whole ladder of them from one spectrum,
one inverse real FFT per rung.

One fold of the squared amplitudes (:func:`folded_variances`) serves both
the sampler and the covariance: its root scales the aliased draws, and its
real FFT (:func:`folded_cosine_sums`) gives the covariance of the
series on the grid, from which :mod:`specgauss.validate` reads every pair
without evaluating a sine or cosine per frequency.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Everything a worker holds per block of paths, draws and transform buffers
# alike, fits this many doubles (8 MiB), so sampling memory does not grow
# with N or M.  Direct synthesis and the covariance grid bound their basis
# blocks by it too.  It keeps at least 4 rows of the rate probe's 65536-point
# transforms in a block: pocketfft's per-row cost falls by about 40% from
# batches of 3 rows to batches of 4 or more.
BLOCK_DOUBLES = 1 << 20


def uniform_grid(T, m):
    """The samplers' uniform grid t_j = j T / m, j = 0 .. m.  Every uniform
    route builds it here, so a sampled batch's grid compares exactly equal to
    the one the covariance report rebuilds."""
    return np.arange(m + 1) * (T / m)


def draw_width(exp, n_pairs=None):
    """Normals per path: Z_0, ``n_pairs`` (sine, cosine) pairs (default
    ``exp.truncation_N``) and the initial-value draw when present."""
    if n_pairs is None:
        n_pairs = exp.truncation_N
    return 2 * n_pairs + 1 + (1 if exp.init_coupling is not None else 0)


def grid_row_doubles(lng, fold_pairs=0):
    """Doubles the fold and the transform hold per path row on a grid of
    ``lng`` = L cells per half period: the residue table of :func:`_fold`
    when its ``fold_pairs`` frequencies fill a 2L-wide band (2L sine and
    cosine sums), the half spectrum (L + 1 complex bins) and the inverse
    transform's 2L values.  Aliased draws are residue sums already and
    fold nothing (``fold_pairs`` = 0)."""
    table = 4 * lng if fold_pairs >= 2 * lng else 0
    return table + 2 * (lng + 1) + 2 * lng


def direct_row_doubles(exp, size):
    """Doubles :func:`direct_values` reserves per path row on ``size``
    points: the row's draws and an output-sized scratch row, counted twice,
    so that the rows take half the budget and the basis block the other
    half."""
    return draw_width(exp) + 2 * size


def run_blocks(exp, n_paths, row_doubles, seed, threads, block_fn, n_pairs=None):
    """Draw the normals of ``n_paths`` paths of ``exp`` one bounded block at
    a time and hand each block to ``block_fn(start, stop, z)``.

    Each path draws :func:`draw_width` normals: Z_0, ``n_pairs`` (sine,
    cosine) pairs (default ``exp.truncation_N``) and the initial-value draw
    when present.  ``block_fn`` holds ``row_doubles`` doubles per row besides
    the draws (:func:`grid_row_doubles`, :func:`direct_row_doubles`), so a
    block has ``BLOCK_DOUBLES // (draws + row_doubles)`` paths (at least
    one); each worker re-keys one bit generator per path, reuses one buffer
    and takes every ``threads``-th block.  ``block_fn`` owns ``z`` for the
    call and may overwrite it (the samplers weight it in place), so a caller
    that needs the raw draws must read them before weighting; it must not
    keep ``z``, which the next block overwrites.
    """
    width = draw_width(exp, n_pairs)
    rows = max(1, BLOCK_DOUBLES // (width + row_doubles))
    hi = (int(seed) % (1 << 64)) << 64
    workers = max(1, min(int(threads), -(-n_paths // rows)))

    def work(first):
        bitgen = np.random.Philox(key=hi)
        gen = np.random.Generator(bitgen)
        # a fresh stream: zero counter, empty buffer; key words (i, seed)
        fresh = bitgen.state
        buf = np.empty((min(rows, n_paths), width))
        for start in range(first * rows, n_paths, workers * rows):
            stop = min(start + rows, n_paths)
            z = buf[: stop - start]
            for i in range(start, stop):
                fresh["state"]["key"][0] = i
                bitgen.state = fresh
                gen.standard_normal(out=z[i - start])
            block_fn(start, stop, z)

    if workers == 1:
        work(0)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(work, w) for w in range(workers)]:
            fut.result()


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


def direct_values(exp, tgrid, z, out):
    """Path values at the points ``tgrid`` from one block of draws, written
    into ``out``, summing the sine and cosine-channel bases directly, one
    frequency chunk at a time; both channels of a frequency take its one
    amplitude.  A chunk's basis is built in place in one buffer (angles,
    then sines; angles again, then the cosine channel), and with the chunk's
    scaled draws it takes half the budget (:func:`direct_row_doubles`)."""
    _, zs, zc = split_draws(exp, z)
    out[...] = 0.0
    scratch = np.empty_like(out)
    n = exp.truncation_N
    base = math.pi / exp.period_T
    blk = max(1, min(n, BLOCK_DOUBLES // 2 // (tgrid.size + z.shape[0])))
    buf = np.empty(blk * tgrid.size)
    for k0 in range(0, n, blk):
        k1 = min(k0 + blk, n)
        w = np.arange(k0 + 1, k1 + 1, dtype=np.float64) * base
        basis = buf[: (k1 - k0) * tgrid.size].reshape(k1 - k0, tgrid.size)
        np.sin(np.outer(w, tgrid, out=basis), out=basis)
        out += np.matmul(zs[:, k0:k1] * exp.amp[k0:k1], basis, out=scratch)
        if exp.cos_kind is not None:
            np.cos(np.outer(w, tgrid, out=basis), out=basis)
            if exp.cos_kind == "omc":
                np.subtract(1.0, basis, out=basis)
            out += np.matmul(zc[:, k0:k1] * exp.amp[k0:k1], basis, out=scratch)
    return _deterministic_terms(exp, tgrid, z, out, scratch)


def _fold(z, weights, length):
    """Residue sums of the amplitude-weighted draws on a grid with
    ``length`` cells per half period.  The remainder band is weighted in
    place in ``z``, and below N = 2 length the result is a view of ``z``.

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
    rem = _scale_pairs(z[:, 2 * full + 1 : 2 * n + 1], weights[full:])
    if not full:
        return rem
    res = np.einsum(
        "pbic,bic->pic",
        pairs[:, :full].reshape(p, full // band, band, 2),
        weights[:full].reshape(full // band, band, 2),
    )
    res[:, : n - full] += rem
    return res


def _scale_pairs(cols, table):
    """Scale the (sine, cosine) draw columns ``cols`` of a block in place by
    the (pairs, 2) ``table`` and view them as (paths, pairs, 2).  The product
    is taken on the 2-D columns, which numpy scales through small buffers;
    on the 3-D view with a broadcast table it copies the whole operand."""
    cols *= table.ravel()
    return cols.reshape(cols.shape[0], -1, 2)


def _weights(exp):
    """The flat (N, 2) table of the weights of each frequency's (sine,
    cosine) draw pair: its amplitude twice, or the amplitude and 0 for a
    family without a cosine channel."""
    return np.outer(exp.amp, _weights_row(exp))


def _weights_row(exp):
    """The weight of a frequency's (sine, cosine) draw pair per unit
    amplitude: both draws, or the sine draw alone for a family without a
    cosine channel."""
    return (1.0, 1.0 if exp.cos_kind is not None else 0.0)


def fast_values(exp, m, z, out=None):
    """Path values on the uniform grid t_j = j T / m from one block of draws,
    written into ``out`` (allocated when None): the amplitude-weighted draws
    folded onto the grid's residues, then mapped onto the grid.  The draws
    are weighted in place, so ``z`` no longer holds them afterwards."""
    res = _fold(z, _weights(exp), exp.period_multiple * m)
    return _grid_values(exp, m, res, z, out)


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
    """The (R, 2) table of root folded variances (:func:`folded_variances`)
    in the layout of :func:`_weights`, the per-residue scale of
    :func:`aliased_values`."""
    return np.outer(np.sqrt(folded_variances(exp, m)), _weights_row(exp))


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


def aliased_values(exp, m, table, z, out=None):
    """Path values on the uniform grid t_j = j T / m from one block of
    aliased draws: (Z_0, one (sine, cosine) pair per residue, initial-value
    draw), written into ``out`` (allocated when None).  Each residue sum of
    :func:`fast_values` is a sum of independent Gaussians, so one normal
    scaled by ``table`` (:func:`folded_amplitudes`) has the same law.  The
    pairs are scaled in place in ``z``."""
    res = _scale_pairs(z[:, 1 : 2 * table.shape[0] + 1], table)
    return _grid_values(exp, m, res, z, out)


def _spectrum(res, lng, omc):
    """The half spectrum X (bins 0 .. L, L = ``lng``) of each row of the
    residue sums ``res`` (the layout of :func:`_fold`), whose
    ``irfft(X, norm="forward")`` is sum over residues r of
    S_r sin(pi r j / L) + C_r cos(pi r j / L).

    With Y_r = C_r - i S_r, bin r holds (Y_r + conj Y_{2L-r}) / 2: residues
    1 .. L land on their own bin, L + 1 .. 2L (2L is residue 0) reflect onto
    bins L - 1 .. 0, and the transform reads only the real part of bins 0
    and L, C_0 and C_L.  With ``omc`` the cosine channel is 1 - cos: the
    constant sum of C less the cosine series.
    """
    p, k = res.shape[:2]
    own = min(k, lng)
    top = min(k, 2 * lng)
    x = np.empty((p, lng + 1), dtype=complex)
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
    return x


def residual_sups(exp, m, Ns, z):
    """Sup over the grid t_j = j T / m of each fBm residual along the
    increasing ladder ``Ns``, from one block of draws of a reference fBm
    expansion ``exp`` with N < m amplitudes a_k.  Returns the
    (len(Ns), paths) maxima of

        |sum_{k > n} a_k (sin(pi k j / m) Z_k + (1 - cos(pi k j / m)) Z_-k)|.

    No frequency aliases, so the draws, weighted in place, are the residue
    sums of one spectrum (:func:`_spectrum`).  Along the ladder its bins
    k <= n are zeroed and bin 0 is reset to the constant
    sum_{k > n} a_k Z_-k = -2 sum Re X_k; each rung is one inverse real FFT
    into one reused buffer.
    """
    x = _spectrum(_fold(z, _weights(exp), m), m, exp.cos_kind == "omc")
    buf = np.empty((z.shape[0], 2 * m))
    sups = np.empty((len(Ns), z.shape[0]))
    for col, n in enumerate(Ns):
        x[:, 1 : n + 1] = 0.0
        x.real[:, 0] = -2.0 * np.sum(x.real[:, n + 1 :], axis=1)
        v = np.fft.irfft(x, norm="forward", out=buf)[:, : m + 1]
        np.max(np.abs(v, out=v), axis=1, out=sups[col])
    return sups


def _grid_values(exp, m, res, z, out):
    """Map residue sums ``res`` (the layout of :func:`_fold`) onto the grid,
    into ``out`` (allocated when None): one inverse real FFT of length 2L
    per row (:func:`_spectrum`), whose first m + 1 values are the grid's;
    type C's sine frequencies k pi / (2T) live on a virtual grid of L = 2m
    cells.  The deterministic terms reuse the transform's output.
    """
    if out is None:
        out = np.empty((z.shape[0], m + 1))
    x = _spectrum(res, exp.period_multiple * m, exp.cos_kind == "omc")
    v = np.fft.irfft(x, norm="forward")[:, : m + 1]
    out[...] = v
    return _deterministic_terms(exp, uniform_grid(exp.horizon_T, m), z, out, v)
