"""The sampling engine: draws, path blocks, fold, transforms, direct synthesis.

This is the one module that knows how the random draws of a
:class:`~specgauss.expansion.SeriesExpansion` are laid out.

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

Sampling streams paths one bounded block at a time: normals are drawn
straight into a block buffer of at most ``BLOCK_DOUBLES`` doubles (32 MiB)
per worker, then weighted in place, folded onto the grid's residues and
transformed, one row sub-block of ``BLOCK_DOUBLES // 8`` doubles at a time,
straight into the caller's output rows before the next block is drawn.
Past N = 2L the fold also keeps a residue table of 4L doubles per path, no
larger than the draws.  Memory per worker is therefore bounded whatever N
is (past N = 2^21 a block is one path, whose draws set the bound).  Because
every path keeps its own stream and every per-path operation is
row-independent, sampled values are byte-identical across block sizes and
thread counts.

On a uniform grid the series is a fold plus one inverse real FFT of one
Hermitian spectrum (:func:`fast_values`, :func:`_spectra`);
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

# A block of paths holds at most this many doubles per worker (32 MiB) in
# draws, so sampling memory does not grow with N or M; a transform sub-block
# holds an eighth of it (:func:`_spectra`).  Direct synthesis also bounds its
# basis block by it.
BLOCK_DOUBLES = 1 << 22


def uniform_grid(T, m):
    """The samplers' uniform grid t_j = j T / m, j = 0 .. m.  Every uniform
    route builds it here, so a sampled batch's grid compares exactly equal to
    the one the covariance report rebuilds."""
    return np.arange(m + 1) * (T / m)


def run_blocks(exp, n_paths, grid_size, seed, threads, block_fn, n_pairs=None):
    """Draw the normals of ``n_paths`` paths of ``exp`` one bounded block at
    a time and hand each block to ``block_fn(start, stop, z)``.

    Each path draws Z_0, ``n_pairs`` (sine, cosine) pairs (default
    ``exp.truncation_N``) and the initial-value draw when present.  A block
    has ``BLOCK_DOUBLES // max(draws per path, grid_size)`` paths (at least
    one); each worker re-keys one bit generator per path, reuses one buffer
    and takes every ``threads``-th block.  ``block_fn`` owns ``z`` for the
    call and may overwrite it (the samplers weight it in place), so a caller
    that needs the raw draws must read them before weighting; it must not
    keep ``z``, which the next block overwrites.
    """
    if n_pairs is None:
        n_pairs = exp.truncation_N
    width = 2 * n_pairs + 1 + (1 if exp.init_coupling is not None else 0)
    rows = max(1, BLOCK_DOUBLES // max(width, grid_size))
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
        if exp.family == "fbm_high":
            out += np.multiply((exp.drift_amp * z0)[:, None], tgrid[None, :], out=scratch)
        elif exp.family == "type_b":
            out += (exp.drift_amp * z0)[:, None]
    if exp.mean_fn is not None:
        out += np.asarray(exp.mean_fn(tgrid), dtype=float)[None, :]
    if exp.init_coupling is not None:
        sigma0, theta = exp.init_coupling
        if sigma0 > 0.0:
            out += np.multiply((sigma0 * xi)[:, None], np.exp(-theta * tgrid)[None, :], out=scratch)
    return out


def direct_values(exp, tgrid, z, out):
    """Path values at the points ``tgrid`` from one block of draws, written
    into ``out``, summing the sine and cosine-channel bases directly over
    frequency chunks of at most ``BLOCK_DOUBLES`` basis entries."""
    _, zs, zc = split_draws(exp, z)
    out[...] = 0.0
    scratch = np.empty_like(out)
    n = exp.truncation_N
    base = math.pi / exp.period_T
    blk = max(1, BLOCK_DOUBLES // tgrid.size)
    for k0 in range(0, n, blk):
        k1 = min(k0 + blk, n)
        ang = np.outer(np.arange(k0 + 1, k1 + 1, dtype=np.float64) * base, tgrid)
        out += np.matmul(zs[:, k0:k1] * exp.sin_amp[k0:k1], np.sin(ang), out=scratch)
        if exp.cos_amp is not None:
            c_basis = np.cos(ang)
            if exp.one_minus_cos:
                c_basis = 1.0 - c_basis
            out += np.matmul(zc[:, k0:k1] * exp.cos_amp[k0:k1], c_basis, out=scratch)
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
    """The (N, 2) sine/cosine amplitude table; zero cosines for a pure-sine
    family."""
    cos_amp = exp.cos_amp if exp.cos_amp is not None else np.zeros(exp.truncation_N)
    return np.column_stack((exp.sin_amp, cos_amp))


def _half_period_cells(exp, m):
    """L, the grid cells per half period: 2m on type C's doubled period,
    else m."""
    return 2 * m if exp.family == "type_c" else m


def fast_values(exp, m, z, out=None):
    """Path values on the uniform grid t_j = j T / m from one block of draws,
    written into ``out`` (allocated when None): the amplitude-weighted draws
    folded onto the grid's residues, then mapped onto the grid.  The draws
    are weighted in place, so ``z`` no longer holds them afterwards."""
    res = _fold(z, _weights(exp), _half_period_cells(exp, m))
    return _grid_values(exp, m, res, z, out)


def folded_variances(exp, m):
    """The (R, 2) table of folded variances on the grid t_j = j T / m,
    R = min(N, 2L): entry [i, c] is the sum of amplitude[k-1, c]^2 over
    k = i + 1 (mod 2L), the residue layout of :func:`_fold`.  Built once per
    call, O(N)."""
    n = exp.truncation_N
    ones = np.ones((1, 2 * n + 1))
    return _fold(ones, _weights(exp) ** 2, _half_period_cells(exp, m))[0]


def folded_amplitudes(exp, m):
    """The (R, 2) table of root folded variances (:func:`folded_variances`),
    the per-residue scale of :func:`aliased_values`."""
    return np.sqrt(folded_variances(exp, m))


def folded_cosine_sums(exp, m):
    """The (2L + 1, 2) table Phi[d, c] = sum over residues r of
    V_c(r) cos(pi r d / L), d = 0 .. 2L, with V the folded variances.

    With V laid out by residue mod 2L, Phi(d) for d <= L is the real part of
    one real FFT per channel, and d > L is the mirror Phi(2L - d) = Phi(d).
    Row 0 is the total variance.  O(N + L log L).
    """
    lng = _half_period_cells(exp, m)
    var = folded_variances(exp, m)
    full = np.zeros((2 * lng, 2))
    full[np.arange(1, var.shape[0] + 1) % (2 * lng)] = var
    phi = np.fft.rfft(full, axis=0).real
    return np.concatenate((phi, phi[-2::-1]))


def aliased_values(exp, m, table, z, out=None):
    """Path values on the uniform grid t_j = j T / m from one block of
    aliased draws: (Z_0, one (sine, cosine) pair per residue, initial-value
    draw), written into ``out`` (allocated when None).  Each residue sum of
    :func:`fast_values` is a sum of independent Gaussians, so one normal
    scaled by ``table`` (:func:`folded_amplitudes`) has the same law.  The
    pairs are scaled in place in ``z``."""
    res = _scale_pairs(z[:, 1 : 2 * table.shape[0] + 1], table)
    return _grid_values(exp, m, res, z, out)


def _spectra(res, lng, one_minus_cos):
    """Per row sub-block of the residue sums ``res`` (the layout of
    :func:`_fold`), yield its rows, its half spectrum X (bins 0 .. L, L =
    ``lng``) and a (rows, 2L) buffer for ``irfft(X, norm="forward")``, which
    is sum over residues r of S_r sin(pi r j / L) + C_r cos(pi r j / L).

    With Y_r = C_r - i S_r, bin r holds (Y_r + conj Y_{2L-r}) / 2: residues
    1 .. L land on their own bin, L + 1 .. 2L (2L is residue 0) reflect onto
    bins L - 1 .. 0, and the transform reads only the real part of bins 0
    and L, C_0 and C_L.  A (1 - cos) family is its constant sum of C less the
    cosine series.  Spectrum and buffer, reused by every sub-block, hold at
    most ``BLOCK_DOUBLES // 8`` doubles.
    """
    p, k = res.shape[:2]
    own = min(k, lng)
    top = min(k, 2 * lng)
    step = max(1, BLOCK_DOUBLES // 8 // (4 * lng + 2))
    spec = np.empty((min(step, p), lng + 1), dtype=complex)
    vals = np.empty((min(step, p), 2 * lng))
    for r0 in range(0, p, step):
        rows = slice(r0, min(r0 + step, p))
        r = res[rows]
        x = spec[: r.shape[0]]
        x[:, 0] = 0.0
        x.real[:, 1 : own + 1] = r[:, :own, 1]
        np.negative(r[:, :own, 0], out=x.imag[:, 1 : own + 1])
        x[:, own + 1 :] = 0.0
        x.real[:, 2 * lng - top : lng] += r[:, lng:top, 1][:, ::-1]
        x.imag[:, 2 * lng - top : lng] += r[:, lng:top, 0][:, ::-1]
        x[:, 1:lng] *= 0.5
        if one_minus_cos:
            np.negative(x.real, out=x.real)
            x.real[:, 0] += np.sum(r[:, :, 1], axis=1)
        yield rows, x, vals[: r.shape[0]]


def residual_sups(exp, m, Ns, z):
    """Sup over the grid t_j = j T / m of each fBm residual along the
    increasing ladder ``Ns``, from one block of draws of a reference fBm
    expansion ``exp`` with N < m amplitudes a_k.  Returns the
    (len(Ns), paths) maxima of

        |sum_{k > n} a_k (sin(pi k j / m) Z_k + (1 - cos(pi k j / m)) Z_-k)|.

    No frequency aliases, so the draws, weighted in place, are the residue
    sums of one spectrum per row sub-block (:func:`_spectra`).  Along the
    ladder its bins k <= n are zeroed and bin 0 is reset to the constant
    sum_{k > n} a_k Z_-k = -2 sum Re X_k; each rung is one inverse real FFT.
    """
    sups = np.empty((len(Ns), z.shape[0]))
    for rows, x, buf in _spectra(_fold(z, _weights(exp), m), m, exp.one_minus_cos):
        for col, n in enumerate(Ns):
            x[:, 1 : n + 1] = 0.0
            x.real[:, 0] = -2.0 * np.sum(x.real[:, n + 1 :], axis=1)
            v = np.fft.irfft(x, norm="forward", out=buf)[:, : m + 1]
            np.max(np.abs(v, out=v), axis=1, out=sups[col, rows])
    return sups


def _grid_values(exp, m, res, z, out):
    """Map residue sums ``res`` (the layout of :func:`_fold`) onto the grid,
    into ``out`` (allocated when None): per row sub-block, one inverse real
    FFT of length 2L (:func:`_spectra`), whose first m + 1 values are the
    grid's; type C's sine frequencies k pi / (2T) live on a virtual grid of
    L = 2m cells.  The deterministic terms reuse the transform's buffer.
    """
    if out is None:
        out = np.empty((z.shape[0], m + 1))
    tgrid = uniform_grid(exp.horizon_T, m)
    for rows, x, buf in _spectra(res, _half_period_cells(exp, m), exp.one_minus_cos):
        v = np.fft.irfft(x, norm="forward", out=buf)[:, : m + 1]
        out[rows] = v
        _deterministic_terms(exp, tgrid, z[rows], out[rows], v)
    return out
