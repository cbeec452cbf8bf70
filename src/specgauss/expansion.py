"""Truncated trigonometric expansions and Gaussian path sampling.

A :class:`SeriesExpansion` holds the deterministic data of one truncated
expansion: a drift amplitude, one amplitude per frequency, and for the
generalized Ornstein-Uhlenbeck construction a deterministic mean and an
initial-value coupling.  The family table (``_FAMILIES``) is the one place
that knows each family's basis: the cosine-channel function that shares the
sine term's amplitude (1 - cos, cos or none), the drift function (t, 1 or
none) and the period as a multiple of the horizon.  Builders validate
admissibility and take square roots of the coefficient data; sampling then
pairs each amplitude with an independent standard normal per channel.

Sampling goes through :mod:`specgauss._engine`, which owns the draw
discipline, the bounded path blocks, the fold and fast transforms, and
direct synthesis on arbitrary grids.  On a uniform grid an expansion has the
law of a shorter one, its folded expansion (:func:`aliased_expansion`), which
the same fast sampler draws.
"""

import io
import math
import os
import struct
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from . import _engine
from ._util import (
    atomic_write_bytes,
    atomic_write_text,
    check_gen_ou,
    check_instance,
    check_int,
    check_positive,
    check_real,
    csv_table_text,
    read_csv_table,
    real_array,
)
from .errors import (
    BadParameter,
    BranchMismatch,
    ClampWarning,
    DeltaOutOfRange,
    NegativeC0,
    NegativeRadicand,
    StarViolated,
    TailEstimateUnavailable,
)
from .fourier import (
    CosineSeries,
    coeffs_closed,
    coeffs_quadrature,
    fbm_coefficients,
    tail_sum,
)
from .gamma import GammaSpec, check_star

# family: (cosine-channel function, drift function, period / horizon), in
# the basis-term names of :mod:`specgauss.quantize` ("omc" is 1 - cos).
_FAMILIES = {
    "fbm_low": ("omc", None, 1),
    "fbm_high": ("omc", "t", 1),
    "type_a": ("omc", None, 1),
    "type_b": ("cos", "one", 1),
    "type_c": (None, None, 2),
}

_BINARY_MAGIC = b"SGPB"
_BINARY_VERSION = 1
_BINARY_HEAD = "<4sIIIQ"
_BINARY_HEAD_SIZE = struct.calcsize(_BINARY_HEAD)


@dataclass(frozen=True)
class SeriesExpansion:
    """Deterministic data of one truncated series expansion.

    ``amp[k-1]`` multiplies sin(k pi t / period_T) Z_k and, when the family
    has one, the cosine-channel function (``cos_kind``) of frequency k times
    Z_-k.  ``drift_amp`` multiplies the drift function (``drift_kind``)
    times Z_0, and must be 0 for a family without one.  The kinds and
    ``period_T`` come from the family table and the horizon, not stored.
    """

    family: str
    horizon_T: float
    truncation_N: int
    drift_amp: float
    amp: np.ndarray
    label: str = ""
    mean_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    init_coupling: Optional[Tuple[float, float]] = None
    coeff_series: Optional[CosineSeries] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise BadParameter(f"unknown family {self.family!r}")
        object.__setattr__(self, "horizon_T", check_positive(self.horizon_T, "horizon_T"))
        object.__setattr__(self, "truncation_N", check_int(self.truncation_N, "truncation_N", 0))
        amp = real_array(self.amp, "amp", min_size=0)
        if amp.shape != (self.truncation_N,) or not np.all(np.isfinite(amp) & (amp >= 0.0)):
            raise BadParameter("amp must hold truncation_N finite nonnegative entries")
        amp.flags.writeable = False
        object.__setattr__(self, "amp", amp)
        drift = check_real(self.drift_amp, "drift_amp")
        if not (0.0 <= drift < math.inf):
            raise BadParameter("drift_amp must be finite and nonnegative")
        if drift > 0.0 and self.drift_kind is None:
            raise BadParameter(f"{self.family} has no drift term; drift_amp must be 0")
        object.__setattr__(self, "drift_amp", drift)

    @property
    def cos_kind(self):
        """The cosine-channel function: "omc" (1 - cos), "cos", or None."""
        return _FAMILIES[self.family][0]

    @property
    def drift_kind(self):
        """The function ``drift_amp`` multiplies: "t", "one" (1), or None."""
        return _FAMILIES[self.family][1]

    @property
    def period_multiple(self):
        """The period of the basis in horizons: 2 for type C, else 1."""
        return _FAMILIES[self.family][2]

    @property
    def period_T(self):
        """The period of the basis: 2T on type C's doubled interval, else T."""
        return self.period_multiple * self.horizon_T


@dataclass(frozen=True)
class PathBatch:
    """Sampled paths on a common grid, with the seed that produced them."""

    grid: np.ndarray
    values: np.ndarray
    seed: int
    expansion_ref: str = ""
    truncation_N: int = 0

    def __post_init__(self):
        g = real_array(self.grid, "grid")
        v = real_array(self.values, "values", ndim=2, min_size=0)
        # compared, not differenced: finite grid points can differ by more
        # than the largest double
        if not np.all(g[1:] > g[:-1]):
            raise BadParameter("grid must be strictly increasing")
        if v.shape[1] != g.size:
            raise BadParameter("values must be (n_paths, len(grid))")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise BadParameter("grid and values must be finite")
        g.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "seed", check_int(self.seed, "seed"))
        object.__setattr__(self, "truncation_N", check_int(self.truncation_N, "truncation_N", 0))

    @property
    def n_paths(self):
        return self.values.shape[0]

    def to_csv_text(self, comments=()):
        """CSV ``t,path_0,path_1,...`` preceded by metadata comments."""
        meta = [("seed", self.seed), ("truncation_N", self.truncation_N),
                ("expansion", self.expansion_ref)]
        head = [*comments, meta]
        names = ["t", *(f"path_{p}" for p in range(self.n_paths))]
        return csv_table_text(head, names, [self.grid, self.values])

    def to_csv(self, path, comments=()):
        atomic_write_text(path, self.to_csv_text(comments))

    @classmethod
    def from_csv(cls, path):
        meta, data = read_csv_table(
            path, {"seed": int, "truncation_N": int, "expansion": str}
        )
        return cls(
            grid=data[0],
            values=data[1:],
            seed=meta.get("seed", 0),
            expansion_ref=meta.get("expansion", ""),
            truncation_N=meta.get("truncation_N", 0),
        )

    def _binary_parts(self):
        """The header and the grid and value buffers of the binary format,
        without copying the data (little-endian doubles are views of the
        batch on a little-endian machine)."""
        head = struct.pack(
            _BINARY_HEAD,
            _BINARY_MAGIC,
            _BINARY_VERSION,
            self.grid.size,
            self.n_paths,
            self.seed % (1 << 64),
        )
        grid = np.ascontiguousarray(self.grid, dtype="<f8")
        values = np.ascontiguousarray(self.values, dtype="<f8")
        return [head, grid, values]

    def to_binary_bytes(self):
        """Header (magic, version, M, n_paths, seed) then little-endian
        doubles column-major: the grid column first, then each path.

        The header stores the seed as an unsigned 64-bit word, ``seed mod
        2^64``, which is also the word the sampler keys its streams on; a
        negative seed therefore reads back as ``seed + 2^64``."""
        return b"".join(self._binary_parts())

    def to_binary(self, path):
        """Write :meth:`to_binary_bytes` to ``path`` buffer by buffer, with
        no joined copy of the batch."""
        atomic_write_bytes(path, self._binary_parts())

    @classmethod
    def from_binary_bytes(cls, blob):
        return cls(**_read_binary(io.BytesIO(blob), len(blob)))

    @classmethod
    def from_binary(cls, path):
        """Read a binary batch straight into its grid and value arrays,
        after checking the header against the file size."""
        with open(path, "rb") as fh:
            return cls(**_read_binary(fh, os.fstat(fh.fileno()).st_size))


def _read_binary(fh, size):
    """The grid, values and seed of the binary batch of ``size`` bytes open
    in ``fh``, read into preallocated arrays.  Rejects a truncated header, a
    bad magic or version, and a size that does not match the header."""
    head = fh.read(_BINARY_HEAD_SIZE)
    if len(head) < _BINARY_HEAD_SIZE:
        raise BadParameter("binary path batch: truncated header")
    magic, version, m, n_paths, seed = struct.unpack(_BINARY_HEAD, head)
    if magic != _BINARY_MAGIC:
        raise BadParameter(f"binary path batch: bad magic {magic!r}")
    if version != _BINARY_VERSION:
        raise BadParameter(f"binary path batch: unsupported version {version}")
    need = _BINARY_HEAD_SIZE + 8 * m * (n_paths + 1)
    if size != need:
        raise BadParameter(f"binary path batch: {size} bytes, expected {need}")
    grid = np.empty(m, dtype="<f8")
    values = np.empty((n_paths, m), dtype="<f8")
    for arr in (grid, values):
        if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise BadParameter("binary path batch: shrank while being read")
    return dict(grid=grid, values=values, seed=seed)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _amps_from_radicands(r, what):
    """sqrt of each entry with the tiny-negative clamp.

    Entries in [-1e-12 * scale, 0) are quadrature noise and are clamped to 0
    with a warning; anything more negative is a genuine sign violation.
    """
    r = np.asarray(r, dtype=float)
    scale = max(1.0, float(np.max(np.abs(r), initial=0.0)))
    bad = r < -1e-12 * scale
    if np.any(bad):
        k = int(np.argmax(bad)) + 1
        raise NegativeRadicand(f"{what}: entry k={k} has radicand {r[k - 1]:.6e}")
    n_clamped = int(np.count_nonzero(r < 0.0))
    if n_clamped:
        warnings.warn(
            f"{what}: clamped {n_clamped} tiny negative radicand(s) to 0",
            ClampWarning,
        )
    return np.sqrt(np.maximum(r, 0.0))


def _check_size(T, N, what):
    """The truncation N as an int, after the checks every builder shares:
    T a finite positive real and N an integer >= 0."""
    check_positive(T, f"{what}: T")
    return check_int(N, f"{what}: N", 0)


def _check_horizon(series, horizon, what):
    if abs(series.horizon_T - horizon) > 1e-12 * max(1.0, horizon):
        raise BadParameter(f"{what}: horizon {series.horizon_T} does not match {horizon}")


def _spec_expansion(spec, T, N, family, divisor=1.0, drift=None):
    """The ``family`` expansion of ``spec``, the admissible side of a type
    A/B/C generating function on the family's period (T, or 2T for type C),
    after the size checks, the horizon match, delta < 1 and the
    admissibility probe.  From the coefficient series c_0 .. c_N the
    amplitudes are sqrt(-c_k / divisor) and the drift amplitude is
    ``drift(c)``, or 0 when ``drift`` is None."""
    what = f"build_{family}"
    check_instance(spec, GammaSpec, f"{what}: spec")
    N = _check_size(T, N, what)
    _check_horizon(spec, _FAMILIES[family][2] * T, what)
    if spec.delta >= 1.0:
        raise DeltaOutOfRange(f"{what} needs delta < 1, got {spec.delta}")
    report = check_star(spec)
    if not report.passed:
        raise StarViolated(
            f"{what}: admissibility probe failed "
            f"(derivative violation {report.max_derivative_violation:.3e}, "
            f"concavity violation {report.max_concavity_violation:.3e})"
        )
    series = coeffs_quadrature(spec, N)
    return SeriesExpansion(
        family=family,
        horizon_T=float(T),
        truncation_N=N,
        drift_amp=0.0 if drift is None else drift(series.values),
        amp=_amps_from_radicands(-series.values[1:] / divisor, what),
        label=f"{family}({spec.label or 'gamma'},N={N})",
        coeff_series=series,
    )


def build_fbm(H, T, N, coeff_source):
    """Expansion of fractional Brownian motion from a precomputed series.

    ``coeff_source`` must match the parameter branch: the raw coefficient
    series of t^(2H) for H < 1/2, the second-derivative-transformed series
    for H > 1/2.  A cheap numeric probe of c_1 guards against passing the
    wrong object.
    """
    if not (0.0 < check_real(H, "H") < 1.0):
        raise BadParameter("H must lie in (0, 1)")
    if H == 0.5:
        raise BadParameter("H = 1/2 is not an fBm branch; use build_type_a with a linear generating function")
    N = _check_size(T, N, "build_fbm")
    check_instance(coeff_source, CosineSeries, "build_fbm: coeff_source")
    if coeff_source.k_max < N:
        raise BadParameter(f"coeff_source covers k <= {coeff_source.k_max} < N = {N}")
    _check_horizon(coeff_source, T, "build_fbm")
    high = H > 0.5
    if coeff_source.has_c0 == high:
        raise BranchMismatch(
            "coefficient series has_c0 flag does not match the parameter branch"
        )
    if coeff_source.k_max >= 1:
        expected = fbm_coefficients(H, T, 1).values[1]
        got = coeff_source.values[1]
        if abs(got - expected) > 1e-6 * max(1.0, abs(expected)):
            raise BranchMismatch(
                f"c_1 = {got:.6e} does not match the {('upper' if high else 'lower')} "
                f"branch value {expected:.6e}"
            )
    amps = _amps_from_radicands(-coeff_source.values[1 : N + 1] / 2.0, "build_fbm")
    drift = math.sqrt(H * T ** (2.0 * H - 2.0)) if high else 0.0
    family = "fbm_high" if high else "fbm_low"
    return SeriesExpansion(
        family=family,
        horizon_T=float(T),
        truncation_N=N,
        drift_amp=drift,
        amp=amps,
        label=f"{family}(H={H},T={T},N={N})",
        coeff_series=coeff_source,
    )


def build_type_a(spec, T, N):
    """Type-A expansion of a nonstationary process with generating function
    ``spec`` (bounded at 0, admissible): no drift, amplitudes
    sqrt(-c_k / 2) on both sin and (1 - cos)."""
    return _spec_expansion(spec, T, N, "type_a", divisor=2.0)


def build_type_b(spec_neg, T, N):
    """Type-B (stationary) expansion.  ``spec_neg`` describes -gamma, the
    admissible side; the construction refuses when the mean of gamma itself
    is negative, which the underlying theorem excludes."""

    def drift(c):
        # the constant term carries the mean of gamma: half the k = 0 entry
        c0_mean = -c[0] / 2.0
        if c0_mean < -1e-12 * max(1.0, abs(c0_mean)):
            raise NegativeC0(f"mean of the generating function is negative ({c0_mean:.6e})")
        return math.sqrt(max(c0_mean, 0.0))

    return _spec_expansion(spec_neg, T, N, "type_b", drift=drift)


def build_type_c(spec_neg, T, N):
    """Type-C expansion on the doubled interval.  ``spec_neg`` describes
    -gamma on (0, 2T]; the result keeps only sine terms at the half
    frequencies k pi / (2T) and is pinned to 0 at t = 0."""
    return _spec_expansion(spec_neg, T, N, "type_c")


def build_generalized_ou(theta, alpha, mu, sigma, sigma0, T, N):
    """Generalized Ornstein-Uhlenbeck expansion: a type-C core driven by the
    exponential kernel, plus the deterministic mean
    mu e^(-theta t) + alpha (1 - e^(-theta t)) and an independent initial
    value Y_0 ~ Normal(mu, sigma0^2) coupled through e^(-theta t)."""
    th, al, m, _, s0 = check_gen_ou(theta, alpha, mu, sigma, sigma0)
    N = _check_size(T, N, "build_generalized_ou")
    series = coeffs_closed("generalized_ou", T, N, theta=theta, sigma2=sigma * sigma)
    amps = _amps_from_radicands(series.values[1:], "build_generalized_ou")

    def mean_fn(t, th=th, al=al, m=m):
        e = np.exp(-th * np.asarray(t, dtype=float))
        return m * e + al * (1.0 - e)

    return SeriesExpansion(
        family="type_c",
        horizon_T=float(T),
        truncation_N=N,
        drift_amp=0.0,
        amp=amps,
        label=f"gen_ou(theta={theta},alpha={alpha},mu={mu},sigma={sigma},sigma0={sigma0},T={T},N={N})",
        mean_fn=mean_fn,
        init_coupling=(s0, th),
        coeff_series=series,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _run_paths(exp, tgrid, n_paths, seed, threads, synth, row_doubles):
    n_paths = check_int(n_paths, "n_paths", 1)
    seed = check_int(seed, "seed")
    if threads is not None:
        threads = check_int(threads, "threads", 1)
    values = np.empty((n_paths, tgrid.size))

    def block(start, stop, z, work):
        synth(z, work, values[start:stop])

    _engine.run_blocks(exp, n_paths, row_doubles, seed, threads, block)
    return PathBatch(
        grid=tgrid,
        values=values,
        seed=seed,
        expansion_ref=exp.label,
        truncation_N=exp.truncation_N,
    )


def sample_paths(exp, grid, n_paths, seed):
    """Sample ``n_paths`` paths of ``exp`` on an arbitrary grid in [0, T].

    Each path draws from its own Philox stream.  The basis sums are matrix
    products, which BLAS parallelizes, so the blocks run on one engine
    worker; the values are then byte-identical whatever the CPU count.
    Their rounding follows the block's shape, so they agree across block
    budgets to rounding only.
    """
    check_instance(exp, SeriesExpansion, "exp")
    tgrid = real_array(grid, "grid")
    T = exp.horizon_T
    # negated so that NaN fails both checks, and with them every non-finite grid
    if not np.all(np.diff(tgrid) > 0):
        raise BadParameter("grid must be strictly increasing")
    if not (-1e-12 * T <= tgrid[0] and tgrid[-1] <= T * (1.0 + 1e-12)):
        raise BadParameter("grid must lie inside [0, T]")
    return _run_paths(
        exp, tgrid, n_paths, seed, 1,
        lambda z, work, out: _engine.direct_values(exp, tgrid, z, work, out),
        _engine.direct_row_doubles(exp, tgrid.size),
    )


def sample_paths_fast(exp, M, n_paths, seed, threads=None):
    """Sample on the uniform grid t_j = j T / M via fast trig transforms.

    ``M`` is the resolution, an integer >= 1; the grid is
    ``_engine.uniform_grid(T, M)``.  Paths are drawn, weighted, folded and
    transformed one bounded block at a time, on at most ``threads`` workers
    (default: the CPUs this process may use) that share one block budget,
    so memory stays bounded whatever N and the worker count are, and the
    values are byte-identical across block sizes and thread counts.
    Matches :func:`sample_paths` on the same grid and seed to 1e-10
    absolute.
    """
    check_instance(exp, SeriesExpansion, "exp")
    m = check_int(M, "M", 1)
    weights = _engine.draw_weights(exp)
    return _run_paths(
        exp, _engine.uniform_grid(exp.horizon_T, m), n_paths, seed, threads,
        lambda z, work, out: _engine.fast_values(exp, m, weights, z, work, out),
        _engine.grid_row_doubles(exp, m),
    )


def aliased_expansion(exp, M):
    """The folded expansion of ``exp`` on the uniform grid t_j = j T / M: an
    expansion with the same law on that grid, one frequency per distinct
    grid function instead of one per frequency of ``exp``.

    On the grid, sin and cos of pi k j / L depend on k only mod 2L (L = M,
    or 2M for type C), and residues r and 2L - r give the same functions up
    to the sine's sign, so the amplitude-weighted draws of all frequencies
    landing on reflected residue r = 1 .. L are one Gaussian per channel,
    whose variance is the folded sum of squared amplitudes of both residues.
    Residue 0 is the constant in a cos channel, whose variance joins the
    drift's.  The result keeps the family, horizon, mean and initial-value
    coupling of ``exp``, has R = min(N, L) amplitudes (the roots of those
    variances, ``_engine.folded_amplitudes``) and no coefficient series,
    and its label names the grid.  :func:`sample_paths_fast` draws it at
    2R+1 normals a path, plus one for an initial value: a cost that does not
    grow with N beyond the O(N) amplitude fold.  Its paths are not those of
    ``exp`` past N = L, and are exactly those when N <= L.
    """
    check_instance(exp, SeriesExpansion, "exp")
    m = check_int(M, "M", 1)
    amp, drift = _engine.folded_amplitudes(exp, m)
    return replace(
        exp,
        truncation_N=amp.size,
        drift_amp=drift,
        amp=amp,
        label=f"aliased({exp.label},M={m})",
        coeff_series=None,
    )


# ---------------------------------------------------------------------------
# truncation selection
# ---------------------------------------------------------------------------


# beyond this N a coefficient index is no longer an exact float
_MAX_TRUNCATION = 1 << 53


def truncation_for_tolerance(series, eps):
    """Smallest N with sqrt(2 * tail_sum(N)) <= eps.

    The factor 2 bounds the basis functions; the result is monotone in eps
    with minimum 1.  :func:`specgauss.fourier.tail_sum` is defined at every
    N, inside the table or beyond it (exactly for a series that records its
    power law, else from the fitted decay), and nonincreasing in N, so N is
    found by doubling, then bisection.
    """
    check_instance(series, CosineSeries, "series")
    if not (check_real(eps, "eps") > 0):
        raise BadParameter("eps must be positive")
    # tiny relative slack so eps = sqrt(2 tail_sum(N)) round-trips to N
    target = eps * eps / 2.0 * (1.0 + 1e-12)
    lo, hi = 0, 1
    while (tail := tail_sum(series, hi)) > target:
        if tail == math.inf:
            raise TailEstimateUnavailable("the tail diverges or its fit failed; no N bounds it")
        if hi >= _MAX_TRUNCATION:
            raise TailEstimateUnavailable("no N <= 2^53 meets the tolerance")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_sum(series, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
