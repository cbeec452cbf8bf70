"""Functional quantization of truncated series expansions.

Pipeline: optimal scalar quantizers for standard normals (Newton solves
of the closed-form centroid conditions), level allocation under a product
budget, Gram-matrix eigenreduction of the non-orthonormal trigonometric
span, and product codebooks whose distortion splits into exact scalar
terms plus the expansion tail.  A Monte Carlo estimator cross-checks the
closed-form decomposition.

The scalar quantizers' normal tails, starting quantiles and tridiagonal
Newton solves come from :mod:`specgauss._special`, in numpy and the
standard library.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import _engine, _special
from ._util import check_instance, check_int, csv_table_text, real_array
from .errors import (
    BadParameter,
    GramSingularWarning,
    NonConvergenceWarning,
    TooFewPaths,
)
from .expansion import SeriesExpansion
from .fourier import tail_sum

__all__ = [
    "Quantizer1D",
    "GramMatrix",
    "ReducedKL",
    "FunctionalQuantizer",
    "gauss1d_quantizer",
    "allocate_levels",
    "gram_matrix",
    "kl_reduce",
    "product_quantizer",
    "distortion_mc",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_NEWTON_CAP = 60
# largest stationarity residual (centroid minus level) of a converged quantizer
_LLOYD_TOL = 1e-10
# points t_j = j T / 256 of the grid on which distortion_mc integrates
_MC_GRID_POINTS = 257
# nodes and weights of 16-point Gauss-Legendre quadrature on [-1, 1]
_GAUSS16 = np.polynomial.legendre.leggauss(16)


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT2PI


@dataclass(frozen=True)
class Quantizer1D:
    """Optimal n-level quantizer of a standard normal.

    ``levels`` are increasing and antisymmetric about 0, ``boundaries``
    the n-1 cell midpoints, ``distortion`` the mean squared error
    E(Z - q(Z))^2.  ``converged`` is False when the Newton iteration hit
    its cap before the stationarity residual dropped below tolerance.
    """

    n: int
    levels: np.ndarray
    boundaries: np.ndarray
    distortion: float
    converged: bool = True

    def __post_init__(self):
        lv = np.ascontiguousarray(np.asarray(self.levels, dtype=float))
        bd = np.ascontiguousarray(np.asarray(self.boundaries, dtype=float))
        if lv.shape != (self.n,) or bd.shape != (max(self.n - 1, 0),):
            raise BadParameter("levels/boundaries shape mismatch")
        if self.n > 1 and not np.all(np.diff(lv) > 0):
            raise BadParameter("levels must be strictly increasing")
        for name, arr in (("levels", lv), ("boundaries", bd)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def quantize(self, y):
        """Indices of the nearest level for each value in ``y``."""
        return np.searchsorted(self.boundaries, np.asarray(y, dtype=float))


def _cells(y):
    """The n cells of the increasing levels y, cut at their midpoints.

    Returns the cells' normal masses, their n + 1 edges (-inf and inf at the
    ends) and phi at the edges.  Each is evaluated once per edge, the normal
    tail s = P(Z > |e|) from the edge's small side: with u(e) = s for e < 0
    and -s otherwise, Phi(e) = u(e) + [e >= 0], so a cell's mass is the
    difference of u across it, plus 1 for the one cell that straddles 0.
    No difference cancels against 1.
    """
    mids = 0.5 * (y[:-1] + y[1:])
    edges = np.concatenate(([-np.inf], mids, [np.inf]))
    phi = _phi(edges)
    # the levels are antisymmetric, as every iterate of gauss1d_quantizer
    # is, so the edges are too: the tails of the left half serve both
    left = _special.normal_tail(mids[: y.size // 2])
    small = np.concatenate(([0.0], left, left[y.size % 2 - 2 :: -1], [0.0]))
    neg = edges < 0.0
    u = np.where(neg, small, -small)
    mass = u[1:] - u[:-1] + (neg[:-1] != neg[1:])
    return mass, edges, phi


def _lloyd_step(y):
    mass, _, phi = _cells(y)
    ok = mass > 0.0
    new = np.where(ok, (phi[:-1] - phi[1:]) / np.where(ok, mass, 1.0), y)
    # stay on the symmetric manifold; the fixed point is antisymmetric
    return 0.5 * (new - new[::-1])


def _centroid_residual(y):
    """Centroid-minus-level residual and the pieces its Jacobian needs:
    the centroids, the masses, and phi and x phi at the edges."""
    mass, edges, phi = _cells(y)
    mass = np.maximum(mass, 1e-300)
    cent = (phi[:-1] - phi[1:]) / mass
    xphi = np.concatenate(([0.0], edges[1:-1] * phi[1:-1], [0.0]))
    return cent - y, cent, mass, phi, xphi


def _newton_delta(y):
    """Damped-Newton direction for the stationarity system.

    The coupling is tridiagonal: cell i touches levels i-1, i, i+1
    through its two boundaries.  Edge terms vanish because phi decays
    at the infinite boundaries.  The matrix is J - I for the Jacobian J
    of the contracting Lloyd map, diagonally dominant, so it needs no
    pivoting.
    """
    r, cent, mass, phi, xphi = _centroid_residual(y)
    da = (cent * phi[:-1] - xphi[:-1]) / mass
    db = (xphi[1:] - cent * phi[1:]) / mass
    # y is antisymmetric, so J - I is centrosymmetric, r is antisymmetric
    # and so is the step: solve for its left half, where an odd n's middle
    # level stays put and an even n's last left level couples to its mirror
    # image
    n, h = y.size, y.size // 2
    diag = 0.5 * (da[:h] + db[:h]) - 1.0
    if n % 2 == 0:
        diag[-1] -= 0.5 * db[h - 1]
    left = _special.solve_tridiagonal(0.5 * da[1:h], diag, 0.5 * db[: h - 1], r[:h])
    return r, np.concatenate((-left, [0.0] * (n % 2), left[::-1]))


def gauss1d_quantizer(n):
    """Optimal n-level quantizer of a standard normal.

    Damped Newton on the stationarity system (each level the centroid
    of its cell), started from the companding levels, where it converges
    quadratically in a few steps.  A step is halved up to six times
    until it keeps the levels increasing and lowers the residual; a step
    that still fails, or a residual that stops falling, falls back to
    one Lloyd step.  Iteration stops once the stationarity residual is
    below ``_LLOYD_TOL``; past n = 2^18, where rounding floors the
    residual near that tolerance, it warns after ``_NEWTON_CAP`` steps and
    returns the iterate with the smallest residual it evaluated.
    """
    n = check_int(n, "n", 1)
    if n == 1:
        return Quantizer1D(1, np.zeros(1), np.zeros(0), 1.0)
    # high-resolution quantizers have point density ~ phi^(1/3), whose
    # cdf is Phi(x/sqrt(3)); starting there puts Newton inside its
    # region of quadratic convergence; mirrored, the levels are exactly
    # antisymmetric from the start
    left = math.sqrt(3.0) * _special.normal_quantile((np.arange(1, n // 2 + 1) - 0.5) / n)
    y = np.concatenate((left, [0.0] * (n % 2), -left[::-1]))
    converged = False
    best, best_y = math.inf, y
    for _ in range(_NEWTON_CAP):
        r, delta = _newton_delta(y)
        resid = float(np.max(np.abs(r)))
        if resid < _LLOYD_TOL:
            converged = True
            break
        if resid >= best:
            y = _lloyd_step(y)
            continue
        best, best_y = resid, y
        step = 1.0
        for _ in range(6):
            # y and delta are exactly antisymmetric, so the candidate is too
            cand = y + step * delta
            if np.all(np.diff(cand) > 0.0):
                rc = _centroid_residual(cand)[0]
                if float(np.max(np.abs(rc))) < resid:
                    y = cand
                    break
            step *= 0.5
        else:
            y = _lloyd_step(y)
    if not converged:
        warnings.warn(
            f"gauss1d_quantizer(n={n}): iteration cap reached, returning best",
            NonConvergenceWarning,
        )
        y = best_y
    # the integral of (z - y)^2 phi(z) over each cell, in closed form
    _, _, mass, phi, xphi = _centroid_residual(y)
    dist = float(np.sum(mass * (1.0 + y * y) + xphi[:-1] - xphi[1:] - 2.0 * y * (phi[:-1] - phi[1:])))
    return Quantizer1D(n, y, 0.5 * (y[:-1] + y[1:]), dist, converged)


@functools.lru_cache(maxsize=None)
def _scalar_distortion(n):
    return gauss1d_quantizer(n).distortion


def allocate_levels(mu, budget_N):
    """Minimize sum mu_i * distortion(N_i) subject to prod N_i <= budget.

    Exact branch and bound over non-increasing level vectors (optimal
    ones are non-increasing because mu is), trying the larger level
    count first and keeping only strict improvements, so ties resolve to
    the lexicographically largest vector.  A count n below the cap is
    skipped when n + 1 leaves the same room for the later dimensions,
    room // (n + 1) == room // n: n + 1 then admits every completion n
    does, under a looser cap and at a smaller distortion, so n cannot
    win, not even on a tie.  Only the counts where the room changes are
    tried, so about 2 sqrt(budget) scalar quantizers are built in all.
    """
    mu = real_array(mu, "mu")
    if np.any(mu <= 0.0) or not np.all(np.isfinite(mu)):
        raise BadParameter("mu entries must be positive and finite")
    if np.any(np.diff(mu) > 1e-12 * mu[0]):
        raise BadParameter("mu must be non-increasing")
    budget = check_int(budget_N, "budget_N", 1)
    d = mu.size
    tails = np.concatenate((np.cumsum(mu[::-1])[::-1], [0.0]))
    best_cost = math.inf
    best_vec = None
    vec = [1] * d

    def descend(i, cap, room, cost):
        nonlocal best_cost, best_vec
        if i == d:
            if cost < best_cost:
                best_cost = cost
                best_vec = list(vec)
            return
        hi = min(cap, room)
        for nl in range(hi, 0, -1):
            if nl < hi and room // (nl + 1) == room // nl:
                # dominated by nl + 1, tried just before
                continue
            c = cost + mu[i] * _scalar_distortion(nl)
            if c >= best_cost:
                # distortion grows as nl shrinks, so no smaller nl helps
                break
            # remaining dims cost at least their mu sum times the best
            # scalar distortion still feasible
            if c + tails[i + 1] * _scalar_distortion(min(nl, room // nl)) >= best_cost:
                continue
            vec[i] = nl
            descend(i + 1, nl, room // nl, c)
            vec[i] = 1
        return

    descend(0, budget, budget, 0.0)
    return np.asarray(best_vec, dtype=int)


@dataclass(frozen=True)
class GramMatrix:
    """L2[0,T] inner products of the expansion basis functions."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        g = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if g.shape != (self.dim, self.dim):
            raise BadParameter("entries must be dim x dim")
        g.flags.writeable = False
        object.__setattr__(self, "entries", g)


# Squared L2[0, T] norms over T of the basis functions of frequency
# w = k pi / period_T.  The period is T or 2T, so sin(2 w T) = 0, and it is T
# wherever there is a cosine channel, so sin(w T) = 0 there too: sin has
# squared norm T/2, the cosine channel T/2 (cos) or 3T/2 (1 - cos), and
# type C has none.
_SELF_NORM = {"omc": 1.5, "cos": 0.5, None: 0.0}


def _basis_terms(exp, m):
    """Basis descriptors and amplitudes for the first m frequencies.

    Order: the drift coordinate when the family has one, then
    sin(k pi t / P) for k=1..m, then the cosine-channel functions for
    k=1..m.  Returns (terms, lambdas) with terms a list of
    (kind, omega) pairs.
    """
    if not (1 <= m <= exp.truncation_N):
        raise BadParameter("need 1 <= m <= truncation_N")
    if exp.init_coupling is not None and exp.init_coupling[0] > 0.0:
        raise BadParameter(
            "initial-value coupling lies outside the trigonometric span; "
            "quantization supports sigma0 = 0 only"
        )
    terms = []
    lams = []
    if exp.drift_amp > 0.0:
        terms.append((exp.drift_kind, 0.0))
        lams.append(exp.drift_amp)
    base = math.pi / exp.period_T
    for kind in ("sin", exp.cos_kind):
        if kind is not None:
            terms += [(kind, k * base) for k in range(1, m + 1)]
            lams += exp.amp[:m].tolist()
    return terms, np.asarray(lams, dtype=float)


def _gram_of_terms(terms, T):
    """Gram matrix of ``terms`` on [0, T] by 16-point Gauss-Legendre
    quadrature of their values (:func:`_eval_terms`) on equal panels.

    The fastest product of two terms has frequency 2 w_max; the
    max(16, ceil(2 w_max T / pi)) panels each span at most half its period,
    where 16 points leave an error far below rounding.  With r the rows
    scaled by the square roots of the weights, G = r r^T is exactly
    symmetric; it is summed over blocks of panels whose rows hold at most
    ``_engine.BLOCK_DOUBLES`` values.
    """
    n = len(terms)
    nodes, weights = _GAUSS16
    w_max = max(w for _, w in terms)
    panels = max(16, math.ceil(2.0 * w_max * T / math.pi))
    h = T / panels
    root = np.sqrt(0.5 * h * weights)
    per = max(1, _engine.BLOCK_DOUBLES // (n * nodes.size))
    g = np.zeros((n, n))
    for first in range(0, panels, per):
        starts = np.arange(first, min(first + per, panels))[:, None]
        r = _eval_terms(terms, ((starts + 0.5 * (nodes + 1.0)) * h).ravel())
        r *= np.tile(root, starts.size)
        g += r @ r.T
    return GramMatrix(n, g)


def gram_matrix(exp):
    """Gram matrix of the full basis of an expansion on [0, horizon_T]."""
    check_instance(exp, SeriesExpansion, "exp")
    terms, _ = _basis_terms(exp, exp.truncation_N)
    return _gram_of_terms(terms, exp.horizon_T)


def _eval_terms(terms, tgrid):
    t = np.asarray(tgrid, dtype=float)
    rows = np.empty((len(terms), t.size))
    for i, (kind, w) in enumerate(terms):
        if kind == "one":
            rows[i] = 1.0
        elif kind == "t":
            rows[i] = t
        elif kind == "sin":
            rows[i] = np.sin(w * t)
        elif kind == "cos":
            rows[i] = np.cos(w * t)
        else:
            rows[i] = 1.0 - np.cos(w * t)
    return rows


@dataclass(frozen=True)
class ReducedKL:
    """Karhunen-Loeve form of the covariance restricted to a truncated span.

    ``mu`` holds the descending eigenvalues and ``eigvecs`` the orthonormal
    eigenvectors p of B = Lam G Lam, each column signed so that its
    largest-magnitude entry is positive.  ``eigvec_coeffs`` is the matrix a
    with f_j = sum_i a[i, j] e_i: Lam p / sqrt(mu), re-orthonormalized
    once against G, so that a^T G a = I to rounding.  ``basis`` and
    ``lambdas`` record the underlying functions e_i and their amplitudes.
    """

    m: int
    mu: np.ndarray
    eigvec_coeffs: np.ndarray
    eigvecs: np.ndarray
    gram: GramMatrix
    basis: Tuple[Tuple[str, float], ...]
    lambdas: np.ndarray
    horizon_T: float

    def __post_init__(self):
        for name in ("mu", "eigvec_coeffs", "eigvecs", "lambdas"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=float))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def reduced_dim(self):
        return self.mu.size

    def basis_matrix(self, tgrid):
        """Rows e_i(t) of the raw basis on a grid."""
        return _eval_terms(self.basis, tgrid)

    def reduced_functions(self, tgrid):
        """Rows f_j(t) of the G-orthonormal reduced basis on a grid."""
        return self.eigvec_coeffs.T @ self.basis_matrix(tgrid)

    def coordinate_matrix(self):
        """Map M with Y = M z turning basis draws into unit-variance
        reduced coordinates (Y_j multiplies sqrt(mu_j) f_j).

        M = diag(mu)^(-1/2) a^T G diag(lambda), which for a = Lam p / sqrt(mu)
        is the eigenvector rows p^T, so those are returned as stored:
        orthonormal to rounding, where the product with the
        re-orthonormalized a would miss by its correction (about 4e-9).
        """
        return self.eigvecs.T


def kl_reduce(exp, m):
    """Eigenreduction of the truncated covariance on the span of the
    first m frequencies (plus the drift coordinate when present)."""
    check_instance(exp, SeriesExpansion, "exp")
    m = check_int(m, "m", 1)
    terms, lams = _basis_terms(exp, m)
    gram = _gram_of_terms(terms, exp.horizon_T)
    g = gram.entries
    # The operator restricted to the span is diagonalized through
    # B = Lam G Lam, assembled exactly from the data.  Its eigenpairs
    # (nu, p) give mu = nu and coefficient columns a = Lam p / sqrt(nu),
    # so a^T G a = I holds up to rounding; a G^(1/2) route would push the
    # near-null Gram directions through an absolute-error eigh and lose
    # the 1e-8 residual contract.
    b = (lams[:, None] * g) * lams[None, :]
    w, p = np.linalg.eigh(b)
    w = w[::-1]
    p = p[:, ::-1]
    tr = max(float(np.sum(np.abs(w))), np.finfo(float).tiny)
    # trim at 1e-9 of the operator trace: a dropped direction costs a
    # reconstruction defect of order m * (dropped mass) / T, well under
    # the residual contract, while a kept one contributes rounding noise
    # ~ 30 eps tr / nu to the orthonormality check, so directions below
    # the cut would drown that check in doubles
    keep = w > 1e-9 * tr
    if not np.any(keep):
        raise BadParameter("covariance restricted to the span is numerically zero")
    # zero-amplitude terms (e.g. vanishing even coefficients) yield exact
    # zero eigenvalues; only warn when a trimmed direction carried real
    # mass, which signals a nearly dependent basis
    eps = np.finfo(float).eps
    if np.any(~keep & (w > 64.0 * eps * tr)):
        warnings.warn(
            f"span is numerically rank-deficient: trimmed {int(np.sum(~keep))} "
            f"of {w.size} directions",
            GramSingularWarning,
        )
    w = w[keep]
    p = p[:, keep]
    # the sign of an eigenvector is LAPACK's choice: fix it by the data
    p *= np.where(p[np.argmax(np.abs(p), axis=0), np.arange(w.size)] < 0.0, -1.0, 1.0)
    a = (lams[:, None] * p) / np.sqrt(w)[None, :]
    # one re-orthonormalization against G, a <- a L^-T with L L^T = a^T G a,
    # takes the rounding of the small directions out of a^T G a = I
    chol = np.linalg.cholesky(a.T @ g @ a)
    a = np.linalg.solve(chol, a.T).T
    return ReducedKL(
        m=m,
        mu=w,
        eigvec_coeffs=a,
        eigvecs=p,
        gram=gram,
        basis=tuple(terms),
        lambdas=lams,
        horizon_T=exp.horizon_T,
    )


def _tail_variance_integral(exp):
    """Integral over [0,T] of the variance carried by frequencies beyond
    the truncation, from the tail sum of the stored coefficient series
    (exact for a power law, extrapolated otherwise)."""
    if exp.coeff_series is None:
        raise BadParameter("expansion carries no coefficient series")
    per_k = tail_sum(exp.coeff_series, exp.truncation_N)
    return per_k * (exp.horizon_T / exp.period_multiple)


@dataclass(frozen=True)
class FunctionalQuantizer:
    """Product codebook over the reduced coordinates of an expansion."""

    reduced: ReducedKL
    levels_per_dim: Tuple[int, ...]
    quantizers: Tuple[Quantizer1D, ...]
    distortion_sq: float
    expansion: object
    label: str = ""

    @property
    def n_codewords(self):
        return int(np.prod(self.levels_per_dim))

    def codeword_coeffs(self):
        """Array (n_codewords, reduced_dim) of sqrt(mu_j) y_j per codeword,
        multi-indices enumerated in row-major order."""
        root_mu = np.sqrt(self.reduced.mu)
        axes = [r * q.levels for r, q in zip(root_mu, self.quantizers)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack(grids, axis=-1).reshape(self.n_codewords, len(axes))

    def codebook_paths(self, tgrid):
        """Codeword paths on a grid, deterministic mean included."""
        f = self.reduced.reduced_functions(tgrid)
        paths = self.codeword_coeffs() @ f
        if self.expansion.mean_fn is not None:
            paths += np.asarray(self.expansion.mean_fn(np.asarray(tgrid, dtype=float)))[None, :]
        return paths

    def project_coords(self, y):
        """Quantize reduced coordinates (rows of y) to per-dimension levels."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.empty_like(y)
        for j, q in enumerate(self.quantizers):
            out[:, j] = q.levels[q.quantize(y[:, j])]
        return out

    def to_csv_text(self, tgrid, comments=()):
        """CSV ``t,cw_0,cw_1,...`` of the codeword paths on ``tgrid``,
        preceded by metadata comments."""
        t = np.asarray(tgrid, dtype=float)
        paths = self.codebook_paths(t)
        levels = "x".join(str(n) for n in self.levels_per_dim)
        head = [*comments, ["codebook", ("label", self.label), ("budget_levels", levels)]]
        names = ["t", *(f"cw_{i}" for i in range(paths.shape[0]))]
        return csv_table_text(head, names, [t, paths])

    def sidecar_dict(self):
        return {
            "levels_per_dim": [int(n) for n in self.levels_per_dim],
            "mu": [float(v) for v in self.reduced.mu],
            "distortion_sq": float(self.distortion_sq),
        }


def product_quantizer(model, exp, budget_N, m=None):
    """Rate-optimal product quantizer of an expansion under a codebook
    budget.  ``m`` defaults to max(1, ceil(log2 budget)).  ``model`` only
    names the codebook; its label, when it has one, is the codebook's."""
    check_instance(exp, SeriesExpansion, "exp")
    budget = check_int(budget_N, "budget_N", 1)
    if m is None:
        m = max(1, math.ceil(math.log2(budget)))
    red = kl_reduce(exp, m)
    m = red.m
    nvec = allocate_levels(red.mu, budget)
    quants = tuple(gauss1d_quantizer(int(n)) for n in nvec)
    scalar_term = float(np.sum(red.mu * np.array([q.distortion for q in quants])))
    # variance carried by frequencies inside the truncation but beyond the
    # reduced span, one squared norm per channel (see _SELF_NORM)
    T = exp.horizon_T
    norm_sq = (0.5 + _SELF_NORM[exp.cos_kind]) * T
    rest = exp.amp[m:]
    beyond = norm_sq * float(rest @ rest)
    label = getattr(model, "label", None) or exp.label or exp.family
    dist = scalar_term + beyond + _tail_variance_integral(exp)
    return FunctionalQuantizer(
        reduced=red,
        levels_per_dim=tuple(int(n) for n in nvec),
        quantizers=quants,
        distortion_sq=float(dist),
        expansion=exp,
        label=label,
    )


def _coordinate_draws(exp, red, z):
    """Columns of z for the reduced basis, in basis order."""
    z0, zs, zc = _engine.split_draws(exp, z)
    cols = []
    if exp.drift_amp > 0.0:
        cols.append(z0[:, None])
    cols.append(zs[:, : red.m])
    if exp.cos_kind is not None:
        cols.append(zc[:, : red.m])
    return np.concatenate(cols, axis=1)


def distortion_mc(q, exp, n_paths, seed):
    """Monte Carlo estimate of the integrated squared quantization error.

    Samples fresh paths, projects each onto its nearest codeword through
    the reduced coordinates, and integrates the squared gap by the
    trapezoid rule on the ``_MC_GRID_POINTS`` points t_j = j T / 256.
    Returns (estimate, stderr).
    """
    check_instance(q, FunctionalQuantizer, "q")
    check_instance(exp, SeriesExpansion, "exp")
    n_paths = check_int(n_paths, "n_paths")
    seed = check_int(seed, "seed")
    if n_paths < 100:
        raise TooFewPaths(f"distortion estimate needs >= 100 paths, got {n_paths}")
    m_panels = _MC_GRID_POINTS - 1
    tgrid = _engine.uniform_grid(exp.horizon_T, m_panels)
    red = q.reduced
    fmat = red.reduced_functions(tgrid)
    cmat = red.coordinate_matrix()
    root_mu = np.sqrt(red.mu)
    sq = np.empty(n_paths)
    size = tgrid.size
    dt = np.diff(tgrid)
    weights = _engine.draw_weights(exp)

    def block(start, stop, z, work):
        p = stop - start
        # the coordinates first: fast_values weights the draws in place
        y = _coordinate_draws(exp, red, z) @ cmat.T
        gap, work = _engine.carve(work, (p, size))
        code, work = _engine.carve(work, (p, size))
        _engine.fast_values(exp, m_panels, weights, z, work, gap)
        np.matmul(q.project_coords(y) * root_mu[None, :], fmat, out=code)
        if exp.mean_fn is not None:
            code += np.asarray(exp.mean_fn(tgrid))[None, :]
        gap -= code
        gap *= gap
        # np.trapezoid's sums (dt (g_{j+1} + g_j) / 2), formed in code's rows
        half, _ = _engine.carve(code.reshape(-1), (p, size - 1))
        np.add(gap[:, 1:], gap[:, :-1], out=half)
        half *= dt
        half /= 2.0
        np.sum(half, axis=1, out=sq[start:stop])

    # per row besides the draws: the path and its code, then the fold and
    # transform; the coordinate draws and their projections, a few dozen
    # doubles per row, are the block's own
    row = 2 * size + _engine.grid_row_doubles(exp, m_panels)
    _engine.run_blocks(exp, n_paths, row, seed, None, block)
    est = float(np.mean(sq))
    se = float(np.std(sq, ddof=1) / math.sqrt(n_paths))
    return est, se
