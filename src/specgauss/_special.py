"""Special functions and the banded solve behind the scalar quantizers, in
numpy and the standard library.

:func:`normal_tail` is the standard normal tail beyond |x|, from Cody's
rational erfc over an array or ``math.erfc`` over a short one;
:func:`normal_quantile` the inverse normal cdf, by the standard library's
AS 241; :func:`solve_tridiagonal` an unpivoted tridiagonal solve, cyclic
reduction down to a Thomas solve.  The tests check each against an
independent reference implementation.
"""

import math

import numpy as np

_SQRT_HALF = math.sqrt(0.5)

# Rational approximations, coefficients highest degree first.
# erfc (Cody 1969, Math. Comp. 23, in the form of his CALERF): on
# z <= 0.46875, erfc z = 1 - z P(z^2) / Q(z^2); on (0.46875, 4],
# erfc z = e^(-z^2) P(z) / Q(z); above 4, with s = 1 / z^2,
# erfc z = e^(-z^2) (1/sqrt(pi) - s P(s) / Q(s)) / z.
_ERFC_NEAR = ((1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
               3.77485237685302021e2, 3.20937758913846947e3),
              (1.0, 2.36012909523441209e1, 2.44024637934444173e2,
               1.28261652607737228e3, 2.84423683343917062e3))
_ERFC_MID = ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
              6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
              1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
             (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
              1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
              3.43936767414372164e3, 1.23033935480374942e3))
_ERFC_FAR = ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
              1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
             (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
              6.05183413124413191e-2, 2.33520497626869185e-3))
# Lengths up to which a Python loop over scalars beats the array form, whose
# cost below a few hundred entries is numpy's per-call overhead; most cell
# arrays and Newton systems of an allocation are that short.  The crossovers
# were measured on a 2-core x86-64 box, and the dispatch reads only the
# array's length.  math.erfc serves only z <= 8: it splits its exponential,
# so beyond that it departs by more than 1e-14 from the once-rounded
# e^(-z^2) of the rational form.
_ERFC_LOOP_MAX = 640
_ERFC_LOOP_Z = 8.0
_THOMAS_MAX = 64


def _rational(coeffs, x):
    """P(x) / Q(x) for the coefficient pair ``coeffs`` (highest degree
    first), elementwise."""
    num, den = (np.full_like(x, c[0]) for c in coeffs)
    for p, q in zip(coeffs[0][1:], coeffs[1][1:]):
        num *= x
        num += p
        den *= x
        den += q
    return num / den


def _erfc(z):
    """erfc at nonnegative z, elementwise.  The exponential factor is
    e^(-z^2) of the rounded square, as in Cephes' ndtr: the rounding costs
    up to z^2 eps relative (8e-14 at the underflow edge), the same as there."""
    if z.size <= _ERFC_LOOP_MAX:
        zs = z.tolist()
        if max(zs, default=0.0) <= _ERFC_LOOP_Z:
            return np.fromiter(map(math.erfc, zs), float, count=len(zs))
    out = np.empty_like(z)
    near = z <= 0.46875
    far = z > 4.0
    mid = ~(near | far)
    if near.any():
        s = z[near]
        out[near] = 1.0 - s * _rational(_ERFC_NEAR, s * s)
    if mid.any():
        s = z[mid]
        out[mid] = np.exp(-s * s) * _rational(_ERFC_MID, s)
    if far.any():
        s = z[far]
        r = (1.0 / math.sqrt(math.pi) - _rational(_ERFC_FAR, 1.0 / (s * s)) / (s * s)) / s
        out[far] = np.exp(-s * s) * r
    return out


def normal_tail(x):
    """P(Z > |x|) for a standard normal Z, elementwise: the tail beyond
    |x|, computed directly, never as 1 minus the bulk."""
    return 0.5 * _erfc(np.abs(x) * _SQRT_HALF)


def normal_quantile(p):
    """The standard normal quantile Phi^-1(p), elementwise, by the
    standard library's AS 241 (Wichura 1988, Appl. Statist. 37), about
    1e-16 relative.  One scalar call per entry costs about 0.1 us, so no
    array form is needed: it runs once per quantizer."""
    # imported here: statistics brings decimal and fractions, about 0.6 MiB
    # resident that no other command needs
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(v) for v in np.asarray(p, dtype=float).tolist()])


def solve_tridiagonal(lower, diag, upper, rhs):
    """x with lower[i-1] x[i-1] + diag[i] x[i] + upper[i] x[i+1] = rhs[i].

    No pivoting, so the matrix must be diagonally dominant.  Systems of at
    most ``_THOMAS_MAX`` unknowns take the sequential Thomas algorithm.
    Longer ones are padded once with decoupled equations x = 0 to a length
    q 2^j - 1, q - 1 <= ``_THOMAS_MAX``, and cyclic reduction eliminates
    the even unknowns from the odd equations j times, leaving q - 1
    unknowns for the Thomas algorithm, then substitutes back.
    """
    n = diag.size
    if n <= _THOMAS_MAX:
        return np.array(_thomas(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()))
    levels = (n // _THOMAS_MAX).bit_length()
    step = 1 << levels
    pad = -(-(n + 1) // step) * step - 1 - n
    # full-length rows with a[0] = c[-1] = 0; each level keeps that shape
    a = np.concatenate(([0.0], lower, np.zeros(pad)))
    b = np.concatenate((diag, np.ones(pad)))
    c = np.concatenate((upper, np.zeros(pad + 1)))
    d = np.concatenate((rhs, np.zeros(pad)))
    rows = []
    for _ in range(levels):
        rows.append((a, b, c, d))
        alpha = a[1::2] / b[:-1:2]
        gamma = c[1::2] / b[2::2]
        a, b, c, d = (
            -alpha * a[:-1:2],
            b[1::2] - alpha * c[:-1:2] - gamma * a[2::2],
            -gamma * c[2::2],
            d[1::2] - alpha * d[:-1:2] - gamma * d[2::2],
        )
    x = np.array(_thomas(a[1:].tolist(), b.tolist(), c[:-1].tolist(), d.tolist()))
    for a, b, c, d in reversed(rows):
        known = np.concatenate(([0.0], x, [0.0]))
        full = np.empty(b.size)
        full[1::2] = x
        full[::2] = (d[::2] - a[::2] * known[:-1] - c[::2] * known[1:]) / b[::2]
        x = full
    return x[:n]


def _thomas(lower, diag, upper, rhs):
    # sequential elimination and back substitution on lists, where short
    # systems are cheaper than numpy calls
    b, d = diag[0], rhs[0]
    bs, ds = [b], [d]
    for lo, up, bi, di in zip(lower, upper, diag[1:], rhs[1:]):
        w = lo / b
        b = bi - w * up
        d = di - w * d
        bs.append(b)
        ds.append(d)
    x = d / b
    out = [x]
    for up, bi, di in zip(reversed(upper), reversed(bs[:-1]), reversed(ds[:-1])):
        x = (di - up * x) / bi
        out.append(x)
    return out[::-1]
