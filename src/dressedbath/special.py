"""Scaled exponential integrals, and the digamma and trigamma functions.

The damped-oscillator branch-cut integrals reduce to combinations like
exp(z)*E1(z) and exp(-x)*Ei(x).  Both factors overflow or underflow double
precision long before the product does, so the products are computed here
as single scaled functions:

    exp1_scaled(z) = e**z  * E1(z)   ~  1/z  for |z| -> inf
    ei_scaled(x)   = e**-x * Ei(x)   ~  1/x  for   x -> inf

Each lane takes one of three regions, after the split of Amos (1990, ACM
TOMS 683):

* the power series E1(z) = -gamma - ln z - S(-z) and Ei(x) = gamma + ln x
  + S(x), S(w) = sum_{k>=1} w**k / (k k!) (Abramowitz & Stegun 5.1.11 and
  5.1.10), for |z| + Re z < 3.06 with |z| <= 40, and for 0 < x <= 40.
  Beside the negative real axis the terms of S(-z) turn slowly, so the
  sum loses at most a factor e**(|z| + Re z) < 21 to cancellation; every
  term of S(x) is positive.
* the even continued fraction e**z E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- ...)))
  (A&S 5.1.22, contracted), evaluated backward from a fixed depth, for the
  other z with |Re z| <= 600.  It converges slowly only where |z| + Re z
  is small, which is the parabola the series takes.
* the asymptotic series (1/z) sum_k (-1)**k k! / z**k for |Re z| > 600, and
  its all-positive form for Ei at x > 40, cut where the terms fall below
  double precision (at x = 40 the smallest is 6.7e-17).

Term counts and depths come from a few fixed classes of |z|, |z| + Re z
and x (the tables below), never from the other lanes of a call, and no
lane's arithmetic depends on its neighbours: an array call returns, bit
for bit, what a call on each element alone returns.

Against 40-digit mpmath the worst relative error of exp1_scaled was 2.3e-15
over 3,221 points: a 50 x 61 polar grid with |z| from 1e-3 to 1e3 and
|arg z| up to pi - 1e-5, rays 1e-4 rad from the negative axis with |z|
from 1 to 60, and the positive axis from 1 to 6 (scipy's exp1 was 8.5e-13
off on the same points).  ei_scaled was 1.6e-15 off on 1,995 points from
1e-3 to 1e6, leaving out 0.01 either side of the zero of Ei at x = 0.3725,
where the absolute error stays below 1e-16.

``psi`` and ``psi1`` (digamma and trigamma, real z > 0) carry the digamma
tail of the finite bath's secular sum.  Each steps z up by the recurrences
psi(z) = psi(z+1) - 1/z and psi1(z) = psi1(z+1) + 1/z**2 until z >= 12, then
sums the Bernoulli asymptotic series (A&S 6.3.18 and 6.4.12) through
B_16, whose first omitted term is below 4e-17 relative at z = 12.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["exp1_scaled", "ei_scaled", "psi", "psi1"]

_EULER = 0.57721566490153286061
_ASYMPTOTIC_CUT = 600.0     # |Re z| above this: asymptotic series
_SERIES_EDGE = 3.06         # |z| + Re z below this (and |z| <= 40): series
_SERIES_RADIUS = 40.0       # series up to this |z|; Ei's series up to this x


def _constants(values):
    """Each value as a 0-d array, real and complex: numpy adds, multiplies
    and divides by these faster than by Python floats, which it converts
    on every call."""
    values = list(values)
    return {dt: [np.array(v, dtype=dt) for v in values]
            for dt in (np.dtype(float), np.dtype(complex))}


# Each count is the smallest whose truncation error at the worst point of
# its class is below 4e-16 relative for the continued fraction and 3e-17
# for the two series (7e-17 for the asymptotic one at x = 40).
#
# S(w) = w * sum_j w**j / ((j+1) (j+1)!): terms by class of |w|
_SERIES_CLASSES = (np.array([1.0, 3.06, 8.0, 16.0, 25.0]),
                   np.array([18, 27, 42, 61, 79, 106]))
_SERIES_COEF = _constants(1.0 / ((j + 1) * math.factorial(j + 1))
                          for j in range(_SERIES_CLASSES[1].max()))
# continued-fraction depth by class of |z| + Re z.  Beyond |z| = 40 the
# depth stays at 10: the depth-n fraction has poles at the zeros of the
# Laguerre polynomial L_{n+1}(-z), which pass |z| = 40 from n = 12 on
# (depth 12 and 15 were 6e-14 and 1.3e-14 off beside the negative axis)
_CF_CLASSES = (np.array([4.0, 6.0, 10.0, 20.0, 40.0, 80.0]),
               np.array([65, 51, 36, 23, 14, 9, 6]))
_CF_FAR_DEPTH = 10
_CF_K = range(_CF_CLASSES[1].max() + 1)
_CF_SQUARES = _constants(float(k * k) for k in _CF_K)[np.dtype(complex)]
_CF_ODD = _constants(2.0 * k - 1.0 for k in _CF_K)[np.dtype(complex)]
# asymptotic sum_k k! u**k: terms by class of |z|
_ASYMPTOTIC_CLASSES = (np.array([45.0, 60.0, 120.0, 600.0]),
                       np.array([40, 29, 20, 13, 8]))
_ASYMPTOTIC_COEF = _constants(float(math.factorial(k))
                              for k in range(_ASYMPTOTIC_CLASSES[1].max()))


def _class_counts(size, classes):
    # class i holds bounds[i-1] < size <= bounds[i]; the last is open above
    bounds, counts = classes
    return counts[np.searchsorted(bounds, size)]


def _by_count(counts):
    """Order lanes by count, largest first, and split the counts into steps.

    Returns the order and a list of (c, steps): the first c ordered lanes
    take the steps in `steps`, which run from the largest count down.
    Every lane joins at its own count, so a lane's arithmetic does not
    depend on the other lanes.
    """
    order = np.argsort(-counts, kind="stable")
    sizes = np.bincount(counts)
    levels = np.flatnonzero(sizes)[::-1]
    ends = np.cumsum(sizes[levels]).tolist()
    levels = levels.tolist()
    return order, [(c, range(n - 1, low - 1, -1))
                   for c, n, low in zip(ends, levels, levels[1:] + [0])]


def _horner(w, coef, counts):
    """sum_{j < counts} coef[j] * w**j per lane, by Horner's rule.

    Each lane starts at its own top term from exactly zero.  The product
    goes to a second buffer: numpy multiplies complex arrays in place by
    another loop, which rounds some lanes differently.
    """
    coef = coef[w.dtype]
    order, blocks = _by_count(counts)
    wv = w[order]
    s = np.zeros_like(wv)
    ws = np.empty_like(wv)
    for c, steps in blocks:
        sv, wc, wsv = s[:c], wv[:c], ws[:c]
        for j in steps:
            np.multiply(sv, wc, out=wsv)
            np.add(wsv, coef[j], out=sv)
    out = np.empty_like(s)
    out[order] = s
    return out


def _continued_fraction(z, depth):
    """1/(z+1- 1/(z+3- 4/(z+5- ... k**2/(z+2k+1)))) with k = depth per lane."""
    order, blocks = _by_count(depth)
    zv = z[order]
    t = zv + (2.0 * depth[order] + 1.0)
    tmp = np.empty_like(t)
    for c, steps in blocks:
        tv, zc, tc = t[:c], zv[:c], tmp[:c]
        for j in steps:
            np.divide(_CF_SQUARES[j + 1], tv, out=tv)
            np.add(zc, _CF_ODD[j + 1], out=tc)
            np.subtract(tc, tv, out=tv)
    out = np.empty_like(t)
    out[order] = 1.0 / t
    return out


def _asymptotic(u, size):
    # u * sum_k k! u**k: -e**z E1(z) at u = -1/z, and e**-x Ei(x) at u = 1/x.
    # The branch-cut jump -i*pi*e^z of E1 is below e^-600 where it is used.
    return u * _horner(u, _ASYMPTOTIC_COEF, _class_counts(size, _ASYMPTOTIC_CLASSES))


def exp1_scaled(z):
    """e**z * E1(z) for complex z off the negative real axis, elementwise."""
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.empty(z_arr.shape, dtype=complex)
    r = np.abs(z_arr)
    edge = r + z_arr.real
    far = np.abs(z_arr.real) > _ASYMPTOTIC_CUT
    series = ~far & (edge < _SERIES_EDGE) & (r <= _SERIES_RADIUS)
    lanes = np.flatnonzero(series)
    if lanes.size:
        zs = z_arr[lanes]
        w = -zs
        s = w * _horner(w, _SERIES_COEF, _class_counts(r[lanes], _SERIES_CLASSES))
        out[lanes] = -np.exp(zs) * ((_EULER + np.log(zs)) + s)
    lanes = np.flatnonzero(~(far | series))
    if lanes.size:
        depth = _class_counts(edge[lanes], _CF_CLASSES)
        depth = np.where(r[lanes] > _SERIES_RADIUS, np.minimum(depth, _CF_FAR_DEPTH), depth)
        out[lanes] = _continued_fraction(z_arr[lanes], depth)
    lanes = np.flatnonzero(far)
    if lanes.size:
        out[lanes] = -_asymptotic(-1.0 / z_arr[lanes], r[lanes])
    return complex(out[0]) if scalar else out


def ei_scaled(x):
    """e**-x * Ei(x) for real x > 0, elementwise.

    Ei carries the principal-value sense across its pole at the origin,
    which is exactly what the principal-value frequency integrals need.
    """
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    x_arr = np.atleast_1d(x_arr)
    out = np.empty(x_arr.shape, dtype=float)
    series = x_arr <= _SERIES_RADIUS
    lanes = np.flatnonzero(series)
    if lanes.size:
        xs = x_arr[lanes]
        s = xs * _horner(xs, _SERIES_COEF, _class_counts(xs, _SERIES_CLASSES))
        out[lanes] = np.exp(-xs) * ((_EULER + np.log(xs)) + s)
    lanes = np.flatnonzero(~series)
    if lanes.size:
        xa = x_arr[lanes]
        out[lanes] = _asymptotic(1.0 / xa, xa)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# digamma and trigamma
# ---------------------------------------------------------------------------

_PSI_SWITCH = 12.0
# B_2 .. B_16, highest first for Horner's rule in 1/z**2
_BERNOULLI = (-3617.0 / 510.0, 7.0 / 6.0, -691.0 / 2730.0, 5.0 / 66.0,
              -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 1.0 / 6.0)


def _shifted(z, power):
    """z + m and sum_{i<m} (z+i)**-power, m the fewest steps to reach 12.

    The sum comes as a pair (s, e), s the sum in double precision and e its
    rounding error, which psi keeps apart, since its sum cancels against
    log(z + m) near the zero of psi at 1.4616.  A lane's terms are summed
    one by one, smallest first, after exact zeros in the columns it does
    not use, and e gathers each addition's error by Knuth's TwoSum, so
    neither depends on the other lanes of the call.
    """
    w = np.array(z, dtype=float).ravel()
    total = np.zeros_like(w)
    error = np.zeros_like(w)
    lanes = np.flatnonzero(w < _PSI_SWITCH)
    if lanes.size:
        zs = w[lanes]
        steps = np.ceil(_PSI_SWITCH - zs)
        i = np.arange(steps.max() - 1.0, -1.0, -1.0)
        terms = np.where(i < steps[:, None], (zs[:, None] + i) ** -power, 0.0)
        sums = np.cumsum(terms, axis=1)
        before = np.zeros_like(sums)
        before[:, 1:] = sums[:, :-1]
        added = sums - before
        slips = (before - (sums - added)) + (terms - added)
        total[lanes] = sums[:, -1]
        error[lanes] = np.cumsum(slips, axis=1)[:, -1]
        w[lanes] = zs + steps
    return w, total, error


def _scalar_or_array(z, out):
    return float(out[0]) if np.ndim(z) == 0 else out.reshape(np.shape(z))


def psi(z):
    """Digamma psi(z) = Gamma'(z)/Gamma(z) for real z > 0, elementwise."""
    w, recur, error = _shifted(z, 1)
    y = 1.0 / (w * w)
    series = 0.0
    for n, b in zip(range(len(_BERNOULLI), 0, -1), _BERNOULLI):
        series = series * y + b / (2 * n)
    return _scalar_or_array(z, ((np.log(w) - recur) - error) - (0.5 / w + y * series))


def psi1(z):
    """Trigamma psi'(z) for real z > 0, elementwise."""
    w, recur, error = _shifted(z, 2)
    y = 1.0 / (w * w)
    series = 0.0
    for b in _BERNOULLI:
        series = series * y + b
    return _scalar_or_array(z, (recur + error) + ((1.0 + 0.5 / w) + y * series) / w)
