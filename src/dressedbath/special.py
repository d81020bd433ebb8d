"""Scaled exponential integrals that stay finite at large arguments.

The damped-oscillator branch-cut integrals reduce to combinations like
exp(z)*E1(z) and exp(-x)*Ei(x).  Both factors overflow or underflow double
precision long before the product does, so the products are computed here
as single scaled functions:

    exp1_scaled(z) = e**z  * E1(z)   ~  1/z  for |z| -> inf
    ei_scaled(x)   = e**-x * Ei(x)   ~  1/x  for   x -> inf

For moderate arguments the scipy values are multiplied by the exponential
directly; E1(z) ~ e^{-z}/z stays representable up to |Re z| near 700, so a
cut at 600 leaves a wide safety margin.  Beyond the cut the divergent
asymptotic series is summed to its smallest term, which at |z| > 600 is far
below double precision resolution (the k-th term is k!/z**k, under 1e-37 by
k = 20).
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sp

__all__ = ["exp1_scaled", "ei_scaled"]

_ASYMPTOTIC_CUT = 600.0
_MAX_TERMS = 60


def _exp1_asymptotic(z: np.ndarray) -> np.ndarray:
    # e^z E1(z) ~ (1/z) * sum_k (-1)^k k! / z^k, truncated at the smallest
    # term per lane.  Valid for large |Re z| of either sign: the branch-cut
    # discontinuity -i*pi*e^z carries a factor e^{Re z} < e^{-600} there.
    # At z = -x it is -e^-x Ei(x) ~ -(1/x) * sum_k k! / x^k, the same terms
    # with every sign flipped exactly, so ei_scaled reuses it.
    inv = 1.0 / z
    term = inv.copy()
    total = inv.copy()
    last = np.abs(term)
    active = np.ones(z.shape, dtype=bool)
    for k in range(1, _MAX_TERMS):
        term = term * (-k * inv)
        mag = np.abs(term)
        active &= mag < last
        if not active.any():
            break
        total = np.where(active, total + term, total)
        last = mag
    return total


def exp1_scaled(z):
    """e**z * E1(z) for complex z off the negative real axis, elementwise."""
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    out = np.empty(z_arr.shape, dtype=complex)
    direct = np.abs(z_arr.real) <= _ASYMPTOTIC_CUT
    if direct.any():
        zd = z_arr[direct]
        out[direct] = np.exp(zd) * _sp.exp1(zd)
    if (~direct).any():
        out[~direct] = _exp1_asymptotic(z_arr[~direct])
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
    direct = x_arr <= _ASYMPTOTIC_CUT
    if direct.any():
        xd = x_arr[direct]
        out[direct] = np.exp(-xd) * _sp.expi(xd)
    if (~direct).any():
        out[~direct] = -_exp1_asymptotic(-x_arr[~direct])
    return float(out[0]) if scalar else out
