"""Quadrature on explicit panels: adaptive Gauss-Kronrod and Filon-Legendre.

``adaptive_gk`` refines QUADPACK's 15-point Kronrod rule with its embedded
7-point Gauss rule (dqk15) by bisection on explicit panel arrays, so
structural breakpoints land on panel edges and the integrand may be
complex.  Its error per panel, |K15 - G7|, estimates the Gauss error and is
deliberately conservative.  Panels are held node-major, 15 rows of P.

The decay amplitude's Fourier integrals use Filon's method instead (Filon
1928; Iserles and Norsett 2005, Proc. R. Soc. A 461): ``_legendre_panels``
fits the integrand by degree-19 Legendre series on panels split on the
integrand alone, and ``_fourier_sums`` integrates each series against
e^{-i u t} exactly, at a cost per (time, panel) pair that does not grow
with t.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

__all__ = ["adaptive_gk"]

# 15-point Kronrod abscissae (nonnegative half) and weights, with the
# embedded 7-point Gauss weights; values as tabulated in QUADPACK's dqk15.
_XGK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK_HALF = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697, 0.2797053914892767,
    0.3818300505051189, 0.4179591836734694,
])

_NODES = np.concatenate((-_XGK_HALF[:7], _XGK_HALF[::-1]))
_WGK = np.concatenate((_WGK_HALF[:7], _WGK_HALF[::-1]))
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])
_WG = np.concatenate((_WG_HALF[:3], _WG_HALF[3:4], _WG_HALF[2::-1]))

# refinement budget of each call: it stops splitting at this many panels,
# or after this many rounds of splitting
_PANEL_BUDGET = 200000
_REFINE_ROUNDS = 40


def _distinct(values):
    # np.unique(values, return_inverse=True) from one sort and a mask: the
    # distinct values in ascending order, and the index of each value's own
    # among them.  np.unique imports numpy.ma on its first call, about 12 ms
    # of a fresh process.
    ordered = np.sort(values)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _rule_sums(rows, size):
    # sum_j w_j rows[j] for the Kronrod and the Gauss weights, each added
    # in node order onto zeros: how einsum("ij,j->i") sums a complex
    # (P, 15) array, bit for bit
    kron = np.zeros(size, dtype=complex)
    gauss = np.zeros(size, dtype=complex)
    term = np.empty(size, dtype=complex)
    for j, row in enumerate(rows):
        np.multiply(row, _WGK[j], out=term)
        kron += term
        if j % 2:
            np.multiply(row, _WG[j // 2], out=term)
            gauss += term
    return kron, gauss


def _eval_panels(func, lefts, rights):
    # K15 values and |K15 - G7| errors of the panels [lefts, rights], with
    # the nodes and integrand values held node-major, (15, P)
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = np.multiply(_NODES[:, None], halves)
    nodes += centers
    fvals = np.asarray(func(nodes.ravel())).reshape(nodes.shape)
    if np.iscomplexobj(fvals):
        kron, gauss = _rule_sums(fvals, centers.size)
    else:
        # einsum, not a BLAS matrix-vector product: BLAS rounds a lone row
        # differently from the same row among others, and a panel's value
        # must not depend on which panels share the batch.  The real einsum
        # sums a contiguous row in its own order, so it gets (P, 15) rows.
        rows = np.ascontiguousarray(fvals.T)
        kron = np.einsum("ij,j->i", rows, _WGK)
        gauss = np.einsum("ij,j->i", rows[:, _GAUSS_IDX], _WG)
    kron = halves * kron
    gauss = halves * gauss
    return kron, np.abs(kron - gauss)


def _bisect(bad, *arrays):
    # each bad panel takes two slots in place, its halves, so the panels
    # stay in order left to right; arrays[0] and arrays[1] are the lefts and
    # rights.  Returns the arrays and the slots of the new halves.
    first = np.flatnonzero(bad)
    first += np.arange(first.size)
    arrays = [np.repeat(a, bad + 1, axis=0) for a in arrays]
    lefts, rights = arrays[:2]
    mids = 0.5 * (lefts[first] + rights[first])
    rights[first] = mids
    lefts[first + 1] = mids
    return arrays, np.concatenate((first, first + 1))


def adaptive_gk(func, edges, tol_abs):
    """Integrate func over [edges[0], edges[-1]] with adaptive bisection.

    func must accept a 1d array and return values elementwise (real or
    complex).  edges fixes the initial panel boundaries; panels whose error
    exceeds its fair share of tol_abs are split in half until the summed
    estimate drops below tol_abs or the budget runs out (200000 panels,
    40 rounds).  Returns (value, error_estimate); the caller decides
    whether a missed tolerance is fatal.  Raises NumericalFailure on
    non-finite integrand values.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(edges[1:] <= edges[:-1]):
        raise NumericalFailure("panel edges must be strictly increasing")
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = _eval_panels(func, lefts, rights)
    for _ in range(_REFINE_ROUNDS):
        if not np.all(np.isfinite(errs)):
            raise NumericalFailure("integrand produced non-finite values")
        if not (errs.sum() > tol_abs and errs.size < _PANEL_BUDGET):
            break
        # every panel below tol_abs/(2n) is fine as is; if all were, the
        # total would already be under tol_abs/2, so at least one splits
        (lefts, rights, vals, errs), halves = _bisect(
            errs > tol_abs / (2.0 * errs.size), lefts, rights, vals, errs)
        vals[halves], errs[halves] = _eval_panels(func, lefts[halves], rights[halves])
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("integrand produced non-finite values")
    # summed left to right, independent of the split history
    return vals.sum(), float(errs.sum())


# ---------------------------------------------------------------------------
# Legendre panels and their Fourier integrals (Filon's method)
# ---------------------------------------------------------------------------

# 20-point Gauss-Legendre abscissae (positive half, descending) and weights
_XGL_HALF = np.array([
    0.9931285991850949, 0.9639719272779138, 0.912234428251326, 0.8391169718222188,
    0.7463319064601508, 0.636053680726515, 0.5108670019508271, 0.37370608871541955,
    0.22778585114164507, 0.07652652113349734])
_WGL_HALF = np.array([
    0.017614007139152118, 0.04060142980038694, 0.06267204833410907, 0.08327674157670475,
    0.10193011981724044, 0.11819453196151841, 0.13168863844917664, 0.14209610931838204,
    0.14917298647260374, 0.15275338713072584])
_ORDERS = 20
_GL_NODES = np.concatenate((-_XGL_HALF, _XGL_HALF[::-1]))


def _legendre_fit_matrix():
    # row m: (2m + 1)/2 w_k P_m(x_k), P_m by Bonnet's recurrence: the
    # Legendre coefficients of the interpolant at the nodes are fvals @ rows.T
    weights = np.concatenate((_WGL_HALF, _WGL_HALF[::-1]))
    p = np.empty((_ORDERS, _ORDERS))
    p[0], p[1] = 1.0, _GL_NODES
    for m in range(1, _ORDERS - 1):
        p[m + 1] = ((2 * m + 1) * _GL_NODES * p[m] - m * p[m - 1]) / (m + 1)
    return (np.arange(_ORDERS)[:, None] + 0.5) * weights * p


_LEGENDRE_FIT = _legendre_fit_matrix()
# the rounding floor of |a_18| + |a_19|, per unit of the panel's largest value
_FIT_FLOOR = 64.0 * np.finfo(float).eps
# Miller's ratios from j_41/j_40 = 0 hold 1e-16 below order 20 for x < 20
_MILLER_START = 40
# (time, panel) pairs per block of the Fourier sums (20 orders: 5 MB)
_PAIR_BLOCK = 2**15


def _spherical_bessel(x):
    """j_0(x) .. j_19(x) for x >= 0, stacked on a new first axis.

    From x = 20 up, forward recurrence j_{m+1} = (2m + 1)/x j_m - j_{m-1}.
    Below, Miller's ratios r_m = j_m/j_{m-1} = x/(2m + 1 - x r_{m+1}) from
    r_41 = 0, anchored on j_0 = sin(x)/x or j_1 = (j_0 - cos x)/x, whichever
    is larger: r_1 is nearly 0/0 at a zero of j_0, and j_1 cancels near 0.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((_ORDERS,) + x.shape)
    far = x >= 20.0
    xf = x[far]
    j = np.empty((_ORDERS, xf.size))
    j[0] = np.sin(xf) / xf
    j[1] = (j[0] - np.cos(xf)) / xf
    for m in range(1, _ORDERS - 1):
        j[m + 1] = (2 * m + 1) / xf * j[m] - j[m - 1]
    out[:, far] = j

    xn = x[~far]
    j = np.empty((_ORDERS, xn.size))
    r = np.zeros(xn.shape)
    for m in range(_MILLER_START, 0, -1):
        den = (2 * m + 1) - xn * r
        if m < _ORDERS:
            # at an exact zero of j_{m-1}, inf * 0; a tiny denominator
            # gives the limit j_m = -j_{m-2}
            den[den == 0.0] = 1e-300
        r = xn / den
        if m < _ORDERS:
            j[m] = r
    with np.errstate(divide="ignore", invalid="ignore"):
        j0 = np.where(xn == 0.0, 1.0, np.sin(xn) / xn)
        j1 = (j0 - np.cos(xn)) / xn
    j[1] = np.where(np.abs(j1) > np.abs(j0), j1, j[1] * j0)
    j[0] = j0
    for m in range(2, _ORDERS):
        j[m] *= j[m - 1]
    out[:, ~far] = j
    return out


def _legendre_fit(func, lefts, rights):
    # Legendre coefficients (P, 20) of func's interpolant at each panel's 20
    # Gauss-Legendre nodes, the tail 2h(|a_18| + |a_19|) and its rounding floor
    halves = 0.5 * (rights - lefts)
    nodes = 0.5 * (lefts + rights)[:, None] + halves[:, None] * _GL_NODES
    fvals = np.asarray(func(nodes.ravel()), dtype=float).reshape(nodes.shape)
    if not np.all(np.isfinite(fvals)):
        raise NumericalFailure("integrand produced non-finite values")
    # einsum, not BLAS, for the same bytes on any thread count
    coefs = np.einsum("pk,mk->pm", fvals, _LEGENDRE_FIT)
    tails = 2.0 * halves * (np.abs(coefs[:, -2]) + np.abs(coefs[:, -1]))
    floors = 2.0 * halves * _FIT_FLOOR * np.abs(fvals).max(axis=1)
    return coefs, tails, floors


def _legendre_panels(func, edges, tol_abs):
    """Panels over edges on which func is a degree-19 Legendre series.

    A panel is split in half until its coefficient tail 2h(|a_18| + |a_19|),
    an estimate of the L1 error of its fit, is at most tol_abs or at its
    rounding floor, or the budget runs out (200000 panels, 40 rounds).  Its
    fate depends on func alone, so the panels of a gap do not depend on the
    other gaps.  Returns lefts, rights, the coefficients (P, 20), the tails
    and each panel's initial gap; raises NumericalFailure on non-finite
    integrand values.
    """
    edges = np.asarray(edges, dtype=float)
    lefts, rights = edges[:-1], edges[1:]
    coefs, tails, floors = _legendre_fit(func, lefts, rights)
    gaps = np.arange(lefts.size)
    for _ in range(_REFINE_ROUNDS):
        bad = tails > np.maximum(tol_abs, floors)
        if not bad.any() or lefts.size >= _PANEL_BUDGET:
            break
        (lefts, rights, coefs, tails, floors, gaps), halves = _bisect(
            bad, lefts, rights, coefs, tails, floors, gaps)
        coefs[halves], tails[halves], floors[halves] = _legendre_fit(
            func, lefts[halves], rights[halves])
    return lefts, rights, coefs, tails, gaps


def _fourier_sums(centers, halves, coefs, freqs, counts):
    """sum over the first counts[k] panels of int p(u) e^{-i u freqs[k]} du.

    With p a panel's Legendre series in x = (u - c)/h, each panel gives
    h e^{-i c t} sum_m a_m 2 (-i)^m j_m(h t) exactly (DLMF 10.60.7).  A
    time's value is a row sum of its own length, whatever the other times.
    """
    # 2 a_m (-i)^m split into the real parts (even m) and imaginary (odd m)
    sign = np.array([1.0, -1.0, -1.0, 1.0] * (_ORDERS // 4))
    scaled = 2.0 * sign[:, None] * coefs.T
    out = np.empty(freqs.shape, dtype=complex)
    order = np.argsort(counts, kind="stable")
    for same in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
        n = int(counts[same[0]])
        step = max(1, _PAIR_BLOCK // n)
        for start in range(0, same.size, step):
            at = same[start : start + step]
            t = freqs[at, None]
            j = _spherical_bessel(t * halves[:n])
            re = scaled[0, :n] * j[0]
            im = scaled[1, :n] * j[1]
            for m in range(2, _ORDERS, 2):
                re += scaled[m, :n] * j[m]
                im += scaled[m + 1, :n] * j[m + 1]
            # times h e^{-i c t}
            phase = t * centers[:n]
            cos, sin = np.cos(phase), np.sin(phase)
            out.real[at] = ((re * cos + im * sin) * halves[:n]).sum(axis=1)
            out.imag[at] = ((im * cos - re * sin) * halves[:n]).sum(axis=1)
    return out
