"""Batched adaptive Gauss-Kronrod panels.

The decay-amplitude integrals need three things scipy.integrate.quad does
not give directly: vectorized evaluation over many panels at once (the
oscillation cap for e^{-i w t} produces hundreds to thousands of panels per
time point), complex integrands, and full control of the panel boundaries
so structural breakpoints (resonance peak, phase-cap grid) land exactly on
panel edges.  So the classic 15-point Kronrod rule with its embedded
7-point Gauss rule (QUADPACK's dqk15) is implemented here on explicit
panel arrays.

Error model: per panel err = |K15 - G7|.  For smooth panels this estimates
the *Gauss* error, which dominates the Kronrod error by orders of
magnitude, so the estimate is deliberately conservative.  On a panel half
a period of e^{-i w t} wide the G7 error is ~6e-13 of the panel's integral
of |e^{-i w t}| and the K15 error is at rounding level; over a full period
G7 is off by ~8e-9, so refinement would split such panels again.  That is
why callers cap Fourier panels at half a period.

``adaptive_gk(func, edges_per_time, tol, times=t)`` integrates
func(w)*exp(-i*w*t_k) for many times in one pass: the phase is applied per
panel, while refinement, tolerance and the left-to-right summation stay
per time, so a time's value is bit-identical whichever times share its
call.  func stays a one-argument vectorized function of w.

A pass holds its P panels node-major: nodes and integrand values as 15
rows of P, one row per node, so each step below is a contiguous operation
on whole rows.  The phase factor e^{-i w t} at w = c + h*x splits into a
per-panel e^{-i c t} and a per-width e^{-i h t x}, and the 7 node offsets
of the second are computed once per distinct h*t, about a tenth as many
as panels.  The rows are then phased and summed one at a time in two
buffers of P values, so no (15, P) complex array is ever held.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailure

__all__ = ["adaptive_gk", "split_to_width"]

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

# refinement budget of each integral (each time of a batched call): a group
# stops splitting at this many panels, and a call stops after this many
# rounds of splitting
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


def _phased_rows(fvals, centers, halves, freqs):
    # yields f(w) e^{-i w t} at each node in turn, as one row of P panels
    # in the same buffer.  e^{-i w t} at w = c + h*x is e^{-i c t} times
    # e^{-i h t x}, and the nodes pair up as +-x, so 7 offsets per distinct
    # width h*t give the second factor of every panel: split_to_width cuts
    # a gap into equal parts, so a batch holds about a tenth as many
    # distinct h*t as panels.  Widths are told apart by their bits, so +0.0
    # and -0.0 stay apart.  glibc's cexp of 0 - i*y is cos(y) - i*sin(y)
    # bit for bit, so real cos and sin give the complex exponentials'
    # values, a little faster.
    widths, which = _distinct((halves * freqs).view(np.int64))
    arg = _XGK_HALF[:7, None] * widths.view(float)
    offset = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=offset.real)
    np.sin(arg, out=offset.imag)
    arg = centers * freqs
    center = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=center.real)
    np.sin(arg, out=center.imag)
    np.negative(center.imag, out=center.imag)
    # no product writes over one of its own operands: numpy rounds an
    # in-place complex product of one element differently
    row = np.empty(arg.shape, dtype=complex)
    phased = np.empty(arg.shape, dtype=complex)
    for j in range(15):
        if j == 7:
            row.fill(1.0)
        else:
            offset[min(j, 14 - j)].take(which, out=row, mode="clip")
            if j > 7:
                np.conjugate(row, out=row)
        np.multiply(row, center, out=phased)
        np.multiply(phased, fvals[j], out=row)
        yield row


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


def _eval_panels(func, lefts, rights, freqs=None):
    # K15 values and |K15 - G7| errors of the panels [lefts, rights], with
    # the nodes and integrand values held node-major, (15, P)
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = np.multiply(_NODES[:, None], halves)
    nodes += centers
    fvals = np.asarray(func(nodes.ravel())).reshape(nodes.shape)
    del nodes  # free before the phases are formed
    if freqs is None and not np.iscomplexobj(fvals):
        # einsum, not a BLAS matrix-vector product: BLAS rounds a lone row
        # differently from the same row among others, and a panel's value
        # must not depend on which panels share the batch.  The real einsum
        # sums a contiguous row in its own order, so it gets (P, 15) rows.
        rows = np.ascontiguousarray(fvals.T)
        kron = np.einsum("ij,j->i", rows, _WGK)
        gauss = np.einsum("ij,j->i", rows[:, _GAUSS_IDX], _WG)
    else:
        if freqs is not None:
            fvals = _phased_rows(fvals, centers, halves, freqs)
        kron, gauss = _rule_sums(fvals, centers.size)
    kron = halves * kron
    gauss = halves * gauss
    return kron, np.abs(kron - gauss)


def adaptive_gk(func, edges, tol_abs, times=None):
    """Integrate func over [edges[0], edges[-1]] with adaptive bisection.

    func must accept a 1d array and return values elementwise (real or
    complex).  edges fixes the initial panel boundaries; panels whose error
    exceeds its fair share of tol_abs are split in half until the summed
    estimate drops below tol_abs or the budget runs out (200000 panels,
    40 rounds).  Returns (value, error_estimate); the caller decides
    whether a missed tolerance is fatal.  Raises NumericalFailure on
    non-finite integrand values.

    With ``times`` (a 1d array) the call integrates func(w)*exp(-i*w*t_k)
    for every t_k at once: ``edges`` then holds one edge list per time and
    ``tol_abs`` is one tolerance or one per time, and the return value is
    the pair of arrays (values, error_estimates).  Tolerance, panel budget,
    refinement and summation stay per time, so each result is bit-identical
    to a call with that time alone.
    """
    groups = [np.asarray(e, dtype=float) for e in ([edges] if times is None else edges)]
    if times is not None:
        times = np.asarray(times, dtype=float)
        if times.shape != (len(groups),):
            raise NumericalFailure("need exactly one edge list per time")
    sizes = np.array([e.size if e.ndim == 1 else 0 for e in groups])
    if np.any(sizes < 2):
        raise NumericalFailure("panel edges must be strictly increasing")
    n_groups = len(groups)
    tol = np.broadcast_to(np.asarray(tol_abs, dtype=float), (n_groups,))
    flat = np.concatenate(groups)
    is_left = np.ones(flat.size, dtype=bool)
    is_left[np.cumsum(sizes) - 1] = False
    lefts = flat[is_left]
    rights = flat[np.flatnonzero(is_left) + 1]
    if np.any(rights <= lefts):
        raise NumericalFailure("panel edges must be strictly increasing")
    owner = np.repeat(np.arange(n_groups), sizes - 1)

    def evaluate(lo, hi, who):
        return _eval_panels(func, lo, hi, None if times is None else times[who])

    vals, errs = evaluate(lefts, rights, owner)
    split = False
    for _ in range(_REFINE_ROUNDS):
        if not np.all(np.isfinite(errs)):
            raise NumericalFailure("integrand produced non-finite values")
        count = np.bincount(owner, minlength=n_groups)
        open_ = (np.bincount(owner, errs, n_groups) > tol) & (count < _PANEL_BUDGET)
        if not open_.any():
            break
        split = True
        # every panel below tol/(2n) is fine as is; if all of an open
        # group's were, its total would already be under tol/2, so at least
        # one of its panels splits here.
        bad = open_[owner] & (errs > (tol / (2.0 * count))[owner])
        mids = 0.5 * (lefts[bad] + rights[bad])
        new_lefts = np.concatenate((lefts[bad], mids))
        new_rights = np.concatenate((mids, rights[bad]))
        new_owner = np.concatenate((owner[bad], owner[bad]))
        new_vals, new_errs = evaluate(new_lefts, new_rights, new_owner)
        lefts = np.concatenate((lefts[~bad], new_lefts))
        rights = np.concatenate((rights[~bad], new_rights))
        owner = np.concatenate((owner[~bad], new_owner))
        vals = np.concatenate((vals[~bad], new_vals))
        errs = np.concatenate((errs[~bad], new_errs))
    if not np.all(np.isfinite(vals)):
        raise NumericalFailure("integrand produced non-finite values")
    # canonical summation order: left to right within each group,
    # independent of the split history and of the other groups, so
    # identical inputs give bit-identical sums.  The initial panels come in
    # that order; only split halves, appended at the end, need the sort.
    if split:
        vals = vals[np.lexsort((lefts, owner))]
    ends = np.cumsum(np.bincount(owner, minlength=n_groups)).tolist()
    values = np.array([vals[a:b].sum() for a, b in zip([0] + ends[:-1], ends)])
    errors = np.bincount(owner, errs, n_groups)
    if times is None:
        return values[0], float(errors[0])
    return values, errors


def split_to_width(edges, max_width):
    """Refine a boundary list so no panel is wider than max_width.

    max_width is one width or one per gap.  Each gap is cut into n equal
    parts at left + i*step, step = (right - left)/n, the same arithmetic as
    np.linspace; a gap that is not positive stays one part.
    """
    edges = np.asarray(edges, dtype=float)
    lefts = edges[:-1]
    widths = edges[1:] - lefts
    n_sub = np.maximum(np.ceil(widths / max_width).astype(int), 1)
    gap = np.repeat(np.arange(lefts.size), n_sub)
    i = np.arange(gap.size) - np.repeat(np.cumsum(n_sub) - n_sub, n_sub)
    return np.concatenate((lefts[gap] + i * (widths / n_sub)[gap], edges[-1:]))

