"""Survival amplitude f00(t) of the particle mode and cavity revival series.

The amplitude is the particle-weighted phase sum over normal modes,

    f00(t) = sum_r (t_0^r)**2 * exp(-i*Omega_r*t),

evaluated three independent ways:

* ``f00_discrete``   explicit sum over a finite or cavity mode set;
* ``f00_quadrature`` continuum integral of the weight density
  W(w) = 2*g*w**2 / [(w**2 - bar_omega**2)**2 + (pi*g*w)**2] against
  exp(-i*w*t): adaptive Gauss-Kronrod over [0, w_tail] on panels at most
  half a period pi/t wide, many time points per batched pass, plus an
  integrated-by-parts analytic tail beyond w_tail (at t = 0 the tail is
  integrated in 1/w instead);
* ``f00_closed``     pole terms plus the branch-cut integral J(t).

The branch-cut piece

    J(t) = 2*g * int_0^inf y**2 e^{-y t} / [(y**2+bar_omega**2)**2
                                            - (pi*g*y)**2] dy

has closed forms in scaled exponential integrals in all three damping
regimes.  Where the denominator has real roots it is read as a principal
value at a simple root (overdamped) and as a finite part at the double root
(critical); the exponential-integral forms carry that sense.
``bath_integral_J`` exposes them, and audits them by one quadrature of the
definition along a path that dips below the real roots.  The continuum
routes work in units of bar_omega: f00 and J depend only on beta =
g/bar_omega and tau = bar_omega*t, so each public entry turns (spec, t)
into (beta, tau) once, no helper sees bar_omega, and no scale overflows.

The cavity helpers at the bottom quantify confinement: the survival series
over the discrete cavity ladder, its worst-case lower bound in delta, and
the delta at which the strong-coupling bound crosses zero.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailure
from .model import OhmicSystemSpec, RegimeKind, _damping
from .quadrature import _distinct, adaptive_gk
from .special import ei_scaled, exp1_scaled
from .spectrum import NormalModeSet, _checked_modes, _frozen

__all__ = [
    "AmplitudeSeries",
    "CavitySurvivalBound",
    "DecayComparators",
    "f00_discrete",
    "f00_quadrature",
    "f00_closed",
    "bath_integral_J",
    "survival_probability",
    "decay_comparators",
    "cavity_survival_series",
    "cavity_min_bound",
    "solve_delta_max",
]

_QUAD_TARGET = 1e-9
_QUAD_HARD_LIMIT = 1e-7
_QUAD_MIN_BETA = 1e-11
_BLOCK_ELEMENTS = 2**18
_MAX_PHASES = 2**27
_WORKER_PHASES = 2**16
_BATCH_PANELS = 4096
_MAX_PANELS = 2**20
_MAX_GRID_PANELS = 2**23


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """f00 sampled on a time grid for one spec."""

    times: np.ndarray
    values: np.ndarray
    spec_snapshot: OhmicSystemSpec

    def __post_init__(self) -> None:
        t = _frozen(self.times)
        v = _frozen(self.values, complex)
        if t.ndim != 1 or v.shape != t.shape:
            raise InputError("times and values must be matching 1d arrays")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class CavitySurvivalBound:
    """Worst-case survival probability over all times, to first order in delta.

    ``min_probability`` keeps the raw polynomial value even when it is
    negative; ``unphysical`` flags that case (the bound has left its
    domain of validity, not the probability).
    """

    delta: float
    regime: str
    min_probability: float
    unphysical: bool


DecayComparators = namedtuple("DecayComparators", ["weak", "strong"])


def _validate_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise InputError("times must be a nonempty 1d array")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        raise InputError("times must be finite and nonnegative")
    return t


# ---------------------------------------------------------------------------
# worker threads
# ---------------------------------------------------------------------------

def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _worker_count(total, least, most) -> int:
    # One worker per usable CPU, each with at least `least` of the `total`
    # work, and at most `most` workers.
    return max(1, min(_usable_cpus(), int(total // least), int(most)))


def _on_threads(task, costs, least, most) -> None:
    # task(lo, hi) on contiguous ranges of items of about equal summed cost,
    # one range per worker: the first on the calling thread, every other
    # one on a plain thread of its own.  numpy's ufuncs and reductions
    # release the GIL, so the ranges run at once.  Once every thread has
    # joined, the error of the lowest range that raised is re-raised, so
    # which one surfaces does not depend on timing.
    starts = np.cumsum(costs) - costs
    total = costs.sum()
    workers = _worker_count(total, least, most)
    shares = total * np.arange(workers) / workers
    bounds = _distinct(np.append(np.searchsorted(starts, shares), costs.size))[0]
    errors = [None] * (len(bounds) - 1)

    def run(k):
        try:
            task(bounds[k], bounds[k + 1])
        except BaseException as exc:
            errors[k] = exc

    threads = []
    try:
        for k in range(1, len(errors)):
            thread = threading.Thread(target=run, args=(k,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


# ---------------------------------------------------------------------------
# discrete sum
# ---------------------------------------------------------------------------

def _sum_rows(freq, weights, t, out, budget) -> None:
    # out[i] = sum_j weights[j] * exp(-i*freq[j]*t[i]) on blocks of about
    # `budget` phases in two reused buffers.  glibc's cexp of 0 - i*x is
    # cos(x) - i*sin(x) bit for bit, and negating a pairwise sum negates
    # each partial sum exactly, so this matches summing the complex
    # exponentials.  The imaginary part is stored as 0.0 - sum, not by
    # conj, so it stays +0.0 at t = 0.
    step = max(1, budget // freq.size)
    phase = np.empty((min(step, t.size), freq.size))
    terms = np.empty(phase.shape, dtype=complex)
    for start in range(0, t.size, step):
        block = t[start : start + step]
        p, z = phase[: block.size], terms[: block.size]
        np.multiply(block[:, None], freq, out=p)
        np.cos(p, out=z.real)
        z.real *= weights
        np.sin(p, out=z.imag)
        z.imag *= weights
        sums = z.sum(axis=1)
        out.real[start : start + step] = sums.real
        np.subtract(0.0, sums.imag, out=out.imag[start : start + step])


def _phase_sums(freq: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    # sum_j weights[j] * exp(-i*freq[j]*t) at each time.  numpy reduces
    # each row of a contiguous block on its own, pairwise, so a value does
    # not depend on which times share its call, block or worker.  A BLAS
    # product rounds a row by the rows beside it, and einsum switches
    # kernels between one long row and several; neither is batch-invariant.
    # Contiguous ranges of times run on threads, each with at least
    # _WORKER_PHASES phases and a share of one block of _BLOCK_ELEMENTS
    # phases as scratch, so the workers together hold one block (or one
    # row, when a row is longer).  Complex exp releases the GIL as well and
    # scales as far on two threads; real cos and sin give the same bytes
    # and were no slower on one CPU.  On a 2-core VM a phase term (1e5
    # modes a row) costs about 44 ns on one worker and 26 ns on two, so
    # 2**27 of them take about 6 s or 3.5 s.
    if freq.size * t.size > _MAX_PHASES:
        raise InputError(
            f"a mode sum over {freq.size} modes x {t.size} times exceeds "
            "2**27 phase terms; use fewer modes or times"
        )
    out = np.empty(t.shape, dtype=complex)

    def run(lo, hi):
        _sum_rows(freq, weights, t[lo:hi], out[lo:hi], _BLOCK_ELEMENTS * (hi - lo) // t.size)

    _on_threads(run, np.full(t.size, freq.size), _WORKER_PHASES,
                _BLOCK_ELEMENTS // freq.size)
    return out


def f00_discrete(modes: NormalModeSet, weights, times) -> AmplitudeSeries:
    """Survival amplitude as an explicit weighted phase sum.

    ``weights`` is passed separately from the mode set so a deliberately
    perturbed weight row can be pushed through the same code path; they
    must be positive and sum to at most 1 (+1e-8 slack, as a mode set's
    do); NaN is neither.  More than 2**27 modes x times raises InputError
    before any phase is summed.  The sum runs on the CPUs the process may
    use, with no setting, and its bytes do not depend on how many there
    are.
    """
    t = _validate_times(times)
    freq, w = _checked_modes(modes.frequencies, weights)
    return AmplitudeSeries(
        times=t,
        values=_phase_sums(freq, w, t),
        spec_snapshot=modes.spec_snapshot,
    )


# ---------------------------------------------------------------------------
# continuum quadrature
# ---------------------------------------------------------------------------

def _weight_density(beta: float):
    # 2 beta u**2 / ((u**2 - 1)**2 + (pi beta)**2 u**2): the same operations
    # in the same order, in the two rows of one block; forming u**2 anew
    # costs less than a third buffer.  Freed as one block, the rows raise
    # glibc's trim threshold far enough that the heap keeps their pages for
    # the next call: on a continuum_decay round (2-core x86 VM) that saved
    # about 20k page faults and a third of the density time.
    scale, damping = 2.0 * beta, (math.pi * beta) ** 2

    def density(u):
        den, out = np.empty((2, u.size))
        np.multiply(u, u, out=den)
        den -= 1.0
        den *= den
        np.multiply(u, u, out=out)
        out *= damping
        den += out
        np.multiply(u, u, out=out)
        out *= scale
        out /= den
        return out

    return density


def _head_edges(a: float) -> np.ndarray:
    # structural breakpoints up to w_top = 4 + 8a: half-width multiples
    # around the resonance at 1 (its width is ~a = pi*beta/2), coarse anchors
    w_top = 4.0 + 8.0 * a
    offsets = a * np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])
    raw = np.concatenate(([0.0, 0.5, 2.0, 3.0, w_top], 1.0 - offsets, 1.0 + offsets))
    pts = _distinct(np.clip(raw, 0.0, w_top))[0]
    return pts[np.concatenate(([True], np.diff(pts) > 1e-9 * w_top))]


def _tail_derivatives(u0: np.ndarray, beta: float):
    # F = N/D with N = 2 beta u**2; returns F, F', F'', F''', F'''' at each
    # u0 by the Leibniz recurrence F^(n) = (N^(n) - sum_{j<n} C(n,j) F^(j) D^(n-j))/D.
    pb_sq = (math.pi * beta) ** 2
    d_derivs = [
        (u0 * u0 - 1.0) ** 2 + pb_sq * u0 * u0,
        4.0 * u0 * (u0 * u0 - 1.0) + 2.0 * pb_sq * u0,
        12.0 * u0 * u0 - 4.0 + 2.0 * pb_sq,
        24.0 * u0,
        24.0,
    ]
    n_derivs = [2.0 * beta * u0 * u0, 4.0 * beta * u0, 4.0 * beta, 0.0, 0.0]
    f_derivs = []
    for n in range(5):
        acc = n_derivs[n]
        for j in range(n):
            acc -= math.comb(n, j) * f_derivs[j] * d_derivs[n - j]
        f_derivs.append(acc / d_derivs[0])
    return f_derivs


def _f00_at_zero(beta: float, head_edges):
    head, err_h = adaptive_gk(_weight_density(beta), head_edges, 0.5 * _QUAD_TARGET)
    # substitute v = 1/u on [w_top, inf): the image integrand is smooth
    # and bounded (-> 2 beta at v = 0), so plain panels close the total.
    def flipped(v):
        v_sq = v * v
        return 2.0 * beta / ((1.0 - v_sq) ** 2 + (math.pi * beta) ** 2 * v_sq)

    tail, err_t = adaptive_gk(
        flipped, np.linspace(0.0, 1.0 / head_edges[-1], 9), 0.5 * _QUAD_TARGET
    )
    return complex(head + tail), err_h + err_t


def _f00_oscillating(beta: float, head_edges, tau, u_tail, n_panels):
    # f00 and its error estimate at the positive times tau, with the analytic
    # tail beyond u_tail; each time's n_panels initial panels cut its
    # breakpoints: head_edges, then u_tail where it lies above them
    density = _weight_density(beta)
    knots = np.empty((tau.size, head_edges.size + 1))
    knots[:, :-1] = head_edges
    knots[:, -1] = u_tail
    head = np.empty(tau.shape, dtype=complex)
    err_h = np.empty(tau.shape)
    starts = np.cumsum(n_panels) - n_panels

    # consecutive times share an adaptive pass until it holds about
    # _BATCH_PANELS initial panels, in each worker's range
    def run(lo, hi):
        batch = (starts[lo:hi] - starts[lo]) // _BATCH_PANELS
        for idx in np.split(np.arange(lo, hi), np.flatnonzero(np.diff(batch)) + 1):
            head[idx], err_h[idx] = adaptive_gk(
                density,
                [k if k[-1] > k[-2] else k[:-1] for k in knots[idx]],
                0.5 * _QUAD_TARGET,
                times=tau[idx],
            )

    # contiguous ranges of about equal initial-panel count, at least
    # _BATCH_PANELS each; a worker's pass in flight holds under
    # _BATCH_PANELS panels plus those of its last time, so the workers
    # together never hold more than one may alone: _MAX_PANELS plus one
    # batch.  adaptive_gk gives each time the same value whichever times
    # share its call, so the bytes do not depend on the worker count.
    _on_threads(run, n_panels, _BATCH_PANELS,
                (_MAX_PANELS + _BATCH_PANELS) // (_BATCH_PANELS + n_panels.max()))

    f_derivs = _tail_derivatives(u_tail, beta)
    it = 1j * tau
    tail = np.exp(-1j * u_tail * tau) * (
        f_derivs[0] / it + f_derivs[1] / it**2 + f_derivs[2] / it**3 + f_derivs[3] / it**4
    )
    err_t = 2.0 * np.abs(f_derivs[4]) / tau**5
    return head + tail, err_h + err_t


def f00_quadrature(spec: OhmicSystemSpec, times) -> AmplitudeSeries:
    """Survival amplitude by direct continuum integration.

    Aims at 1e-9 absolute accuracy per time point and raises
    NumericalFailure if the internal error estimate ever exceeds 1e-7 or
    is not a number.
    Work and memory per time point grow as t*(4*bar_omega + 4*pi*g)/pi
    initial panels.  A time that needs more than 2**20 of them, or a grid
    that needs more than 2**23 in all (about 10 s of work), raises
    InputError before any quadrature runs, and so does a positive time
    below 1e-8/(4*bar_omega + 4*pi*g), whose widest panel both rules read
    as about 0, and so does beta = g/bar_omega below 1e-11, whose
    resonance is too narrow for the refinement: for 0 <= t <= 60 some
    betas below it missed 1e-7 unseen, and from beta ~ 4e-14 down f00
    read as about 0 (``f00_closed`` covers every beta).  Grids of at
    least 8192 initial panels run on the CPUs the process may use, in
    contiguous time ranges of at least 4096 panels each, with no setting;
    the bytes do not depend on how many CPUs there are.
    """
    t_arr = _validate_times(times)
    beta, tau = spec.g / spec.bar_omega, spec.bar_omega * t_arr
    if beta < _QUAD_MIN_BETA:
        raise InputError(f"continuum quadrature needs beta >= {_QUAD_MIN_BETA:g}, "
                         f"got {beta:.6g}; the closed form covers it")
    head_edges = _head_edges(0.5 * math.pi * beta)
    w_top = head_edges[-1]
    if np.any((tau > 0.0) & (tau < 1e-8 / w_top)):
        raise InputError("continuum quadrature needs t = 0 or "
                         f"t >= {1e-8 / w_top / spec.bar_omega:.6g}")
    values = np.empty(t_arr.shape, dtype=complex)
    errors = np.empty(t_arr.shape)
    zero = tau == 0.0
    pos = ~zero
    if pos.any():
        # the analytic tail starts once the phase u*tau clears `phase_min`, so
        # the four-term integration-by-parts remainder ~480 beta tau/phase**6
        # is negligible; below it, panels of at most half a period of
        # e^{-i u tau} cover [0, u_tail] (Gauss error ~6e-13 relative on each)
        tau_pos = tau[pos]
        phase_min = np.maximum(
            256.0, (480.0 * beta * tau_pos / (0.25 * _QUAD_TARGET)) ** (1.0 / 6.0))
        u_tail = np.maximum(w_top, phase_min / tau_pos)
        n_panels = head_edges.size + u_tail * tau_pos / math.pi
        if not n_panels.max() <= _MAX_PANELS:
            raise InputError(
                f"t = {t_arr.max():.6g} needs {n_panels.max():.3g} quadrature panels, "
                f"more than the {_MAX_PANELS} that fit in about 0.7 GB; keep t below "
                f"{(_MAX_PANELS - head_edges.size) * math.pi / (w_top * spec.bar_omega):.6g}"
                " for this spec"
            )
        if n_panels.sum() > _MAX_GRID_PANELS:
            raise InputError(
                f"{tau_pos.size} time points need {n_panels.sum():.3g} quadrature panels "
                f"in all, more than the {_MAX_GRID_PANELS} that run in about 10 s; use "
                "fewer samples or a smaller t_max"
            )
        values[pos], errors[pos] = _f00_oscillating(beta, head_edges, tau_pos, u_tail, n_panels)
    if zero.any():
        values[zero], errors[zero] = _f00_at_zero(beta, head_edges)
    worst = errors.max()
    if not worst <= _QUAD_HARD_LIMIT:
        raise NumericalFailure(
            f"continuum quadrature error estimate {worst:.3e} is not within 1e-7"
        )
    return AmplitudeSeries(
        times=t_arr,
        values=values,
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# branch-cut integral and closed form
# ---------------------------------------------------------------------------

# J on the critical branch past x = a*t = 60: the asymptotic series
# (2/pi) * sum_{m>=1} 2m*(2m)!/x**(2m+1) of the exponential-integral form,
# whose O(1) terms cancel to 8/(pi*x**3) and lose about eps*x**3/8.
# Fourteen terms hold 6e-16 from x = 60 up; at x = 40 no truncation beats 4e-13.
_J_SERIES_EDGE = 60.0
_J_SERIES = tuple(float(2 * m * math.factorial(2 * m)) for m in range(1, 15))


def _denominator_roots(beta: float):
    # the regime's kind, a = pi*beta/2, kappa and the roots p, q of J's
    # denominator (y**2 - p**2)(y**2 - q**2), in units of bar_omega:
    # a +- i*kappa (underdamped), a twice (critical), or q = a + kappa and
    # p = 1/q (overdamped), which equals a - kappa without cancellation
    kind, kappa = _damping(beta)
    a = 0.5 * math.pi * beta
    if kind is RegimeKind.UNDERDAMPED:
        return kind, a, kappa, complex(a, kappa), complex(a, -kappa)
    if kind is RegimeKind.CRITICAL:
        return kind, a, kappa, a, a
    q = a + kappa
    return kind, a, kappa, 1.0 / q, q


def _closed_form(beta: float, tau: np.ndarray):
    # pole term and branch-cut integral J at the positive times tau
    kind, a, kappa, p, q = _denominator_roots(beta)
    if kind is RegimeKind.UNDERDAMPED:
        z = p * tau
        pair = exp1_scaled(np.concatenate((-z, z)))
        diff = pair[: tau.size] - pair[tau.size:]
        pole = (1.0 - 1j * a / kappa) * np.exp(-z)
        return pole, (p * diff).imag / (math.pi * kappa)
    if kind is RegimeKind.CRITICAL:
        x = a * tau
        j = ((x - 1.0) * ei_scaled(x) - (x + 1.0) * np.real(exp1_scaled(x))) / math.pi
        far = x >= _J_SERIES_EDGE
        if far.any():
            r = 1.0 / x[far]
            r_sq = r * r
            total = 0.0
            for coef in reversed(_J_SERIES):
                total = total * r_sq + coef
            j[far] = (2.0 / math.pi) * r * r_sq * total
        return (1.0 - x) * np.exp(-x) + 0.0j, j
    x = np.concatenate((q * tau, p * tau))
    s = ei_scaled(x) + np.real(exp1_scaled(x))
    e = np.exp(-x)
    pole = (q * e[: tau.size] - p * e[tau.size:]) / (2.0 * kappa) + 0.0j
    return pole, -(q * s[: tau.size] - p * s[tau.size:]) / (2.0 * math.pi * kappa)


def _j_quadrature(beta: float, tau: float) -> float:
    # J's definition, 2 beta y**2 e^{-y tau} / ((y-p)(y+p)(y-q)(y+q)),
    # integrated along the real axis; over the real roots the path dips
    # below on half circles, which add i*pi times real residues, so the real
    # part is the principal value at a simple root and the finite part at
    # the double one
    kind, a, kappa, p, q = _denominator_roots(beta)
    # real roots within a/4 of a share one half circle of radius a/2; with
    # a small circle each, the integrand on the axis between them would
    # reach O(1/kappa**2) and cancel to O(1)
    if kind is RegimeKind.UNDERDAMPED:
        centers = radii = np.empty(0)
    elif kappa < 0.25 * a:
        centers, radii = np.array([a]), np.array([0.5 * a])
    else:
        centers, radii = np.array([p, q]), np.full(2, 0.5 * min(p, kappa))

    def integrand(s):
        # on [c - r, c + r] the path is y = c - r e^{i phi}, phi from 0 to pi
        d = s[:, None] - centers
        bend = np.abs(d) < radii
        turn = np.exp(0.5j * math.pi * (d / radii + 1.0))
        y = s + np.sum(np.where(bend, -d - radii * turn, 0.0), axis=1)
        dy = 1.0 + np.sum(np.where(bend, -0.5j * math.pi * turn - 1.0, 0.0), axis=1)
        return 2.0 * beta * y * y * np.exp(-y * tau) * dy / ((y - p) * (y + p) * (y - q) * (y + q))

    # edges at 1, 4, 16 and 64 times 1/tau, so that e^{-y tau} never decays
    # unseen between the nodes of one panel; past y_top the integrand is
    # below e^{-60} of its scale.  The tolerance follows J's tau**-3 tail.
    y_top = max(4.0 * a, 4.0, 60.0 / tau)
    edges = _distinct(np.clip(np.concatenate(
        ([0.0, y_top], np.array([1.0, 4.0, 16.0, 64.0]) / tau,
         centers - radii, centers + radii)), 0.0, y_top))[0]
    val, _ = adaptive_gk(integrand, edges, 1e-10 * min(1.0, tau**-3))
    return float(val.real)


def bath_integral_J(spec: OhmicSystemSpec, t, method: str = "analytic"):
    """Branch-cut integral J(t) for t > 0 (scalar or array).

    method="analytic" evaluates the scaled-exponential-integral closed
    forms (fast, machine accurate, arrays fine); on the critical branch past
    pi*g*t/2 = 60 it sums their asymptotic series instead.  method="quadrature"
    integrates the definition directly, one time at a time, along the real
    axis bent below the real roots on half circles, and keeps the real
    part; it shares no special function with the analytic route, which it
    exists to audit, and aims at 1e-10 * min(1, (bar_omega*t)**-3).
    """
    if method not in ("analytic", "quadrature"):
        raise InputError(f"method must be 'analytic' or 'quadrature', got {method!r}")
    t_arr = np.asarray(t, dtype=float)
    beta, tau = spec.g / spec.bar_omega, spec.bar_omega * np.atleast_1d(t_arr)
    if np.any(tau <= 0.0) or not np.all(np.isfinite(tau)):
        raise InputError("bath_integral_J needs strictly positive finite times")
    if method == "analytic":
        out = _closed_form(beta, tau)[1]
    else:
        out = np.array([_j_quadrature(beta, float(ti)) for ti in tau])
    return float(out[0]) if t_arr.ndim == 0 else out


def f00_closed(spec: OhmicSystemSpec, times) -> AmplitudeSeries:
    """Pole-plus-branch-cut closed form of the survival amplitude.

    Underdamped:  (1 - i a/kappa) e^{-(a + i kappa) t} + i J(t)
    Critical:     (1 - a t) e^{-a t} + i J(t)
    Overdamped:   [y+ e^{-y+ t} - y- e^{-y- t}]/(2|kappa|) + i J(t)

    with a = pi*g/2 and y+- = a +- |kappa|.  At t = 0 the value is exactly
    1 (the J limit cancels the pole imaginary part identically).
    """
    t = _validate_times(times)
    beta, tau = spec.g / spec.bar_omega, spec.bar_omega * t
    values = np.ones(t.shape, dtype=complex)
    pos = tau > 0.0
    if pos.any():
        pole, j_vals = _closed_form(beta, tau[pos])
        values[pos] = pole + 1j * j_vals
    return AmplitudeSeries(
        times=t,
        values=values,
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# survival probability and cavity confinement
# ---------------------------------------------------------------------------

def survival_probability(series: AmplitudeSeries) -> np.ndarray:
    """|f00|**2 on the series grid."""
    return np.abs(series.values) ** 2


def decay_comparators(spec: OhmicSystemSpec, times) -> DecayComparators:
    """Reference envelopes for the survival probability.

    ``weak`` is the golden-rule exponential exp(-pi*g*t).  ``strong`` is
    the commonly quoted slow-pole form (bar_omega**2/(pi*g)**2) *
    exp(-2*bar_omega**2 t/(pi*g)); its rate is the overdamped slow pole's
    to leading order in 1/beta**2, but note the squared modulus of that
    pole actually carries the square of the quoted prefactor, so treat
    the scale as indicative rather than exact.
    """
    t = _validate_times(times)
    beta, tau = spec.g / spec.bar_omega, spec.bar_omega * t
    return DecayComparators(
        weak=np.exp(-math.pi * beta * tau),
        strong=np.exp(-2.0 * tau / (math.pi * beta)) * (1.0 / (math.pi * beta) ** 2))


def cavity_survival_series(weights, frequencies, times) -> np.ndarray:
    """Survival probability |w0 e^{-i W0 t} + sum_k w_k e^{-i W_k t}|**2.

    ``weights`` is the pair (w0, ladder_weights); ``frequencies`` holds
    the matching 1 + k_max mode frequencies, finite, positive and strictly
    increasing; weights must be positive (NaN is not) and sum to at most
    1 (+1e-8 slack), as a mode set's do.  Evaluated directly as a squared
    modulus, O(k_max) per time point; more than 2**27 modes x times raises
    InputError before any phase is summed.  The sum runs on the CPUs the
    process may use, with no setting, and its bytes do not depend on how
    many there are.
    """
    try:
        w0, wk = weights
        w = np.concatenate(([float(w0)], np.asarray(wk, dtype=float)))
    except (TypeError, ValueError) as exc:
        raise InputError("weights must be the pair (w0, ladder_weights)") from exc
    freq, w = _checked_modes(frequencies, w)
    t = _validate_times(times)
    return np.abs(_phase_sums(freq, w, t)) ** 2


def cavity_min_bound(delta: float, regime: str) -> CavitySurvivalBound:
    """Worst-case survival bound over all times, first order in delta.

    Weak regime:   1 - (5*pi/3) delta + (14*pi**2/9) delta**2
    Strong regime: w0**2 - w0*(pi delta/3) - (pi delta/3)**2,
                   w0 = 2/(2 + pi*delta)

    Both come from anti-aligning every ladder phase against the lowest
    mode.  A negative value means the expansion has left its validity
    window; it is reported raw and flagged.
    """
    if regime not in ("weak", "strong"):
        raise InputError(f"regime must be 'weak' or 'strong', got {regime!r}")
    delta = float(delta)
    if not math.isfinite(delta) or delta < 0.0:
        raise InputError("delta must be a nonnegative number")
    pd = math.pi * delta
    if regime == "weak":
        value = 1.0 - (5.0 / 3.0) * pd + (14.0 / 9.0) * pd * pd
    else:
        w0 = 2.0 / (2.0 + pd)
        value = w0 * w0 - w0 * (pd / 3.0) - (pd / 3.0) ** 2
    return CavitySurvivalBound(
        delta=delta,
        regime=regime,
        min_probability=value,
        unphysical=value < 0.0,
    )


def solve_delta_max(regime: str = "strong") -> float:
    """Largest delta with a nonnegative strong-regime survival bound.

    The weak-regime bound never crosses zero (its discriminant is
    negative), so only the strong regime has a finite delta_max; asking
    for the weak one raises InputError.  With w0 = 2/(2 + pi*delta) and
    y = pi*delta/3 the strong bound w0**2 - w0*y - y**2 vanishes at
    w0 = phi*y, phi the golden ratio, which gives the closed form
    delta_max = (sqrt(1 + 6/phi) - 1)/pi.
    """
    if regime != "strong":
        if regime == "weak":
            raise InputError("the weak-regime bound stays positive for all delta")
        raise InputError(f"regime must be 'strong', got {regime!r}")
    phi = 0.5 * (1.0 + math.sqrt(5.0))
    return (math.sqrt(1.0 + 6.0 / phi) - 1.0) / math.pi
