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
  integrated in u = 1/w instead);
* ``f00_closed``     pole terms plus the branch-cut integral J(t).

The branch-cut piece

    J(t) = 2*g * int_0^inf y**2 e^{-y t} / [(y**2+bar_omega**2)**2
                                            - (pi*g*y)**2] dy

has closed forms in scaled exponential integrals in all three damping
regimes (the overdamped denominator has real roots, so its frequency-domain
reading is a principal value; the exponential-integral forms carry that
sense automatically).  ``bath_integral_J`` exposes them plus a direct
quadrature cross-check that handles the poles explicitly.

The cavity helpers at the bottom quantify confinement: the survival series
over the discrete cavity ladder, its worst-case lower bound in delta, and
the delta at which the strong-coupling bound crosses zero.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InputError, NumericalFailure
from .model import (
    OhmicSystemSpec,
    Regime,
    RegimeKind,
    classify_regime,
    derive_parameters,
)
from .quadrature import adaptive_gk, principal_value, split_to_width
from .special import ei_scaled, exp1_scaled
from .spectrum import NormalModeSet

__all__ = [
    "AmplitudeMethod",
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
_BLOCK_ELEMENTS = 2**18
_MAX_PHASES = 2**27
_BATCH_PANELS = 4096
_MAX_PANELS = 2**20
_MAX_GRID_PANELS = 2**23


class AmplitudeMethod(Enum):
    DISCRETE_SUM = "discrete"
    CLOSED_FORM = "closed"
    QUADRATURE = "quadrature"


@dataclass(frozen=True, eq=False)
class AmplitudeSeries:
    """f00 sampled on a time grid, tagged with how it was computed."""

    times: np.ndarray
    values: np.ndarray
    method: AmplitudeMethod
    regime: Regime
    spec_snapshot: OhmicSystemSpec

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if t.ndim != 1 or v.shape != t.shape:
            raise InputError("times and values must be matching 1d arrays")
        t.setflags(write=False)
        v.setflags(write=False)
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
# discrete sum
# ---------------------------------------------------------------------------

def _phase_sums(freq: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    # sum_j weights[j] * exp(-i*freq[j]*t) at each time, on blocks of about
    # _BLOCK_ELEMENTS phases so memory stays bounded for any mode count.
    # numpy reduces each row of a contiguous block on its own, pairwise, so
    # a value does not depend on which times share its call or block.  A
    # BLAS product rounds a row by the rows beside it, and einsum switches
    # kernels between one long row and several; neither is batch-invariant.
    # A phase term costs about 46 ns on a 2-core VM, so 2**27 of them is
    # about 6 s.
    if freq.size * t.size > _MAX_PHASES:
        raise InputError(
            f"a mode sum over {freq.size} modes x {t.size} times exceeds "
            "2**27 phase terms; use fewer modes or times"
        )
    step = max(1, _BLOCK_ELEMENTS // freq.size)
    out = np.empty(t.shape, dtype=complex)
    for start in range(0, t.size, step):
        block = t[start : start + step]
        terms = np.exp(-1j * block[:, None] * freq[None, :])
        terms *= weights
        out[start : start + step] = terms.sum(axis=1)
    return out


def f00_discrete(modes: NormalModeSet, weights, times) -> AmplitudeSeries:
    """Survival amplitude as an explicit weighted phase sum.

    ``weights`` is passed separately from the mode set so a deliberately
    perturbed weight row can be pushed through the same code path; they
    must be positive and sum to at most 1 (+1e-8 slack).  More than 2**27
    modes x times raises InputError before any phase is summed.
    """
    t = _validate_times(times)
    w = np.asarray(weights, dtype=float)
    if w.shape != modes.frequencies.shape:
        raise InputError("need exactly one weight per mode")
    if np.any(w <= 0.0):
        raise InputError("weights must be positive")
    if w.sum() > 1.0 + 1e-8:
        raise InputError("weights must sum to at most 1")
    return AmplitudeSeries(
        times=t,
        values=_phase_sums(modes.frequencies, w, t),
        method=AmplitudeMethod.DISCRETE_SUM,
        regime=classify_regime(modes.spec_snapshot),
        spec_snapshot=modes.spec_snapshot,
    )


# ---------------------------------------------------------------------------
# continuum quadrature
# ---------------------------------------------------------------------------

def _weight_density(bar_sq: float, g: float):
    def density(w):
        w_sq = w * w
        return 2.0 * g * w_sq / ((w_sq - bar_sq) ** 2 + (math.pi * g) ** 2 * w_sq)

    return density


def _head_edges(bar_omega: float, a: float, w_top: float) -> np.ndarray:
    # structural breakpoints: half-width multiples around the resonance at
    # bar_omega (the peak has width ~a = pi*g/2) plus coarse anchors.
    raw = [0.0, 0.5 * bar_omega, 2.0 * bar_omega, 3.0 * bar_omega, w_top]
    for m in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
        raw.append(bar_omega - m * a)
        raw.append(bar_omega + m * a)
    pts = np.unique(np.clip(np.asarray(raw), 0.0, w_top))
    return pts[np.concatenate(([True], np.diff(pts) > 1e-9 * w_top))]


def _tail_derivatives(w0: np.ndarray, bar_sq: float, g: float):
    # F = N/D with N = 2g w**2; returns F, F', F'', F''', F'''' at each w0 by
    # the Leibniz recurrence F^(n) = (N^(n) - sum_{j<n} C(n,j) F^(j) D^(n-j))/D.
    pg_sq = (math.pi * g) ** 2
    d_derivs = [
        (w0 * w0 - bar_sq) ** 2 + pg_sq * w0 * w0,
        4.0 * w0 * (w0 * w0 - bar_sq) + 2.0 * pg_sq * w0,
        12.0 * w0 * w0 - 4.0 * bar_sq + 2.0 * pg_sq,
        24.0 * w0,
        24.0,
    ]
    n_derivs = [2.0 * g * w0 * w0, 4.0 * g * w0, 4.0 * g, 0.0, 0.0]
    f_derivs = []
    for n in range(5):
        acc = n_derivs[n]
        for j in range(n):
            acc -= math.comb(n, j) * f_derivs[j] * d_derivs[n - j]
        f_derivs.append(acc / d_derivs[0])
    return f_derivs


def _panel_edges(head_edges: np.ndarray, w_tail: np.ndarray, t: np.ndarray):
    # one edge list per time: head_edges, then w_tail where it lies above
    # them, split into panels at most half a period pi/t wide.  All times'
    # knots go through one split_to_width call laid end to end; the gap
    # from one time's last knot down to the next time's first gets an
    # infinite width, so it stays whole and the lists part where edges drop.
    n = head_edges.size
    knots = np.empty((t.size, n + 1))
    knots[:, :n] = head_edges
    knots[:, n] = w_tail
    keep = np.ones(knots.shape, dtype=bool)
    keep[:, n] = w_tail > head_edges[-1]
    caps = np.broadcast_to((math.pi / t)[:, None], knots.shape)[keep][:-1].copy()
    caps[np.cumsum(keep.sum(axis=1))[:-1] - 1] = np.inf
    edges = split_to_width(knots[keep], caps)
    return np.split(edges, np.flatnonzero(np.diff(edges) < 0.0) + 1)


def _f00_at_zero(bar_omega: float, g: float):
    bar_sq = bar_omega * bar_omega
    a = 0.5 * math.pi * g
    w_top = 4.0 * bar_omega + 8.0 * a
    head, err_h = adaptive_gk(
        _weight_density(bar_sq, g), _head_edges(bar_omega, a, w_top), 0.5 * _QUAD_TARGET
    )
    # substitute u = 1/w on [w_top, inf): the image integrand is smooth
    # and bounded (-> 2g at u = 0), so plain panels close the total.
    def flipped(u):
        u_sq = u * u
        return 2.0 * g / ((1.0 - bar_sq * u_sq) ** 2 + (math.pi * g) ** 2 * u_sq)

    tail, err_t = adaptive_gk(
        flipped, np.linspace(0.0, 1.0 / w_top, 9), 0.5 * _QUAD_TARGET
    )
    return complex(head + tail), err_h + err_t


def _f00_oscillating(bar_omega: float, g: float, t: np.ndarray):
    # f00 and its error estimate at the positive times t
    bar_sq = bar_omega * bar_omega
    a = 0.5 * math.pi * g
    density = _weight_density(bar_sq, g)
    w_top = 4.0 * bar_omega + 8.0 * a
    head_edges = _head_edges(bar_omega, a, w_top)

    # analytic tail starts once the phase w*t clears `phase_min`, chosen so
    # the four-term integration-by-parts remainder ~480 g t / phase**6 is
    # negligible; below it, panels of at most half a period of e^{-i w t}
    # cover [0, w_tail] (on those the Gauss error is ~6e-13 relative).
    phase_min = np.maximum(256.0, (480.0 * g * t / (0.25 * _QUAD_TARGET)) ** (1.0 / 6.0))
    w_tail = np.maximum(w_top, phase_min / t)

    # consecutive times share an adaptive pass until it holds about
    # _BATCH_PANELS initial panels
    n_panels = head_edges.size + w_tail * t / math.pi
    if n_panels.max() > _MAX_PANELS:
        raise InputError(
            f"t = {t.max():.6g} needs {n_panels.max():.3g} quadrature panels, "
            f"more than the {_MAX_PANELS} that fit in about 0.7 GB; keep t "
            f"below {(_MAX_PANELS - head_edges.size) * math.pi / w_top:.6g} for this spec"
        )
    if n_panels.sum() > _MAX_GRID_PANELS:
        raise InputError(
            f"{t.size} time points need {n_panels.sum():.3g} quadrature panels in all, "
            f"more than the {_MAX_GRID_PANELS} that run in about 10 s; use fewer "
            "samples or a smaller t_max"
        )
    batch = (np.cumsum(n_panels) - n_panels) // _BATCH_PANELS
    head = np.empty(t.shape, dtype=complex)
    err_h = np.empty(t.shape)
    for idx in np.split(np.arange(t.size), np.flatnonzero(np.diff(batch)) + 1):
        head[idx], err_h[idx] = adaptive_gk(
            density,
            _panel_edges(head_edges, w_tail[idx], t[idx]),
            0.5 * _QUAD_TARGET,
            times=t[idx],
        )

    f_derivs = _tail_derivatives(w_tail, bar_sq, g)
    it = 1j * t
    tail = np.exp(-1j * w_tail * t) * (
        f_derivs[0] / it + f_derivs[1] / it**2 + f_derivs[2] / it**3 + f_derivs[3] / it**4
    )
    err_t = 2.0 * np.abs(f_derivs[4]) / t**5
    return head + tail, err_h + err_t


def f00_quadrature(spec: OhmicSystemSpec, times) -> AmplitudeSeries:
    """Survival amplitude by direct continuum integration.

    Aims at 1e-9 absolute accuracy per time point and raises
    NumericalFailure if the internal error estimate ever exceeds 1e-7.
    Work and memory per time point grow as t*(4*bar_omega + 4*pi*g)/pi
    initial panels.  A time that needs more than 2**20 of them, or a grid
    that needs more than 2**23 in all (about 10 s of work), raises
    InputError before any quadrature runs.
    """
    t_arr = _validate_times(times)
    values = np.empty(t_arr.shape, dtype=complex)
    errors = np.empty(t_arr.shape)
    zero = t_arr == 0.0
    pos = ~zero
    if pos.any():
        values[pos], errors[pos] = _f00_oscillating(spec.bar_omega, spec.g, t_arr[pos])
    if zero.any():
        values[zero], errors[zero] = _f00_at_zero(spec.bar_omega, spec.g)
    worst = errors.max()
    if worst > _QUAD_HARD_LIMIT:
        raise NumericalFailure(
            f"continuum quadrature error estimate {worst:.3e} exceeds 1e-7"
        )
    return AmplitudeSeries(
        times=t_arr,
        values=values,
        method=AmplitudeMethod.QUADRATURE,
        regime=classify_regime(spec),
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# branch-cut integral and closed form
# ---------------------------------------------------------------------------

def _j_analytic(spec: OhmicSystemSpec, t: np.ndarray) -> np.ndarray:
    regime = classify_regime(spec)
    a = 0.5 * math.pi * spec.g
    if regime.kind is RegimeKind.UNDERDAMPED:
        kappa = regime.kappa_abs
        root = complex(a, kappa)
        z = root * t
        pair = exp1_scaled(np.concatenate((-z, z)))
        diff = pair[: t.size] - pair[t.size:]
        return (root * diff).imag / (math.pi * kappa)
    if regime.kind is RegimeKind.CRITICAL:
        x = a * t
        f_term = ei_scaled(x)
        e_term = np.real(exp1_scaled(x))
        return ((x - 1.0) * f_term - (x + 1.0) * e_term) / math.pi
    kabs = regime.kappa_abs
    y_fast = a + kabs
    y_slow = spec.bar_omega**2 / y_fast  # equals a - kabs without cancellation
    x = np.concatenate((y_fast * t, y_slow * t))
    s = ei_scaled(x) + np.real(exp1_scaled(x))
    return -(y_fast * s[: t.size] - y_slow * s[t.size:]) / (2.0 * math.pi * kabs)


def _j_quadrature(spec: OhmicSystemSpec, t: float) -> float:
    g = spec.g
    bar_sq = spec.bar_omega**2
    a = 0.5 * math.pi * spec.g
    regime = classify_regime(spec)
    y_top = max(4.0 * a, 4.0 * spec.bar_omega, 60.0 / t)
    tol = 1e-10 * max(1.0, 2.0 * g / spec.bar_omega)

    if regime.kind is RegimeKind.UNDERDAMPED:
        k_sq = regime.kappa_abs**2

        def under(y):
            return (
                2.0 * g * y * y * np.exp(-y * t)
                / (((y - a) ** 2 + k_sq) * ((y + a) ** 2 + k_sq))
            )

        edges = np.unique(np.clip(
            [0.0, 0.5 * a, a, 2.0 * a, 0.5 * spec.bar_omega, spec.bar_omega,
             min(4.0 / t, y_top), y_top], 0.0, y_top))
        val, _ = adaptive_gk(under, edges, tol)
        return float(val)

    if regime.kind is RegimeKind.CRITICAL:
        # split off the non-integrable pole pieces of
        # y**2/((y-a)**2 (y+a)**2) and integrate them in closed form; the
        # smooth remainder involves only (y + a) factors.
        def remainder(y):
            return (
                2.0 * g * np.exp(-y * t)
                * (-1.0 / (4.0 * a * (y + a)) + 1.0 / (4.0 * (y + a) ** 2))
            )

        edges = np.unique(np.clip([0.0, 0.5 * a, a, 2.0 * a,
                                   min(4.0 / t, y_top), y_top], 0.0, y_top))
        smooth, _ = adaptive_gk(remainder, edges, tol)
        # tail of the remainder beyond y_top is below e^{-60}; the pole
        # pieces are integrated over all of [0, inf):
        #   PV int e^{-yt}/(y-a)   = -ei_scaled(a t)
        #   FP int e^{-yt}/(y-a)**2 = t*ei_scaled(a t) - 1/a
        f_term = ei_scaled(a * t)
        pole_part = 2.0 * g * (
            (1.0 / (4.0 * a)) * (-f_term) + 0.25 * (t * f_term - 1.0 / a)
        )
        return float(smooth + pole_part)

    kabs = regime.kappa_abs
    y_fast = a + kabs
    y_slow = bar_sq / y_fast
    half = 0.5 * min(y_slow, kabs)

    def full(y):
        return (
            2.0 * g * y * y * np.exp(-y * t)
            / ((y - y_fast) * (y - y_slow) * (y + y_fast) * (y + y_slow))
        )

    def near_slow(y):
        return (
            2.0 * g * y * y * np.exp(-y * t)
            / ((y - y_fast) * (y + y_fast) * (y + y_slow))
        )

    def near_fast(y):
        return (
            2.0 * g * y * y * np.exp(-y * t)
            / ((y - y_slow) * (y + y_fast) * (y + y_slow))
        )

    total = 0.0
    pv_slow, _ = principal_value(near_slow, y_slow, half, tol)
    pv_fast, _ = principal_value(near_fast, y_fast, half, tol)
    total += pv_slow + pv_fast
    segments = [
        (0.0, y_slow - half),
        (y_slow + half, y_fast - half),
        (y_fast + half, max(y_top, y_fast + 4.0 * half)),
    ]
    for left, right in segments:
        if right - left <= 0.0:
            continue
        inner = [p for p in (0.5 * (left + right), min(4.0 / t, right))
                 if left < p < right]
        edges = np.unique(np.concatenate(([left, right], inner)))
        val, _ = adaptive_gk(full, edges, tol)
        total += val
    return float(total)


def bath_integral_J(spec: OhmicSystemSpec, t, method: str = "analytic"):
    """Branch-cut integral J(t) for t > 0 (scalar or array).

    method="analytic" evaluates the scaled-exponential-integral closed
    forms (fast, machine accurate, arrays fine).  method="quadrature"
    integrates the definition directly, excising real poles by symmetric
    principal-value windows; it exists to audit the analytic route.
    """
    if method not in ("analytic", "quadrature"):
        raise InputError(f"method must be 'analytic' or 'quadrature', got {method!r}")
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr <= 0.0) or not np.all(np.isfinite(t_arr)):
        raise InputError("bath_integral_J needs strictly positive finite times")
    if method == "analytic":
        out = _j_analytic(spec, t_arr)
    else:
        out = np.array([_j_quadrature(spec, float(ti)) for ti in t_arr])
    return float(out[0]) if scalar else out


def f00_closed(spec: OhmicSystemSpec, times) -> AmplitudeSeries:
    """Pole-plus-branch-cut closed form of the survival amplitude.

    Underdamped:  (1 - i a/kappa) e^{-(a + i kappa) t} + i J(t)
    Critical:     (1 - a t) e^{-a t} + i J(t)
    Overdamped:   [y+ e^{-y+ t} - y- e^{-y- t}]/(2|kappa|) + i J(t)

    with a = pi*g/2 and y+- = a +- |kappa|.  At t = 0 the value is exactly
    1 (the J limit cancels the pole imaginary part identically).
    """
    t = _validate_times(times)
    regime = classify_regime(spec)
    a = 0.5 * math.pi * spec.g
    values = np.ones(t.shape, dtype=complex)
    pos = t > 0.0
    tp = t[pos]
    if tp.size:
        j_vals = _j_analytic(spec, tp)
        if regime.kind is RegimeKind.UNDERDAMPED:
            kappa = regime.kappa_abs
            pole = (1.0 - 1j * a / kappa) * np.exp(-(a + 1j * kappa) * tp)
        elif regime.kind is RegimeKind.CRITICAL:
            pole = (1.0 - a * tp) * np.exp(-a * tp) + 0.0j
        else:
            kabs = regime.kappa_abs
            y_fast = a + kabs
            y_slow = spec.bar_omega**2 / y_fast
            pole = (
                y_fast * np.exp(-y_fast * tp) - y_slow * np.exp(-y_slow * tp)
            ) / (2.0 * kabs) + 0.0j
        values[pos] = pole + 1j * j_vals
    return AmplitudeSeries(
        times=t,
        values=values,
        method=AmplitudeMethod.CLOSED_FORM,
        regime=regime,
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
    weak = np.exp(-math.pi * spec.g * t)
    pref = spec.bar_omega**2 / (math.pi * spec.g) ** 2
    strong = pref * np.exp(-2.0 * spec.bar_omega**2 * t / (math.pi * spec.g))
    return DecayComparators(weak=weak, strong=strong)


def cavity_survival_series(weights, frequencies, times) -> np.ndarray:
    """Survival probability |w0 e^{-i W0 t} + sum_k w_k e^{-i W_k t}|**2.

    ``weights`` is the pair (w0, ladder_weights); ``frequencies`` holds
    the matching 1 + k_max mode frequencies in ascending order.  Evaluated
    directly as a squared modulus, O(k_max) per time point; more than
    2**27 modes x times raises InputError before any phase is summed.
    """
    try:
        w0, wk = weights
    except (TypeError, ValueError) as exc:
        raise InputError("weights must be the pair (w0, ladder_weights)") from exc
    w0 = float(w0)
    wk = np.asarray(wk, dtype=float)
    freq = np.asarray(frequencies, dtype=float)
    if wk.ndim != 1 or freq.shape != (wk.size + 1,):
        raise InputError("need one frequency for w0 plus one per ladder weight")
    if w0 <= 0.0 or np.any(wk <= 0.0):
        raise InputError("weights must be positive")
    t = _validate_times(times)
    return np.abs(_phase_sums(freq, np.concatenate(([w0], wk)), t)) ** 2


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
