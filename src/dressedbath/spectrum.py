"""Normal-mode spectra of the coupled particle-bath system.

Three routes to the same physics, at different levels of approximation:

* ``solve_finite_spectrum``: exact normal modes of the (N+1)-oscillator
  problem, from the pole structure of the secular function.  The N+1 roots
  of

      h(L) = bar_omega**2 - L - eta**2 * L * sum_k 1/(omega_k**2 - L)

  in L = Omega**2 interlace the bath ladder omega_k**2, one root per gap,
  which makes bracketing trivial and h strictly decreasing on each bracket.

* ``solve_cavity_spectrum``: the N -> infinity cavity limit, where the mode
  sum collapses to a cotangent and each spectral branch carries exactly one
  root of

      cot(x) = x/(pi*delta) + C/(2*x),      x = L*Omega/(2*c).

  Two published forms of the constant C circulate; both are implemented
  behind the ``variant`` switch and the validation report records which one
  the finite-N route reproduces.

* ``approx_small_L_spectrum``: leading small-cavity asymptotics, valid when
  delta is far below the smallness factor returned by
  ``cavity_smallness_factor``.

The two exact routes hand their brackets to one root kernel,
``_bracketed_roots``, and share its stop rule.

``cot_series_closed_form`` and ``series_identity_residual`` expose the
series identity sum_{k>=1} 1/(k**2 - u**2) = 1/(2u**2) - pi*cot(pi*u)/(2u)
that underlies the cotangent collapse, for direct numerical audit.
"""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DimensionMismatch,
    InputError,
    NumericalFailure,
    ParameterError,
    SingularityError,
    StabilityError,
)
from .model import DerivedParams, OhmicSystemSpec, derive_parameters

__all__ = [
    "ModeSource",
    "NormalModeSet",
    "SmallLSpectrum",
    "SmallnessFactors",
    "solve_finite_spectrum",
    "solve_cavity_spectrum",
    "approx_small_L_spectrum",
    "cavity_smallness_factor",
    "cot_series_closed_form",
    "series_identity_residual",
]

_WEIGHT_SUM_TOL = 1e-8


class ModeSource(Enum):
    FINITE_N = "finite-n"
    CAVITY_CLOSED_FORM = "cavity"
    SMALL_L_ASYMPTOTIC = "small-l"
    DENSE_ORACLE = "dense-oracle"


@dataclass(frozen=True, eq=False)
class NormalModeSet:
    """A sorted normal-mode spectrum with its particle weights.

    ``frequencies`` holds the mode frequencies in ascending order and
    ``weights`` the squared particle components (t_0^r)**2, one per mode.
    ``variant`` records which cotangent constant produced a cavity set.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    source: ModeSource
    spec_snapshot: OhmicSystemSpec
    variant: str | None = None

    def __post_init__(self) -> None:
        freq = np.asarray(self.frequencies, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if freq.ndim != 1 or wts.ndim != 1:
            raise InputError("frequencies and weights must be 1d arrays")
        if freq.size != wts.size:
            raise DimensionMismatch(
                f"{freq.size} frequencies vs {wts.size} weights"
            )
        if freq.size == 0:
            raise InputError("a mode set needs at least one mode")
        if not np.all(np.isfinite(freq)) or not np.all(np.isfinite(wts)):
            raise InputError("mode data must be finite")
        if np.any(freq <= 0) or np.any(np.diff(freq) <= 0):
            raise InputError("frequencies must be positive and strictly increasing")
        if np.any(wts <= 0) or np.any(wts > 1.0 + _WEIGHT_SUM_TOL):
            raise InputError("weights must lie in (0, 1]")
        if wts.sum() > 1.0 + _WEIGHT_SUM_TOL:
            raise InputError("particle weights must sum to at most 1")
        freq.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "weights", wts)

    @property
    def n_modes_total(self) -> int:
        return int(self.frequencies.size)


@dataclass(frozen=True, eq=False)
class SmallLSpectrum:
    """Small-cavity closed-form spectrum.

    The lowest mode sits at ``omega_0`` below the bath ladder; ladder mode k
    is displaced to (k + epsilons[k-1]) * delta_omega.  ``validity_factor``
    is the smallness scale f that delta must stay well below.
    """

    omega_0: float
    epsilons: np.ndarray
    validity_factor: float
    k_max: int
    spec_snapshot: OhmicSystemSpec

    def __post_init__(self) -> None:
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.ndim != 1 or eps.size != self.k_max:
            raise DimensionMismatch("epsilons must hold one entry per ladder mode")
        eps.setflags(write=False)
        object.__setattr__(self, "epsilons", eps)

    def frequencies(self) -> np.ndarray:
        """Full ascending frequency array [omega_0, ladder modes]."""
        d = derive_parameters(self.spec_snapshot)
        k = np.arange(1, self.k_max + 1)
        return np.concatenate(([self.omega_0], d.delta_omega * (k + self.epsilons)))


SmallnessFactors = namedtuple("SmallnessFactors", ["full", "weak_limit", "strong_limit"])


# ---------------------------------------------------------------------------
# shared root kernel
# ---------------------------------------------------------------------------

_BISECT_REL_WIDTH = 1e-6
_DONE_REL = 1e-13
_MAX_BISECTIONS = 100
_MAX_NEWTON_STEPS = 60


def _bracketed_roots(f, slope, lo, hi):
    """The root in each bracket [lo, hi] of a function decreasing on it.

    ``f(x, lanes)`` and ``slope(x, lanes)`` evaluate the lanes indexed by
    ``lanes`` at ``x``; every lane needs f(lo) > 0 > f(hi).  Each lane is
    bisected to 1e-6 relative width, then polished by Newton steps.  A
    Newton iterate equal to x is converged; one on or beyond a bracket end
    is replaced by the bracket midpoint, which also breaks the lo/hi
    2-cycle that a sign-quantised f can drive Newton into.  A lane stops
    once its step or its bracket width is at most 1e-13 relative, and only
    running lanes are evaluated.  Lanes still running after 60 steps raise
    NumericalFailure.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    lanes = np.arange(lo.size)
    for _ in range(_MAX_BISECTIONS):
        a, b = lo[lanes], hi[lanes]
        wide = b - a > _BISECT_REL_WIDTH * 0.5 * (a + b)
        lanes = lanes[wide]
        if lanes.size == 0:
            break
        mid = 0.5 * (a[wide] + b[wide])
        pos = f(mid, lanes) > 0.0
        lo[lanes[pos]] = mid[pos]
        hi[lanes[~pos]] = mid[~pos]

    root = 0.5 * (lo + hi)
    lanes = np.arange(root.size)
    for _ in range(_MAX_NEWTON_STEPS):
        x = root[lanes]
        fx = f(x, lanes)
        a = np.where(fx > 0.0, x, lo[lanes])
        b = np.where(fx < 0.0, x, hi[lanes])
        nxt = x - fx / slope(x, lanes)
        moved = nxt != x
        nxt = np.where(moved & ~((nxt > a) & (nxt < b)), 0.5 * (a + b), nxt)
        root[lanes], lo[lanes], hi[lanes] = nxt, a, b
        tol = _DONE_REL * np.abs(nxt)
        lanes = lanes[moved & (np.abs(nxt - x) > tol) & (b - a > tol)]
        if lanes.size == 0:
            return root
    raise NumericalFailure(f"{lanes.size} bracketed roots did not converge")


# ---------------------------------------------------------------------------
# finite-N route
# ---------------------------------------------------------------------------

def solve_finite_spectrum(spec: OhmicSystemSpec) -> NormalModeSet:
    """Exact N+1 normal modes of the finite bath problem.

    Roots are bracketed by the pole interlacing (one per gap of the bath
    ladder, one below it, one above it) and found by ``_bracketed_roots``:
    bisection to 1e-6 relative width, then safeguarded Newton until the
    step or the bracket is at most 1e-13 relative.  Particle weights come
    for free as -1/h'(root).
    """
    d = derive_parameters(spec)
    n = spec.n_modes
    pole_sq = (d.delta_omega * np.arange(1, n + 1)) ** 2
    eta_sq = d.eta**2
    bar_sq = spec.bar_omega**2

    # h(L) and h'(L) for a batch of L values; the lane index is not needed.
    def secular(lam, _lanes=None):
        diff = pole_sq - lam[:, None]
        return bar_sq - lam - eta_sq * lam * np.sum(1.0 / diff, axis=1)

    def slope(lam, _lanes=None):
        diff = pole_sq - lam[:, None]
        return -1.0 - eta_sq * np.sum(pole_sq / diff**2, axis=1)

    # brackets: (0, p_1), (p_r, p_{r+1}), (p_N, B); offsets of 1e-13 keep
    # the evaluations off the poles where h has a known sign.  Above the
    # ladder L/(L - p_k) <= 2 once L >= 2*p_N, so h(L) <= bar_sq +
    # 2*eta_sq*N - L there, and B = 2*max(p_N, bar_sq + 2*eta_sq*N) has
    # h(B) < 0.
    lo = np.empty(n + 1)
    hi = np.empty(n + 1)
    lo[0] = bar_sq * 1e-14
    lo[1:] = pole_sq * (1.0 + 1e-13)
    hi[:-1] = pole_sq * (1.0 - 1e-13)
    hi[-1] = 2.0 * max(pole_sq[-1], bar_sq + 2.0 * eta_sq * n)
    if secular(lo[:1])[0] <= 0.0:
        raise StabilityError("secular function is negative at zero frequency")

    lam = _bracketed_roots(secular, slope, lo, hi)
    if np.any(lam <= 0.0):
        raise StabilityError("negative squared frequency: no stable ground state")
    return NormalModeSet(
        frequencies=np.sqrt(lam),
        weights=-1.0 / slope(lam),
        source=ModeSource.FINITE_N,
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# cavity (infinite ladder) route
# ---------------------------------------------------------------------------

_VARIANT_CONSTANTS = {"paper": 1.0, "rederived": 2.0}


def _mode_weights(d: DerivedParams, bar_sq: float, g: float, omega):
    # particle weight of a cavity mode at frequency Omega: the discrete
    # (t_0^r)**2 evaluated with the cotangent-collapsed level sums.
    om_sq = np.asarray(omega) ** 2
    eta_sq = d.eta**2
    denom = (
        (om_sq - bar_sq) ** 2
        + 0.5 * eta_sq * (3.0 * om_sq - bar_sq)
        + (math.pi * g) ** 2 * om_sq
    )
    return eta_sq * om_sq / denom


def solve_cavity_spectrum(
    spec: OhmicSystemSpec, k_max: int = 10000, variant: str = "rederived"
) -> NormalModeSet:
    """Cavity normal modes from the cotangent spectral condition.

    Solves cot(x) = x/(pi*delta) + C/(2x) with x = L*Omega/(2c) on the
    branches x in (k*pi, (k+1)*pi), k = 0..k_max.  The two values of the
    constant C differ in their first term:

        variant="paper":      C = 1 - 2*delta/(pi*beta**2)
        variant="rederived":  C = 2 - 2*delta/(pi*beta**2)

    The second follows from collapsing the finite-N secular function with
    the series identity and matches the finite-N route, and is the
    default; the first is the published form, kept to reproduce the
    publication.  Each branch is solved in the shifted variable
    s = x - k*pi, where cot is evaluated without precision loss even at
    k ~ 1e4, by the same kernel and stop rule as the finite route:
    bisection to 1e-6 relative width, then safeguarded Newton until the
    step or the bracket is at most 1e-13 relative in s.
    """
    if variant not in _VARIANT_CONSTANTS:
        raise InputError(f"variant must be 'paper' or 'rederived', got {variant!r}")
    if not isinstance(k_max, int) or k_max < 0:
        raise InputError(f"k_max must be a nonnegative integer, got {k_max!r}")
    d = derive_parameters(spec)
    delta = d.delta
    beta = d.beta
    c_const = _VARIANT_CONSTANTS[variant] - 2.0 * delta / (math.pi * beta**2)
    k_pi = math.pi * np.arange(k_max + 1, dtype=float)

    def shifted_secular(s, lanes=slice(None)):
        x = k_pi[lanes] + s
        return np.cos(s) / np.sin(s) - x / (math.pi * delta) - c_const / (2.0 * x)

    def shifted_slope(s, lanes):
        x = k_pi[lanes] + s
        return -1.0 / np.sin(s) ** 2 - 1.0 / (math.pi * delta) + c_const / (2.0 * x**2)

    # endpoint probes: cot blows up to +inf at s -> 0+ and to -inf at
    # s -> pi-, so close enough to the ends the sign is pinned. The rare
    # extreme-parameter cases get a few shrink retries.
    lo = np.full(k_max + 1, 1e-18)
    hi = np.full(k_max + 1, math.pi - 1e-12 * math.pi)
    for _ in range(6):
        bad = shifted_secular(lo) <= 0.0
        if not bad.any():
            break
        lo[bad] *= 1e-6
    else:
        raise NumericalFailure("no positive endpoint for a cavity branch")
    for _ in range(6):
        bad = shifted_secular(hi) >= 0.0
        if not bad.any():
            break
        hi[bad] = math.pi - (math.pi - hi[bad]) * 1e-3
    else:
        raise NumericalFailure("no negative endpoint for a cavity branch")

    # the secular function decreases strictly on each branch (the cot slope
    # -1/sin**2 dominates C/(2x**2) because C <= 2 and x >= s).
    x = k_pi + _bracketed_roots(shifted_secular, shifted_slope, lo, hi)
    freq = (2.0 * spec.light_speed / spec.cavity_L) * x
    weights = _mode_weights(d, spec.bar_omega**2, spec.g, freq)
    return NormalModeSet(
        frequencies=freq,
        weights=weights,
        source=ModeSource.CAVITY_CLOSED_FORM,
        spec_snapshot=spec,
        variant=variant,
    )


# ---------------------------------------------------------------------------
# small-cavity asymptotics
# ---------------------------------------------------------------------------

def cavity_smallness_factor(spec: OhmicSystemSpec) -> SmallnessFactors:
    """Smallness scale f that delta must stay below for the ladder forms.

    ``full`` is the exact positive root of f**2 - pi*beta**2*f - beta**2 = 0,
    the self-consistency bound for the lowest mode staying deep inside its
    first branch.  ``weak_limit`` (= beta) and ``strong_limit``
    (= pi*beta**2/2) are the commonly quoted limiting forms; note the strong
    one sits a factor approaching 2 below the exact root.
    """
    beta = derive_parameters(spec).beta
    full = 0.5 * math.pi * beta**2 * (1.0 + math.sqrt(1.0 + 4.0 / (math.pi**2 * beta**2)))
    return SmallnessFactors(
        full=full,
        weak_limit=beta,
        strong_limit=0.5 * math.pi * beta**2,
    )


def approx_small_L_spectrum(spec: OhmicSystemSpec, k_max: int = 10000) -> SmallLSpectrum:
    """Leading small-cavity displacements of the mode ladder.

    The lowest mode drops to omega_0 = bar_omega/sqrt(1 + pi*delta) and
    ladder mode k shifts by

        epsilon_k = (delta/pi) * k / (k**2 - rho**2),    rho = bar_omega*L/(2*pi*c).

    Requires the bath spacing to clear the particle frequency (rho < 1,
    equivalently delta < pi*beta), else the displaced ladder would not
    stay ordered.  Warns when delta exceeds a
    tenth of the validity factor instead of failing: the formulas stay
    evaluable, just increasingly unfaithful.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise InputError(f"k_max must be a positive integer, got {k_max!r}")
    d = derive_parameters(spec)
    factors = cavity_smallness_factor(spec)
    if d.delta > factors.full / 10.0:
        warnings.warn(
            f"delta = {d.delta:.6g} is not small against the validity factor "
            f"f = {factors.full:.6g}; small-cavity formulas degrade here",
            stacklevel=2,
        )
    rho = spec.bar_omega / d.delta_omega
    if rho >= 1.0:
        raise ParameterError(
            "small-cavity ladder needs the mode spacing 2*pi*c/L to exceed "
            f"bar_omega (got ratio {rho:.6g} >= 1)"
        )
    k = np.arange(1, k_max + 1, dtype=float)
    gap = k**2 - rho**2
    if np.any(np.abs(gap) <= 1e-12 * k**2):
        raise SingularityError("a ladder mode sits exactly on the particle resonance")
    eps = (d.delta / math.pi) * k / gap
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ParameterError("mode displacements left (0, 1); delta is too large")
    omega_0 = spec.bar_omega / math.sqrt(1.0 + math.pi * d.delta)
    return SmallLSpectrum(
        omega_0=omega_0,
        epsilons=eps,
        validity_factor=factors.full,
        k_max=k_max,
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# series identity audit
# ---------------------------------------------------------------------------

# zeta(2), zeta(4), zeta(6), zeta(8) as pi powers, for the small-u branch.
_ZETA_EVEN = (
    math.pi**2 / 6.0,
    math.pi**4 / 90.0,
    math.pi**6 / 945.0,
    math.pi**8 / 9450.0,
)


def cot_series_closed_form(u: float) -> float:
    """Closed form of sum_{k>=1} 1/(k**2 - u**2) for non-integer u.

    Equals 1/(2u**2) - pi*cot(pi*u)/(2u).  Below |u| = 0.01 that expression
    loses seven digits to cancellation, so the even-zeta Taylor series is
    used instead; its first omitted term is zeta(10)*u**8 < 1e-16 there.
    """
    u = float(u)
    if not math.isfinite(u):
        raise InputError("u must be finite")
    nearest = round(u)
    if nearest != 0 and abs(u - nearest) < 1e-12:
        raise SingularityError(f"u = {u!r} sits on a pole of the series")
    if abs(u) < 0.01:
        u2 = u * u
        return _ZETA_EVEN[0] + u2 * (_ZETA_EVEN[1] + u2 * (_ZETA_EVEN[2] + u2 * _ZETA_EVEN[3]))
    return 1.0 / (2.0 * u * u) - math.pi / (2.0 * u * math.tan(math.pi * u))


def series_identity_residual(u: float, n_terms: int = 1_000_000) -> float:
    """|partial sum - closed form| of the cotangent series at u in (0, 1).

    The truncation tail is ~1/n_terms, so the residual measures exactly
    that; it is the direct audit that the cotangent collapse used by the
    cavity route is numerically sound.
    """
    u = float(u)
    if not (1e-6 < u < 1.0 - 1e-6):
        raise InputError("u must lie in (0, 1) at least 1e-6 away from the ends")
    if not isinstance(n_terms, int) or n_terms < 1:
        raise InputError(f"n_terms must be a positive integer, got {n_terms!r}")
    total = 0.0
    chunk = 5_000_000
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk - 1, n_terms)
        k = np.arange(start, stop + 1, dtype=float)
        total += float(np.sum(1.0 / (k * k - u * u)))
    return abs(total - cot_series_closed_form(u))
