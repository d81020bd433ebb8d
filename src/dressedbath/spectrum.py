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

Each route returns a ``NormalModeSet``: the frequencies together with the
particle weights (t_0^r)**2.  Roots and weights are formed in units of
delta_omega or bar_omega, so no route squares an absolute frequency.

Both exact routes are truncations of one secular equation, and on each gap
between two poles both take the form pi*eps = arccot(A(j + eps)), eps in
(0, 1): the cavity's A is x/(pi*delta) + C/(2x), the N -> infinity collapse
of the finite sum, and the finite A subtracts the digamma tail of the terms
beyond k = N.  One root kernel, ``_bracketed_roots``, solves every gap by
safeguarded Newton from a closed-form start, and the three edge lanes (the
finite gaps below and above the ladder, cavity branch 0) go through it on
their direct secular functions.

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

from .errors import InputError, NumericalFailure
from .model import OhmicSystemSpec, _count, derive_parameters
from .special import psi, psi1

__all__ = [
    "ModeSource",
    "NormalModeSet",
    "SmallnessFactors",
    "solve_finite_spectrum",
    "solve_cavity_spectrum",
    "approx_small_L_spectrum",
    "cavity_smallness_factor",
    "cot_series_closed_form",
    "series_identity_residual",
]

_WEIGHT_SUM_TOL = 1e-8
# solve_finite_spectrum is O(N) in time and memory: N = 10**6 takes
# about 1 s and a 0.25 GB tracemalloc peak on a 2-core VM.
_MAX_FINITE_MODES = 1_000_000
# the cavity ladder is O(k_max) too: k_max = 10**6 takes about 0.36 s and a
# 0.14 GB tracemalloc peak on a 2-core VM (the small-cavity forms 0.05 GB)
_MAX_K = 1_000_000
# series_identity_residual sums 10**7 terms in about 0.13 s
_MAX_SERIES_TERMS = 10**8


class ModeSource(Enum):
    FINITE_N = "finite-n"
    CAVITY_CLOSED_FORM = "cavity"
    SMALL_L_ASYMPTOTIC = "small-l"


def _checked_modes(frequencies, weights):
    """The frequencies and weights of a mode set as float arrays.

    Raises InputError unless there is one weight per frequency and at least
    one mode, the frequencies are finite, positive and strictly increasing,
    and the weights are positive (NaN is not) and sum to at most 1 (+1e-8
    slack).
    """
    freq = np.asarray(frequencies, dtype=float)
    wts = np.asarray(weights, dtype=float)
    if freq.ndim != 1 or wts.shape != freq.shape:
        raise InputError(f"need one weight per frequency, got {wts.shape} vs {freq.shape}")
    if freq.size == 0:
        raise InputError("a mode set needs at least one mode")
    if not (np.all(np.isfinite(freq)) and freq[0] > 0.0 and np.all(np.diff(freq) > 0.0)):
        raise InputError("frequencies must be finite, positive and strictly increasing")
    if not np.all(wts > 0.0):
        raise InputError("weights must be positive")
    if wts.sum() > 1.0 + _WEIGHT_SUM_TOL:
        raise InputError("weights must sum to at most 1")
    return freq, wts


def _past_double(source, d) -> InputError:
    # a route's own arithmetic left double precision at an extreme beta or
    # delta: say so, and blame no input the caller never gave
    return InputError(f"the {source.value} modes leave double precision at "
                      f"beta = {d.beta:.6g}, delta = {d.delta:.6g}")


def _route_modes(source, spec, d, frequencies, weights) -> NormalModeSet:
    # a route's mode set, unless a weight underflowed to 0 or read NaN or a
    # frequency overflowed on the way
    if not (np.all(weights > 0.0) and np.all(np.isfinite(frequencies))):
        raise _past_double(source, d)
    return NormalModeSet(frequencies, weights, source, spec)


def _frozen(value, dtype=float) -> np.ndarray:
    # value as a read-only array: a copy unless it is read-only already, so
    # freezing it never freezes the caller's own array
    arr = np.asarray(value, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


def _frozen_square(name, value) -> np.ndarray:
    # value frozen as above and checked to be a finite square matrix
    m = _frozen(value)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InputError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} must be finite")
    return m


@dataclass(frozen=True, eq=False)
class NormalModeSet:
    """A sorted normal-mode spectrum with its particle weights.

    ``frequencies`` holds the mode frequencies in ascending order and
    ``weights`` the squared particle components (t_0^r)**2, one per mode;
    ``_checked_modes`` states what they must satisfy.
    """

    frequencies: np.ndarray
    weights: np.ndarray
    source: ModeSource
    spec_snapshot: OhmicSystemSpec

    def __post_init__(self) -> None:
        freq, wts = _checked_modes(self.frequencies, self.weights)
        object.__setattr__(self, "frequencies", _frozen(freq))
        object.__setattr__(self, "weights", _frozen(wts))

    @property
    def n_modes_total(self) -> int:
        return int(self.frequencies.size)


SmallnessFactors = namedtuple("SmallnessFactors", ["full", "weak_limit", "strong_limit"])


# ---------------------------------------------------------------------------
# shared root kernel
# ---------------------------------------------------------------------------

_DONE_REL = 1e-13
_MAX_STEPS = 100


def _bracketed_roots(f, x, lo, hi):
    """The root in each bracket [lo, hi] of a function that changes sign once.

    ``f(x, lanes)`` returns the values and slopes at ``x`` of the lanes
    indexed by ``lanes``; every lane needs f > 0 left of its root and f < 0
    right of it.  Each lane starts at its own ``x`` in its bracket and takes
    safeguarded Newton steps: every value moves the bracket end on its side
    to x, and a Newton iterate equal to x is converged.  The bracket
    midpoint replaces an iterate on or beyond a bracket end, which breaks
    the lo/hi 2-cycle that a sign-quantised f can drive Newton into, and
    one whose step is over half the lane's step before (the first may take
    half the bracket), which breaks the slower cycles of Newton across an
    inflection, as in ``rtsafe`` (Press et al., Numerical Recipes).  A lane
    stops once its step or its bracket width is at most 1e-13 relative, and
    only running lanes are evaluated.  Lanes still running after 100 steps
    raise NumericalFailure.
    """
    root = np.array(x, dtype=float)
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    step = hi - lo
    lanes = np.arange(root.size)
    for _ in range(_MAX_STEPS):
        x = root[lanes]
        fx, dfx = f(x, lanes)
        a = np.where(fx > 0.0, x, lo[lanes])
        b = np.where(fx < 0.0, x, hi[lanes])
        nxt = x - fx / dfx
        moved = nxt != x
        newton = (nxt > a) & (nxt < b) & (np.abs(nxt - x) <= 0.5 * step[lanes])
        nxt = np.where(moved & ~newton, 0.5 * (a + b), nxt)
        root[lanes], lo[lanes], hi[lanes] = nxt, a, b
        step[lanes] = np.abs(nxt - x)
        tol = _DONE_REL * np.abs(nxt)
        lanes = lanes[moved & (np.abs(nxt - x) > tol) & (b - a > tol)]
        if lanes.size == 0:
            return root
    raise NumericalFailure(f"{lanes.size} bracketed roots did not converge")


def _arccot_roots(collapse, start, scale, width):
    """Roots of scale*x = arccot(A(x)), one per lane, x in (0, width).

    ``collapse(x, lanes)`` returns A and dA/dx.  Both spectral routes reduce
    to this form on each gap between two poles, where cot runs once from
    +inf to -inf; arccot maps A into (0, pi), so the function the kernel
    sees is bounded and nearly linear, and Newton from ``start`` needs a
    few steps.
    """
    def f(x, lanes):
        a, da = collapse(x, lanes)
        return np.arctan2(1.0, a) - scale * x, -da / (1.0 + a * a) - scale

    n = np.size(start)
    return _bracketed_roots(f, start, np.zeros(n), np.full(n, width))


# ---------------------------------------------------------------------------
# finite-N route
# ---------------------------------------------------------------------------

def solve_finite_spectrum(spec: OhmicSystemSpec) -> NormalModeSet:
    """Exact N+1 normal modes of the finite bath problem.

    In units of the bath spacing delta_omega (u = Omega/delta_omega,
    b = bar_omega/delta_omega, e**2 = eta**2/delta_omega**2) the secular
    equation is b**2 - u**2 = e**2 * u**2 * sum_k 1/(k**2 - u**2), with one
    root in each gap (j, j+1) of the ladder, one below it and one above it.
    The series identity and the digamma tail of the sum beyond k = N turn
    the root of gap j = 1..N-1 into pi*eps = arccot(A(j + eps)),

        A(u) = [2(u**2 - b**2) + e**2]/(pi*e**2*u)
               - [psi(N+1+u) - psi(N+1-u)]/pi,

    solved by ``_bracketed_roots`` from the start arccot(A(j))/pi; the
    particle weight 1/(1 + e**2 * sum_k k**2/(k**2 - u**2)**2) collapses
    the same way.  Each of these lanes costs O(1).  The gap above the
    ladder, where psi(N+1-u) has poles, keeps the direct O(N) sum, and so
    does the gap below it: there A has a 1/u pole that is no ladder pole,
    so a root near 0 cancels two 1/u terms and its weight two 1/u**2 ones.
    The whole solve is O(N) in time and memory, and n_modes above 10**6
    raises InputError before any work starts.
    """
    n = spec.n_modes
    if n > _MAX_FINITE_MODES:
        raise InputError(
            f"solve_finite_spectrum is capped at n_modes = {_MAX_FINITE_MODES}, got {n}"
        )
    d = derive_parameters(spec)
    b = spec.bar_omega / d.delta_omega
    e_sq = 2.0 * spec.g / d.delta_omega
    # the start below the ladder squares b**2 = (delta/(pi*beta))**2, so
    # past b ~ 1e77 the route cannot begin
    if b * b * b * b == math.inf:
        raise _past_double(ModeSource.FINITE_N, d)
    u = np.empty(n + 1)
    weights = np.empty(n + 1)
    u[[0, n]], weights[[0, n]] = _finite_edge_roots(n, b, e_sq)
    if n > 1:
        u[1:n], weights[1:n] = _finite_bulk_roots(n, b, e_sq)
    return _route_modes(ModeSource.FINITE_N, spec, d, d.delta_omega * u, weights)


def _finite_bulk_roots(n, b, e_sq):
    # gaps j = 1..n-1 in eps = u - j; n+1-u stays above 1 (in (1, 2] at
    # j = n-1), so the digamma tail has no pole.  Every difference is
    # formed from j and eps apart, so a root hugging a pole keeps its
    # distance to it.
    j = np.arange(1.0, n)
    lin = 2.0 / (math.pi * e_sq)
    inv = 2.0 * b * b / (math.pi * e_sq) - 1.0 / math.pi

    def parts(eps, jl):
        # u, A(u), A'(u) and psi1(N+1+u) + psi1(N+1-u)
        u = jl + eps
        z = np.concatenate(((n + 1.0 + jl) + eps, (n + 1.0 - jl) - eps))
        di, tri = psi(z), psi1(z)
        tri = tri[:jl.size] + tri[jl.size:]
        a = (lin * ((jl - b) + eps) * ((jl + b) + eps) + 1.0 / math.pi) / u \
            - (di[:jl.size] - di[jl.size:]) / math.pi
        return u, a, lin + inv / (u * u) - tri / math.pi, tri

    def collapse(eps, lanes):
        return parts(eps, j[lanes])[1:3]

    start = np.arctan2(1.0, parts(0.0, j)[1]) / math.pi
    eps = _arccot_roots(collapse, start, math.pi, 1.0)
    # at the root cot(pi*eps) = A, so pi**2/sin(pi*eps)**2 = pi**2*(1 + A**2),
    # which keeps its digits when eps is near 1; with
    # pi*A + [psi(N+1+u) - psi(N+1-u)] = [2(u**2 - b**2) + e**2]/(e**2*u):
    #   4*sum_k k**2/(k**2 - u**2)**2 = pi**2*(1 + A**2) - psi1(N+1+u)
    #       - psi1(N+1-u) - [2(u**2 - b**2) + e**2]/(e**2*u**2)
    u, a, _, tri = parts(eps, j)
    shape = 2.0 * ((j - b) + eps) * ((j + b) + eps) + e_sq
    slope_sum = math.pi**2 * (1.0 + a * a) - tri - shape / (e_sq * u * u)
    return u, 1.0 / (1.0 + 0.25 * e_sq * slope_sum)


def _positive_root(alpha, beta, gamma):
    # the positive root of alpha*z**2 + beta*z - gamma, alpha and gamma > 0
    disc = math.sqrt(beta * beta + 4.0 * alpha * gamma)
    return 2.0 * gamma / (beta + disc) if beta >= 0.0 else (disc - beta) / (2.0 * alpha)


def _finite_edge_roots(n, b, e_sq):
    """Roots and weights of the gaps below (j = 0) and above (j = n) the ladder.

    Each is solved on the direct sum, with the pole p next to the gap (p = 1
    below, p = n above) multiplied out: |p - u|*h(u) has the sign of h and
    no pole in the gap.  The variable t runs from the gap end the root is
    nearer, u = origin + dir*t, so a root hugging that end keeps its
    digits.  Both starts come from the quadratic that keeps pole p exactly
    and freezes the rest of the sum, at u = 0 below the ladder and at u = n
    above it; the start below also picks that lane's end.
    """
    # below: sum_{k>=2} 1/k**2 = pi**2/6 - 1 - psi1(n+1) frozen; then
    # x = u**2 and v = 1 - u**2 solve quadratics, and t runs from u = 0 or
    # from u = 1, whichever the start is nearer
    frozen = 1.0 + e_sq * (math.pi**2 / 6.0 - 1.0 - psi1(n + 1.0))
    disc = math.sqrt((frozen - b * b) ** 2 + e_sq * (2.0 * (frozen + b * b) + e_sq))
    x = 2.0 * b * b / (frozen + e_sq + b * b + disc)
    if x < 0.25:
        low, origin, direction = math.sqrt(x), 0.0, 1.0
    else:
        v = _positive_root(frozen, e_sq + b * b - frozen, e_sq)
        low, origin, direction = v / (1.0 + math.sqrt(1.0 - v)), 1.0, -1.0
    # above: n**2 * sum_{k<n} 1/(k**2 - n**2) = -n*(psi(2n) - psi(1) - 1/n)/2
    # frozen; then y = u**2 - n**2 solves a quadratic.  Above
    # 2*max(n**2, b**2 + 2*e**2*n) h is negative, since u**2/(u**2 - k**2)
    # <= 2 there bounds the sum
    frozen = -0.5 * n * (psi(2.0 * n) - psi(1.0) - 1.0 / n)
    y = _positive_root(1.0, n * n - b * b + e_sq * (frozen - 1.0), e_sq * n * n)
    top = math.sqrt(2.0 * max(n * n, b * b + 2.0 * e_sq * n)) - n
    high = min(y / (n + math.sqrt(n * n + y)), top)

    k = np.arange(1.0, n + 1)
    origin = np.array([origin, n])
    direction = np.array([direction, 1.0])
    p = np.array([1.0, n])
    side = np.array([1.0, -1.0])                 # sign of p - u in the gap
    rest = np.stack((k[1:], k[:-1]))             # the ladder without p
    rel = rest - origin[:, None]

    def f(t, lanes):
        pl, sl, step = p[lanes], side[lanes], direction[lanes] * t
        u = origin[lanes] + step
        gap = (rel[lanes] - step[:, None]) * (rest[lanes] + u[:, None])  # k**2 - u**2
        r = b * b - u * u - e_sq * u * u * np.sum(1.0 / gap, axis=1)
        dr = -2.0 * u - 2.0 * e_sq * u * np.sum(rest[lanes] ** 2 / gap**2, axis=1)
        dist = sl * ((pl - origin[lanes]) - step)
        pole = e_sq * u * u / (pl + u)
        dpole = e_sq * u * (2.0 * pl + u) / (pl + u) ** 2
        # |p - u|*h(u) = dist*r - side*pole, oriented to fall with t
        return direction[lanes] * (dist * r - sl * pole), dist * dr - sl * (r + dpole)

    t = _bracketed_roots(f, [low, high], [0.0, 0.0], [1.0, top])
    u = origin + direction * t
    gap = ((k - origin[:, None]) - (direction * t)[:, None]) * (k + u[:, None])
    return u, 1.0 / (1.0 + e_sq * np.sum(k * k / gap**2, axis=1))


# ---------------------------------------------------------------------------
# cavity (infinite ladder) route
# ---------------------------------------------------------------------------

_VARIANT_CONSTANTS = {"paper": 1.0, "rederived": 2.0}
# cot(s) - 1/s = sum_n _COT_TAYLOR[n] * s**(2n+1), the coefficients being
# -2*zeta(2n+2)/pi**(2n+2) (A&S 4.3.70); twelve terms reach 1e-19
# relative at s = 0.5, below which the series replaces the difference.
_COT_TAYLOR = (
    -0.3333333333333333, -0.022222222222222223, -0.0021164021164021165,
    -0.00021164021164021165, -2.1377799155576935e-05, -2.1644042808063972e-06,
    -2.1925947851873778e-07, -2.2214608789979678e-08, -2.2507846516808994e-09,
    -2.2805151204592183e-10, -2.3106432599002624e-11, -2.3411706819824882e-12,
)
_COT_TAYLOR_EDGE = 0.5


def _cot_minus_inverse(s):
    """cot(s) - 1/s and its derivative, free of cancellation at small s."""
    s2 = s * s
    val = 0.0
    der = 0.0
    for n in range(len(_COT_TAYLOR) - 1, -1, -1):
        val = val * s2 + _COT_TAYLOR[n]
        der = der * s2 + (2 * n + 1) * _COT_TAYLOR[n]
    small = s < _COT_TAYLOR_EDGE
    sin = np.sin(s)
    return (np.where(small, val * s, np.cos(s) / sin - 1.0 / s),
            np.where(small, der, 1.0 / s2 - 1.0 / sin**2))


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
    s = x - k*pi by the kernel of the finite route, to 1e-13 relative in s.
    Branches k >= 1 solve s = arccot(x/(pi*delta) + C/(2x)) from the start
    arccot(A(k*pi)).  Branch 0 solves the secular function itself, written
    as (cot(s) - 1/s) + (1 - C/2)/s - s/(pi*delta) with 1 - C/2 formed from
    its exact parts, so the two 1/s terms never cancel in rounding.  The
    solve is O(k_max) in time and memory, and k_max above 10**6 (about
    0.4 s and 0.14 GB) raises InputError before any work starts.
    """
    if variant not in _VARIANT_CONSTANTS:
        raise InputError(f"variant must be 'paper' or 'rederived', got {variant!r}")
    k_max = _count("k_max", k_max, 0)
    if k_max > _MAX_K:
        raise InputError(f"k_max is capped at {_MAX_K}, got {k_max}")
    d = derive_parameters(spec)
    delta = d.delta
    # C's delta/(pi*beta**2) needs beta**2 above 0
    if d.beta**2 == 0.0:
        raise _past_double(ModeSource.CAVITY_CLOSED_FORM, d)
    base = _VARIANT_CONSTANTS[variant]
    slope = 1.0 / (math.pi * delta)
    c_const = base - 2.0 * delta / (math.pi * d.beta**2)
    # 1 - C/2, exactly as its two parts
    c_zero = (1.0 - 0.5 * base) + delta / (math.pi * d.beta**2)

    def branch_zero(s, _lanes=None):
        cot, dcot = _cot_minus_inverse(s)
        return cot + c_zero / s - slope * s, dcot - c_zero / (s * s) - slope

    # start: s*cot(s) ~ 1 - (pi**2/3)*s**2/(pi**2 - s**2), exact at both
    # ends of the branch to leading order, turns s*f(s) = 0 into a
    # quadratic in s**2 whose smaller root lies in (0, pi**2)
    mid = math.pi**2 / 3.0 + c_zero + math.pi / delta
    x0 = 2.0 * c_zero * math.pi**2 / (mid + math.sqrt(mid * mid - 4.0 * c_zero * math.pi / delta))
    s = np.empty(k_max + 1)
    s[:1] = _bracketed_roots(branch_zero, [math.sqrt(x0)], [0.0], [math.pi])
    if k_max:
        k_pi = math.pi * np.arange(1, k_max + 1, dtype=float)

        def collapse(t, lanes=slice(None)):
            x = k_pi[lanes] + t
            return slope * x + c_const / (2.0 * x), slope - c_const / (2.0 * x * x)

        s[1:] = _arccot_roots(collapse, np.arctan2(1.0, collapse(0.0)[0]), 1.0, math.pi)
    x = math.pi * np.arange(k_max + 1, dtype=float) + s
    # each mode's particle weight: the discrete (t_0^r)**2 evaluated with
    # the cotangent-collapsed level sums, in units of bar_omega
    w = (2.0 * spec.light_speed / spec.cavity_L / spec.bar_omega) * x
    om_sq, eta_sq = w**2, (d.eta / spec.bar_omega) ** 2
    weights = eta_sq * om_sq / (
        (om_sq - 1.0) ** 2 + 0.5 * eta_sq * (3.0 * om_sq - 1.0)
        + (math.pi * d.beta) ** 2 * om_sq)
    return _route_modes(ModeSource.CAVITY_CLOSED_FORM, spec, d, spec.bar_omega * w, weights)


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
    # the root in a form that never divides by beta**2, which underflows
    # below beta ~ 1e-154
    full = 0.5 * beta * (math.pi * beta + math.sqrt((math.pi * beta) ** 2 + 4.0))
    return SmallnessFactors(
        full=full,
        weak_limit=beta,
        strong_limit=0.5 * math.pi * beta**2,
    )


def approx_small_L_spectrum(
    spec: OhmicSystemSpec, k_max: int = 10000, regime: str = "weak"
) -> NormalModeSet:
    """First-order small-cavity modes with their particle weights.

    The lowest mode drops to omega_0 = bar_omega/sqrt(1 + pi*delta) and
    ladder mode k = 1..k_max shifts to (k + epsilon_k)*delta_omega with

        epsilon_k = (delta/pi) * k / (k**2 - rho**2),    rho = bar_omega*L/(2*pi*c).

    The lowest mode keeps almost all of the particle: w0 = 1 - pi*delta in
    the weak-coupling ``regime``, w0 = 1/(1 + pi*delta/2) in the strong
    one.  Every ladder mode k carries w_k = 2*delta/(pi*k**2) in both.

    Requires the bath spacing to clear the particle frequency (rho < 1,
    equivalently delta < pi*beta), else the displaced ladder would not
    stay ordered, and pi*delta < 1: past it the weak w0 is not positive
    and the strong weights sum above 1.  Warns when delta exceeds a tenth
    of the validity factor, and once delta passes 0.05, where the dropped
    delta**2 terms of the weights reach the percent scale, instead of
    failing: the formulas stay evaluable, just increasingly unfaithful.
    k_max above 10**6 raises InputError before any array is built.
    """
    if regime not in ("weak", "strong"):
        raise InputError(f"regime must be 'weak' or 'strong', got {regime!r}")
    k_max = _count("k_max", k_max, 1)
    if k_max > _MAX_K:
        raise InputError(f"k_max is capped at {_MAX_K}, got {k_max}")
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
        raise InputError(
            "small-cavity ladder needs the mode spacing 2*pi*c/L to exceed "
            f"bar_omega (got ratio {rho:.6g} >= 1)"
        )
    k = np.arange(1, k_max + 1, dtype=float)
    gap = k**2 - rho**2
    if np.any(np.abs(gap) <= 1e-12 * k**2):
        raise NumericalFailure("a ladder mode sits exactly on the particle resonance")
    eps = (d.delta / math.pi) * k / gap
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise InputError("mode displacements left (0, 1); delta is too large")
    if d.delta > 0.05:
        warnings.warn(
            f"delta = {d.delta:.6g} > 0.05: first-order cavity weights are "
            "only indicative here",
            stacklevel=2,
        )
    if math.pi * d.delta >= 1.0:
        raise InputError(
            "first-order cavity weights need pi*delta < 1 "
            f"(got pi*delta = {math.pi * d.delta:.6g})"
        )
    if regime == "weak":
        w0 = 1.0 - math.pi * d.delta
    else:
        w0 = 1.0 / (1.0 + 0.5 * math.pi * d.delta)
    return NormalModeSet(
        frequencies=np.concatenate(
            ([spec.bar_omega / math.sqrt(1.0 + math.pi * d.delta)],
             d.delta_omega * (k + eps))
        ),
        weights=np.concatenate(([w0], 2.0 * d.delta / (math.pi * k**2))),
        source=ModeSource.SMALL_L_ASYMPTOTIC,
        spec_snapshot=spec,
    )


# ---------------------------------------------------------------------------
# series identity audit
# ---------------------------------------------------------------------------

def cot_series_closed_form(u: float) -> float:
    """Closed form of sum_{k>=1} 1/(k**2 - u**2) for non-integer u.

    Equals 1/(2u**2) - pi*cot(pi*u)/(2u) = -(pi/(2|u|))*(cot(pi|u|) - 1/(pi|u|)),
    with the bracket from the cavity route's own cot(s) - 1/s, which sums its
    Taylor series below s = 0.5 instead of cancelling 1/s; so the value keeps
    its digits as u -> 0, where it tends to pi**2/6.
    """
    u = float(u)
    if not math.isfinite(u):
        raise InputError("u must be finite")
    nearest = round(u)
    if nearest != 0 and abs(u - nearest) < 1e-12:
        raise NumericalFailure(f"u = {u!r} sits on a pole of the series")
    s = math.pi * abs(u)
    if s < 1e-9:
        # the u**2 term, (pi**4/90)*u**2, is below rounding of pi**2/6
        return math.pi**2 / 6.0
    return float(-0.5 * math.pi * _cot_minus_inverse(s)[0] / abs(u))


def series_identity_residual(u: float, n_terms: int = 1_000_000) -> float:
    """|partial sum - closed form| of the cotangent series at u in (0, 1).

    The truncation tail is ~1/n_terms, so the residual measures exactly
    that; it is the direct audit that the cotangent collapse used by the
    cavity route is numerically sound.  n_terms above 10**8 (about 1.3 s)
    raises InputError before any term is summed.
    """
    u = float(u)
    if not (1e-6 < u < 1.0 - 1e-6):
        raise InputError("u must lie in (0, 1) at least 1e-6 away from the ends")
    n_terms = _count("n_terms", n_terms, 1)
    if n_terms > _MAX_SERIES_TERMS:
        raise InputError(f"n_terms is capped at {_MAX_SERIES_TERMS}, got {n_terms}")
    total = 0.0
    chunk = 5_000_000
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk - 1, n_terms)
        k = np.arange(start, stop + 1, dtype=float)
        total += float(np.sum(1.0 / (k * k - u * u)))
    return abs(total - cot_series_closed_form(u))
