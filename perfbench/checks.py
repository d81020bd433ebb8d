"""Correctness checks computed apart from the package under test.

Nothing here calls into ``dressedbath``: every reference comes from the
task's own parameters (bar_omega = 1, light_speed = 1, so g = beta and
L = 2 * delta / beta), from identities of the model, from
``numpy.linalg.eigvalsh`` on a matrix built here, from ``math.fsum``
sums, or from QUADPACK's Fourier-integral routines in scipy.  Each check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math
import warnings
from decimal import Decimal

import numpy as np
from scipy import integrate

PI_DEC = Decimal("3.14159265358979323846264338327950288419716939937510")
EPS = float(np.finfo(float).eps)

# bar_omega = 1: kappa_sq = 1 - (pi*g/2)**2 within this band is the
# critically damped point (the package's documented CRITICAL_TOLERANCE).
CRITICAL_BAND = 1e-9
CONTINUUM_TOL = 1e-8


def _fail(fails, ok, message):
    if not ok:
        fails.append(message)
    return ok


def _ladder(beta, delta, n):
    # same float steps as OhmicSystemSpec.from_dimensionless / derive_parameters
    g = beta * 1.0
    length = 2.0 * 1.0 * delta / g
    d_omega = 2.0 * math.pi * 1.0 / length
    return g, length, d_omega, d_omega * np.arange(1, n + 1)


def _fsum_phase(weights, freq, t):
    phase = freq * t
    return complex(math.fsum((weights * np.cos(phase)).tolist()),
                   -math.fsum((weights * np.sin(phase)).tolist()))


# ---------------------------------------------------------------------------
# finite-N spectra and transforms
# ---------------------------------------------------------------------------

def finite_modes(beta, delta, n, freq, weights, eig=False):
    """Interlacing, trace, determinant and sum-rule identities.

    With ``eig`` also compares Omega**2 with eigvalsh of the potential
    matrix [[omega0**2, -c_k], [-c_k, diag(omega_k**2)]], within LAPACK's
    bound eps*||M||*(N+1) plus the solver's stated 1e-12 relative polish.
    """
    fails = []
    freq = np.asarray(freq, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not _fail(fails, freq.shape == (n + 1,) and weights.shape == (n + 1,),
                 f"expected {n + 1} modes, got {freq.shape} / {weights.shape}"):
        return fails
    if not _fail(fails, bool(np.all(np.isfinite(freq)) and np.all(freq > 0)
                             and np.all(weights > 0)),
                 "non-finite or non-positive mode data"):
        return fails
    g, _, d_omega, omega_k = _ladder(beta, delta, n)
    _fail(fails, bool(np.all(freq[:-1] < omega_k) and np.all(omega_k < freq[1:])),
          "normal modes do not interlace with the bath ladder")
    lam = freq**2
    eta_sq = 2.0 * g * d_omega
    omega0_sq = 1.0 + n * eta_sq
    trace_gap = math.fsum(lam.tolist()) - (omega0_sq + math.fsum((omega_k**2).tolist()))
    _fail(fails, abs(trace_gap) <= 1e-10 * math.fsum(lam.tolist()),
          f"trace identity misses by {trace_gap:.3e}")
    det_gap = math.fsum(np.log(lam).tolist()) - math.fsum(np.log(omega_k**2).tolist())
    _fail(fails, abs(det_gap) <= 1e-9, f"determinant identity misses by {det_gap:.3e}")
    w_gap = math.fsum(weights.tolist()) - 1.0
    _fail(fails, abs(w_gap) <= 1e-9, f"weight sum rule misses by {w_gap:.3e}")
    if eig:
        m = np.diag(np.concatenate(([omega0_sq], omega_k**2)))
        m[0, 1:] = m[1:, 0] = -math.sqrt(eta_sq) * omega_k
        ref = np.linalg.eigvalsh(m)
        bound = EPS * np.max(np.abs(ref)) * (n + 1) + 1e-12 * lam
        worst = np.max(np.abs(ref - lam) / bound)
        _fail(fails, worst <= 1.0, f"eigvalsh gap is {worst:.3g} x its error bound")
    return fails


def discrete_amplitude(freq, weights, times, values, sample_idx):
    """f00(0) = sum of weights, |f00| <= that sum, fsum phase sums at samples."""
    fails = []
    total = math.fsum(np.asarray(weights).tolist())
    _fail(fails, values.shape == times.shape, "amplitude grid has the wrong length")
    _fail(fails, abs(values[0] - total) <= 1e-12, f"f00(0) = {values[0]!r} != sum w")
    _fail(fails, bool(np.all(np.abs(values) <= total + 1e-12)), "|f00| exceeds sum w")
    for i in sample_idx:
        ref = _fsum_phase(weights, freq, times[i])
        _fail(fails, abs(values[i] - ref) <= 1e-11,
              f"f00({times[i]:.6g}) misses the direct sum by {abs(values[i] - ref):.3e}")
    return fails


def transform_matrix(matrix, weights):
    """Orthonormal columns, and squared first row equal to the weights."""
    fails = []
    n1 = weights.size
    if not _fail(fails, matrix.shape == (n1, n1), f"transform shape {matrix.shape}"):
        return fails
    gram = np.max(np.abs(matrix.T @ matrix - np.eye(n1)))
    _fail(fails, gram <= 1e-10, f"transform columns miss orthonormality by {gram:.3e}")
    row = np.max(np.abs(matrix[0] ** 2 - weights))
    _fail(fails, row <= 1e-12, f"squared first row misses the weights by {row:.3e}")
    return fails


# ---------------------------------------------------------------------------
# cavity ladder
# ---------------------------------------------------------------------------

def cavity_modes(beta, delta, k_max, freq, weights, sample_idx):
    """One root per branch (k*pi, (k+1)*pi); the rederived cotangent
    condition changes sign across each sampled root."""
    fails = []
    freq = np.asarray(freq, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not _fail(fails, freq.shape == (k_max + 1,) and weights.shape == freq.shape,
                 f"expected {k_max + 1} cavity modes, got {freq.shape}"):
        return fails
    if not _fail(fails, bool(np.all(np.isfinite(weights)) and np.all(weights > 0)),
                 "cavity weights must be positive"):
        return fails
    length = 2.0 * delta / beta
    x = freq * (length / 2.0)
    branch = np.floor(x / math.pi)
    if not _fail(fails, bool(np.array_equal(branch, np.arange(k_max + 1))),
                 "cavity roots are not one per branch"):
        return fails
    c_const = 2.0 - 2.0 * delta / (math.pi * beta**2)
    for k in sample_idx:
        xk = float(x[k])
        s = float(Decimal(xk) - k * PI_DEC)
        h = max(1e-7 * s, 16.0 * math.ulp(xk))

        def cond(ds):
            return (1.0 / math.tan(s + ds) - (xk + ds) / (math.pi * delta)
                    - c_const / (2.0 * (xk + ds)))

        ok = 0.0 < s - h and s + h < math.pi and cond(-h) > 0.0 > cond(h)
        _fail(fails, ok, f"cotangent condition has no sign change at branch {k}")
    return fails


def survival_curve(freq, weights, times, curve, sample_idx):
    """Survival probability against direct fsum phase sums at samples."""
    fails = []
    total = math.fsum(np.asarray(weights).tolist())
    _fail(fails, curve.shape == times.shape, "survival grid has the wrong length")
    _fail(fails, bool(np.all(curve >= 0.0) and np.all(curve <= total**2 + 1e-12)),
          "survival probability outside [0, (sum w)**2]")
    for i in sample_idx:
        ref = abs(_fsum_phase(weights, freq, times[i])) ** 2
        _fail(fails, abs(curve[i] - ref) <= 1e-11,
              f"survival at t={times[i]:.6g} misses the direct sum by "
              f"{abs(curve[i] - ref):.3e}")
    return fails


# ---------------------------------------------------------------------------
# continuum amplitude
# ---------------------------------------------------------------------------

def f00_reference(beta, t):
    """f00(t) = int_0^inf W(w) exp(-i w t) dw by QUADPACK (QAWO + QAWF).

    W(w) = 2 g w**2 / ((w**2 - 1)**2 + (pi g w)**2) with g = beta.  The
    resonance head is split at multiples of its half-width a = pi g / 2 so
    the adaptive rule sees the peak; the tail is a Fourier integral on
    [w_top, inf).
    """
    if t == 0.0:
        return 1.0 + 0.0j
    g = beta
    a = 0.5 * math.pi * g

    def density(w):
        return 2.0 * g * w * w / ((w * w - 1.0) ** 2 + (math.pi * g * w) ** 2)

    w_top = 4.0 + 8.0 * a
    edges = sorted({min(max(e, 0.0), w_top) for e in
                    (0.0, 1.0 - 8.0 * a, 1.0 - a, 1.0, 1.0 + a, 1.0 + 8.0 * a, w_top)})
    parts = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for weight in ("cos", "sin"):
            total = [integrate.quad(density, lo, hi, weight=weight, wvar=t,
                                    epsabs=1e-13, epsrel=1e-12, limit=400)[0]
                     for lo, hi in zip(edges[:-1], edges[1:])]
            total.append(integrate.quad(density, w_top, np.inf, weight=weight, wvar=t,
                                        epsabs=1e-13, limlst=200, limit=400)[0])
            parts.append(math.fsum(total))
    return complex(parts[0], -parts[1])


def _pole_imag(beta, t):
    # imaginary part of the pole term of f00; the branch-cut integral J(t)
    # is the rest of Im f00.  Only the underdamped pole pair has one.
    a = 0.5 * math.pi * beta
    kappa_sq = 1.0 - a * a
    if kappa_sq <= CRITICAL_BAND:
        return 0.0
    kappa = math.sqrt(kappa_sq)
    return -math.exp(-a * t) * (math.sin(kappa * t) + (a / kappa) * math.cos(kappa * t))


def f00_series(name, values, refs, exact_start):
    """f00(0) = 1 (exactly for the closed form), |f00| <= 1, and agreement
    with the reference values `refs` ({grid index: f00}) to 1e-8."""
    fails = []
    start_gap = abs(values[0] - 1.0)
    _fail(fails, start_gap == 0.0 if exact_start else start_gap <= CONTINUUM_TOL,
          f"{name} f00(0) = {values[0]!r}")
    _fail(fails, bool(np.all(np.abs(values) <= 1.0 + 1e-9)), f"|f00| > 1 ({name})")
    for i, ref in refs.items():
        _fail(fails, abs(values[i] - ref) <= CONTINUUM_TOL,
              f"{name} f00 at index {i} misses QUADPACK by {abs(values[i] - ref):.3e}")
    return fails


def brownian_path(path, n_bar, theta, refs):
    """Mean position against sqrt(2 n_bar / bar_omega) Re(exp(-i theta) f00)."""
    fails = []
    scale = math.sqrt(2.0 * n_bar)
    phase = complex(math.cos(theta), -math.sin(theta))
    for i, ref in refs.items():
        expected = scale * (phase * ref).real
        _fail(fails, abs(path[i] - expected) <= CONTINUUM_TOL * scale,
              f"Brownian path at index {i} misses by {abs(path[i] - expected):.3e}")
    return fails


def reference_points(beta, times, sample_idx):
    return {int(i): f00_reference(beta, float(times[i])) for i in sample_idx}


def continuum(task, out, sample_idx):
    """Both f00 routes against QUADPACK, J(t) against Im f00 minus the pole
    term, and the Brownian projection of the quadrature series."""
    times = np.linspace(0.0, task["t_max"], task["samples"])
    quad, closed, j_vals, path = out["quad"], out["closed"], out["J"], out["path"]
    fails = []
    if not _fail(fails, quad.shape == closed.shape == path.shape == times.shape
                 and j_vals.shape == (times.size - 1,), "output grids have wrong lengths"):
        return fails
    refs = reference_points(task["beta"], times, sample_idx)
    fails += f00_series("closed", closed, refs, exact_start=True)
    fails += f00_series("quadrature", quad, refs, exact_start=False)
    fails += brownian_path(path, task["n_bar"], task["theta"], refs)
    for i, ref in refs.items():
        if i > 0:
            pole = _pole_imag(task["beta"], float(times[i]))
            gap = abs(j_vals[i - 1] - (ref.imag - pole))
            _fail(fails, gap <= CONTINUUM_TOL * max(1.0, abs(pole)),
                  f"J at index {i} misses Im f00 minus the pole term by {gap:.3e}")
    return fails


# ---------------------------------------------------------------------------
# in-process task outputs
# ---------------------------------------------------------------------------

def sample_points(rng, n, k=3):
    """Index 0 plus k-1 distinct seeded indices of an n-point grid."""
    return np.concatenate(([0], rng.choice(np.arange(1, n), k - 1, replace=False)))


def task_output(task, out, rng, eig=False):
    """All checks for one in-process task; `rng` picks the sampled points."""
    times = np.linspace(0.0, task["t_max"], task["samples"])
    picks = sample_points(rng, times.size, 4 if task["kind"] == "continuum" else 3)
    if task["kind"] == "finite":
        fails = finite_modes(task["beta"], task["delta"], task["n_modes"],
                             out["freq"], out["weights"], eig=eig)
        if "matrix" in out:
            fails += transform_matrix(out["matrix"], out["weights"])
        fails += discrete_amplitude(out["freq"], out["weights"], times, out["f00"], picks)
        return fails
    if task["kind"] == "cavity":
        k_max = task["k_max"]
        roots = np.unique(np.concatenate(([0, k_max], rng.integers(0, k_max + 1, 6))))
        fails = cavity_modes(task["beta"], task["delta"], k_max, out["freq"],
                             out["weights"], roots)
        fails += survival_curve(out["freq"], out["weights"], times, out["survival"], picks)
        return fails
    return continuum(task, out, picks)
