"""Dense-matrix oracle and cross-route validation.

Everything else in the package computes spectra and amplitudes from
root-finding on secular functions.  This module goes the brute-force way:
build the (N+1) x (N+1) potential matrix M and its exact factor C, with
M = C^T C, and diagonalize by one-sided (Hestenes) Jacobi on C.  Jacobi is
chosen over a Householder tridiagonalization on purpose.  Working on C
never forms the rounded omega0**2 = bar_omega**2 + N*eta**2, and with a
relative rotation threshold one-sided Jacobi computes the small
eigenvalues of this graded problem (entries span many orders of magnitude
once N or the coupling is large) to high relative accuracy (Demmel and
Veselic 1992), which the 1e-10 cross-checks need.  A round-robin pair
order (Brent and Luk 1985) rotates floor(n/2) disjoint column pairs at
once, so each step is one pass of numpy arithmetic.  Its simplicity keeps
it an independent witness rather than a re-derivation.

``cross_validate`` runs the full battery of cross-route checks and returns
a deterministic plain-text report; it never aborts on a failing check,
it aggregates.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import amplitudes as _amp
from . import spectrum as _spectrum
from . import transform as _transform
from .errors import DressedBathError, InputError, NumericalFailure
from .model import LIGHT_SPEED_SI, OhmicSystemSpec, _spec_text, derive_parameters

__all__ = [
    "PotentialMatrix",
    "CheckResult",
    "ValidationReport",
    "build_potential_matrix",
    "eigen_decompose",
    "cross_validate",
]

_REL_ROTATE_THRESHOLD = 1e-15
_MAX_SWEEPS = 100
_MAX_DENSE_MODES = 400


@dataclass(frozen=True, eq=False)
class PotentialMatrix:
    """Symmetric positive-definite quadratic form of the coupled system.

    ``factor`` is a square C with C^T C = ``entries`` whose entries are
    exact inputs rather than rounded products; the eigensolver works on it.
    ``build_potential_matrix`` gives C/bar_omega and M/bar_omega**2.
    """

    entries: np.ndarray
    factor: np.ndarray

    def __post_init__(self) -> None:
        m = _spectrum._frozen_square("potential matrix", self.entries)
        if not np.array_equal(m, m.T):
            raise InputError("potential matrix must be exactly symmetric")
        c = _spectrum._frozen_square("factor", self.factor)
        if c.shape != m.shape:
            raise InputError("factor must have the dimension of the potential matrix")
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "factor", c)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def build_potential_matrix(spec: OhmicSystemSpec) -> PotentialMatrix:
    """[[omega0**2, -c_k], [-c_k, diag(omega_k**2)]] for the finite bath.

    Every frequency is in units of bar_omega, so the route is scale-free
    (absolute eigenvalues would underflow below bar_omega ~ 1e-154).  The
    factor C = [[1, 0], [eta, -diag(omega_k)]] is built from the inputs
    themselves: omega0**2 = 1 + N*eta**2 is never rounded on this route,
    which the lowest mode at strong coupling needs.  Both arrays are
    (N+1)**2 and the Jacobi sweeps cost O(N**3), so n_modes above 400
    raises InputError before anything is allocated.
    """
    n = spec.n_modes
    if n > _MAX_DENSE_MODES:
        raise InputError(f"dense oracle capped at n_modes = {_MAX_DENSE_MODES}")
    d = derive_parameters(spec)
    k = np.arange(1, n + 1)
    c = np.zeros((n + 1, n + 1))
    c[0, 0] = 1.0
    c[1:, 0] = d.eta / spec.bar_omega
    c[k, k] = -(d.delta_omega / spec.bar_omega) * k
    m = np.zeros((n + 1, n + 1))
    m[0, 0] = (d.omega0 / spec.bar_omega) ** 2
    m[k, k] = c[k, k] ** 2
    m[0, 1:] = m[1:, 0] = c[1:, 0] * c[k, k]
    return PotentialMatrix(entries=m, factor=c)


def eigen_decompose(matrix: PotentialMatrix):
    """One-sided (Hestenes) Jacobi on the factor C of M = C^T C.

    Rotates pairs of columns of C until they are mutually orthogonal:
    C V = U diag(sigma), so M = V diag(sigma**2) V^T.  The eigenvalues are
    the squared final column norms and never pass through a rounded M,
    which keeps the small ones accurate to high relative precision
    (Demmel and Veselic 1992).  Each sweep visits every pair once in the
    round-robin order of Brent and Luk (1985): an odd dimension gets a
    zero column, which never rotates, and then m columns make m/2 disjoint
    pairs that rotate together in each of m - 1 steps.  A pair rotates
    while its inner product exceeds 1e-15 times the product of its norms;
    a sweep without rotations means convergence.  Every reduction is
    elementwise, so the bytes do not depend on BLAS threading.

    Returns (eigenvalues ascending, eigenvectors as columns), eigenvector
    signs fixed so the first nonvanishing component is positive; from
    ``build_potential_matrix`` the eigenvalues are Omega_r**2/bar_omega**2.  Raises
    NumericalFailure if 100 sweeps do not converge or the off-diagonal
    mass of V^T M V exceeds 1e-12 * ||M||.
    """
    n = matrix.dim
    m = n + n % 2
    h = m // 2
    # row j holds column j of C, then column j of V (V starts as I); the
    # top half of the rows pairs with the bottom half, row i with row h + i
    w = np.zeros((m, 2 * n))
    w[:n, :n] = matrix.factor.T
    w[np.arange(n), n + np.arange(n)] = 1.0
    # one round-robin step: row 0 stays and every other row moves one
    # place around the ring; m - 1 steps bring every row home.  With two
    # rows there is one pair and nothing moves.
    ring = np.r_[0, h, 1:h - 1, h + 1:m, h - 1] if m > 2 else np.arange(m)
    moved = np.empty_like(w)
    sin_y = np.empty((h, 2 * n))
    sin_x = np.empty((h, 2 * n))
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for _ in range(m - 1):
            cols = w[:, :n]
            norms = np.einsum("ij,ij->i", cols, cols)
            a, b = norms[:h], norms[h:]
            g = np.einsum("ij,ij->i", cols[:h], cols[h:])
            rotate = np.abs(g) > _REL_ROTATE_THRESHOLD * np.sqrt(a * b)
            if rotate.any():
                rotated = True
                # a pair left alone gets t = 0, so c = 1, s = 0 exactly
                tau = (b - a) / (2.0 * np.where(rotate, g, 1.0))
                t = np.where(
                    rotate,
                    np.copysign(1.0, tau) / (np.abs(tau) + np.sqrt(1.0 + tau * tau)),
                    0.0,
                )
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = t[:, None] * c
                x, y = w[:h], w[h:]
                np.multiply(s, y, out=sin_y)
                np.multiply(s, x, out=sin_x)
                x *= c
                x -= sin_y
                y *= c
                y += sin_x
            # every index is in range, and mode="clip" lets take write
            # straight into `moved` where the default mode buffers
            np.take(w, ring, axis=0, out=moved, mode="clip")
            w, moved = moved, w
        if not rotated:
            break
    else:
        raise NumericalFailure("Jacobi did not converge within 100 sweeps")

    cols = w[:n, :n]
    eigvals = np.einsum("ij,ij->i", cols, cols)
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    vecs = w[:n, n:].T[:, order]
    first = vecs[np.argmax(vecs != 0.0, axis=0), np.arange(n)]
    vecs *= np.where(first < 0.0, -1.0, 1.0)
    # a pass/fail check only, so its matmuls may use BLAS
    off = vecs.T @ matrix.entries @ vecs
    off[np.diag_indices(n)] = 0.0
    if np.linalg.norm(off) > 1e-12 * np.linalg.norm(matrix.entries):
        raise NumericalFailure("Jacobi residual off-diagonal mass exceeds 1e-12")
    return eigvals, vecs


# ---------------------------------------------------------------------------
# cross-route validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    computed: float
    reference: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            math.isfinite(self.computed)
            and abs(self.computed - self.reference) <= self.tolerance
        )


@dataclass(frozen=True)
class ValidationReport:
    spec: OhmicSystemSpec
    checks: tuple
    notes: tuple

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_text(self) -> str:
        lines = ["validation report", f"spec: {_spec_text(self.spec)}"]
        for check in self.checks:
            status = "pass" if check.passed else "FAIL"
            lines.append(
                f"check {check.name}: computed={check.computed:.6e} "
                f"reference={check.reference:.6e} "
                f"tolerance={check.tolerance:.6e} -> {status}"
            )
        for note in self.notes:
            lines.append(f"note: {note}")
        n_failed = sum(not check.passed for check in self.checks)
        lines.append(
            "result: all checks passed" if n_failed == 0
            else f"result: {n_failed} check(s) failed"
        )
        return "\n".join(lines) + "\n"


def _guarded(checks, notes, name, reference, tolerance, fn):
    try:
        computed = float(fn())
    except DressedBathError as exc:
        computed = math.nan
        notes.append(f"check {name} raised {type(exc).__name__}: {exc}")
    checks.append(
        CheckResult(name=name, computed=computed, reference=reference, tolerance=tolerance)
    )


def cross_validate(spec: OhmicSystemSpec) -> ValidationReport:
    """Run every cross-route consistency check on one spec.

    Checks (deviations unless stated): finite spectrum vs dense Jacobi,
    transform matrix vs dense eigenvectors, the t = 0 sum rule, closed form
    vs quadrature amplitude, the branch-cut power-law tail, the cotangent
    constant adjudication against a 400-mode bath, and the worst-case
    cavity survival bound at delta = 0.005.  A failing or raising check is
    recorded, never fatal.
    """
    if spec.n_modes > _MAX_DENSE_MODES:
        raise InputError(f"cross_validate is capped at n_modes = {_MAX_DENSE_MODES}")
    checks: list = []
    notes: list = []
    d = derive_parameters(spec)

    # each route is solved once per spec and shared by every check that
    # reads it; functools.cache stores no exception, so a raising route
    # raises again in, and is recorded by, each of those checks
    @functools.cache
    def dense():
        return eigen_decompose(build_potential_matrix(spec))

    finite = functools.cache(_spectrum.solve_finite_spectrum)

    @functools.cache
    def cavity(variant):
        return _spectrum.solve_cavity_spectrum(spec, k_max=50, variant=variant)

    def check_spectrum():
        eigvals, _ = dense()   # in units of bar_omega**2
        return np.max(np.abs(finite(spec).frequencies / spec.bar_omega / np.sqrt(eigvals) - 1.0))

    _guarded(checks, notes, "finite spectrum vs dense eigensolve", 0.0, 1e-10,
             check_spectrum)

    def check_matrix():
        _, vecs = dense()
        tm = _transform.finite_matrix(spec, finite(spec))
        return np.max(np.abs(tm.entries - vecs))

    _guarded(checks, notes, "transform matrix vs dense eigenvectors", 0.0, 1e-9,
             check_matrix)

    def check_sum_rule():
        ms = finite(spec)
        series = _amp.f00_discrete(ms, ms.weights, np.array([0.0]))
        return abs(abs(series.values[0]) ** 2 - 1.0)

    _guarded(checks, notes, "t=0 sum rule", 0.0, 1e-10, check_sum_rule)

    def check_amplitude_routes():
        t_grid = np.concatenate(
            (np.geomspace(0.01, 1.0, 10), np.linspace(1.5, 20.0, 15))
        ) / spec.bar_omega
        closed = _amp.f00_closed(spec, t_grid)
        quad = _amp.f00_quadrature(spec, t_grid)
        return np.max(np.abs(closed.values - quad.values))

    _guarded(checks, notes, "closed form vs quadrature amplitude", 0.0, 1e-6,
             check_amplitude_routes)

    def check_tail():
        # the 1/tau**2 correction to J ~ 4 beta/tau**3, tau = bar_omega*t,
        # scales with |pi**2 beta**2 - 2|; push tau out until it is below 1e-3.
        scale = math.sqrt(12.0 * abs(math.pi**2 * d.beta**2 - 2.0) / 1e-3)
        tau = max(200.0, scale)
        j_val = _amp.bath_integral_J(spec, tau / spec.bar_omega)
        try:
            return abs(j_val * tau**3 / (4.0 * d.beta) - 1.0)
        except OverflowError:
            raise NumericalFailure(f"tau**3 at tau = {tau:.3g} leaves double precision "
                                   f"at beta = {d.beta:.6g}") from None

    _guarded(checks, notes, "branch-cut power-law tail", 0.0, 5e-3, check_tail)

    def check_variants():
        # gated on the rederived gap alone; the note names a published refusal
        wide = finite(replace(spec, n_modes=400)).frequencies[:40]

        def gap(variant):
            return float(np.max(np.abs(cavity(variant).frequencies[:40] / wide - 1.0)))

        rederived = gap("rederived")
        try:
            published = f"{gap('paper'):.3e}"
        except DressedBathError as exc:
            published = f"refused ({type(exc).__name__}: {exc})"
        notes.append(
            "cotangent constant adjudication vs 400-mode bath: rederived "
            f"variant max relative gap {rederived:.3e}, published variant {published}"
        )
        return rederived

    _guarded(checks, notes, "cavity cotangent constant vs finite bath", 0.0, 1e-3,
             check_variants)

    def check_bound():
        return _amp.cavity_min_bound(0.005, "weak").min_probability

    _guarded(checks, notes, "worst-case cavity survival bound at delta=0.005",
             0.9742, 1e-4, check_bound)

    try:
        exact = cavity("rederived")
        with warnings.catch_warnings():
            # the note itself reports how far the first-order form drifts
            warnings.simplefilter("ignore")
            approx = _spectrum.approx_small_L_spectrum(spec, k_max=50)
        notes.append(
            "lowest cavity mode: exact cotangent (rederived) gives "
            f"Omega0/bar_omega = {exact.frequencies[0] / spec.bar_omega:.6f}, "
            f"first-order small-cavity form gives {approx.frequencies[0] / spec.bar_omega:.6f}"
        )
    except DressedBathError:
        pass

    delta_max = _amp.solve_delta_max("strong")
    ceiling = 2.0 * LIGHT_SPEED_SI * delta_max / (10.0 * 4e14)
    notes.append(
        "strong-coupling cavity ceiling at a red-visible frequency "
        f"(4e14 rad/s, beta = 10) computes to {ceiling:.4e} m, about half "
        "the commonly quoted 1.1e-07 m; recorded for reference, not gated"
    )

    return ValidationReport(spec=spec, checks=tuple(checks), notes=tuple(notes))
