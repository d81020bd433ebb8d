"""Orthogonal map between bare coordinates and normal modes.

For the finite problem the full (N+1) x (N+1) transform is built from the
normal-mode frequencies alone: column r is

    t_0^r = [1 + sum_k c_k**2/(omega_k**2 - Omega_r**2)**2]**(-1/2) > 0,
    t_k^r = c_k * t_0^r / (omega_k**2 - Omega_r**2),

which is exactly the eigenvector of the potential matrix for eigenvalue
Omega_r**2, normalized and sign-fixed.  The cavity and small-cavity routes
only ever need the particle row (t_0^r)**2, which their mode sets carry as
weights.

``expansion_coefficient`` gives the overlap of a bare particle Fock level
with a product of normal-mode levels: a square-rooted multinomial times
powers of the particle-row entries.  It is evaluated in log space so large
levels degrade gracefully to zero instead of overflowing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalFailure
from .model import OhmicSystemSpec, _count, derive_parameters
from .spectrum import ModeSource, NormalModeSet, _frozen_square

__all__ = [
    "TransformMatrix",
    "ExpansionCoefficient",
    "finite_matrix",
    "expansion_coefficient",
]

_ORTHO_TOL = 1e-8
# finite_matrix holds the (N+1)**2 matrix, an N x (N+1) gap array and the
# Gram product: 0.76 GB (tracemalloc peak) and 3 s at N = 5000 on a
# 2-core VM
_MAX_MATRIX_MODES = 5000
_MAX_PARTICLE_LEVEL = 20
_LOG_LINEAR_LIMIT = 300.0


@dataclass(frozen=True, eq=False)
class TransformMatrix:
    """Square orthogonal transform; rows are bare coordinates, columns modes."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", _frozen_square("transform entries", self.entries))


@dataclass(frozen=True)
class ExpansionCoefficient:
    """Overlap of particle level n0' with a normal-mode occupation pattern."""

    value: float
    particle_level: int
    occupations: tuple


def finite_matrix(spec: OhmicSystemSpec, modes: NormalModeSet) -> TransformMatrix:
    """Full bare-to-normal transform of the finite-N problem.

    Requires a finite-N mode set holding all N+1 frequencies.  Raises
    NumericalFailure if a normal mode collides with a bath frequency (the
    column formula divides by the gap) or if the built matrix misses
    orthonormality by more than 1e-8.  Memory is O(N**2), so
    n_modes above 5000 raises InputError before anything is allocated.
    """
    if modes.source is not ModeSource.FINITE_N:
        raise InputError("finite_matrix needs a finite-N mode set")
    n = spec.n_modes
    if n > _MAX_MATRIX_MODES:
        raise InputError(
            f"finite_matrix is capped at n_modes = {_MAX_MATRIX_MODES} "
            f"(O(N**2) memory), got {n}"
        )
    if modes.n_modes_total != n + 1:
        raise InputError(
            f"expected {n + 1} modes for n_modes={n}, got {modes.n_modes_total}"
        )
    d = derive_parameters(spec)
    omega_k = d.delta_omega * np.arange(1, n + 1)
    c_k = d.eta * omega_k
    lam = modes.frequencies**2
    gap = omega_k[:, None] ** 2 - lam[None, :]
    if np.any(np.abs(gap) < 1e-12 * omega_k[:, None] ** 2):
        raise NumericalFailure("a normal mode coincides with a bath frequency")
    t0 = 1.0 / np.sqrt(1.0 + np.sum((c_k[:, None] / gap) ** 2, axis=0))
    t = np.empty((n + 1, n + 1))
    t[0, :] = t0
    t[1:, :] = c_k[:, None] * t0[None, :] / gap
    gram_err = np.max(np.abs(t.T @ t - np.eye(n + 1)))
    if gram_err > _ORTHO_TOL:
        raise NumericalFailure(
            f"transform columns miss orthonormality by {gram_err:.3e}"
        )
    # read-only already, so the record keeps it without an O(N**2) copy
    t.setflags(write=False)
    return TransformMatrix(entries=t)


def expansion_coefficient(n0_prime: int, occupations, t0_row) -> ExpansionCoefficient:
    """Overlap of bare particle level n0' with normal-mode levels n_r.

    Value: sqrt(n0'! / prod n_r!) * prod (t_0^r)**n_r when sum n_r = n0',
    zero otherwise.  The magnitude is classified in log space: below
    e**-300 returns exactly 0.0 (documented underflow), above e**300
    raises, and particle levels above 20 are refused outright because the
    factorial route stops being meaningful in double precision there.
    In-range values are then evaluated through the exact integer
    multinomial so exhaustive normalization sums hold to ~1e-15.
    """
    n0_prime = _count("n0_prime", n0_prime, 0)
    if n0_prime > _MAX_PARTICLE_LEVEL:
        raise NumericalFailure(
            f"particle level {n0_prime} exceeds the factorial guard "
            f"({_MAX_PARTICLE_LEVEL})"
        )
    occ = tuple(int(n) for n in occupations)
    if any(n < 0 for n in occ):
        raise InputError("occupations must be nonnegative integers")
    row = np.asarray(t0_row, dtype=float)
    if row.ndim != 1 or len(occ) > row.size:
        raise InputError("need one particle-row entry per occupation")
    if np.any(row < 0.0):
        raise InputError("particle-row entries must be sign-fixed nonnegative")
    if sum(occ) != n0_prime:
        return ExpansionCoefficient(0.0, n0_prime, occ)
    log_mag = 0.5 * math.lgamma(n0_prime + 1)
    for n_r, t_r in zip(occ, row):
        if n_r == 0:
            continue
        if t_r == 0.0:
            return ExpansionCoefficient(0.0, n0_prime, occ)
        log_mag += -0.5 * math.lgamma(n_r + 1) + n_r * math.log(t_r)
    if log_mag <= -_LOG_LINEAR_LIMIT:
        return ExpansionCoefficient(0.0, n0_prime, occ)
    if log_mag >= _LOG_LINEAR_LIMIT:
        raise NumericalFailure("expansion coefficient left the linear-scale window")
    multinomial = math.factorial(n0_prime)
    for n_r in occ:
        multinomial //= math.factorial(n_r)
    value = math.sqrt(float(multinomial))
    for n_r, t_r in zip(occ, row):
        if n_r:
            value *= t_r**n_r
    return ExpansionCoefficient(value, n0_prime, occ)
