"""System parameters for a harmonic oscillator coupled to an ohmic bath.

The physical picture: one material oscillator (the "particle") is coupled
bilinearly to N bath oscillators whose frequencies sit on the uniform ladder
omega_k = 2*pi*k*c/L set by a cavity of diameter L.  The ohmic coupling is
c_k = eta*omega_k with eta**2 = 2*g*delta_omega, so a single rate constant g
controls dissipation.  The bare particle frequency picks up a divergent
bath shift; the renormalized frequency ``bar_omega`` is the physical input
and the bare value omega_0**2 = bar_omega**2 + N*eta**2 is derived from it,
which keeps every finite-N problem automatically stable.

Everything in this module is a frozen dataclass or a pure function, so
values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

from .errors import InputError

__all__ = [
    "LIGHT_SPEED_SI",
    "CRITICAL_TOLERANCE",
    "OhmicSystemSpec",
    "DerivedParams",
    "RegimeKind",
    "Regime",
    "derive_parameters",
    "classify_regime",
]

LIGHT_SPEED_SI = 2.99792458e8

# kappa_sq within CRITICAL_TOLERANCE * bar_omega**2 of zero counts as the
# critically damped point; exact zero is measure-zero in floating point.
CRITICAL_TOLERANCE = 1e-9


def _require_positive(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise InputError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class OhmicSystemSpec:
    """Physical inputs of the particle-bath system.

    Parameters
    ----------
    bar_omega : float
        Renormalized particle frequency, rad/s.
    g : float
        Ohmic coupling rate, rad/s.
    cavity_L : float
        Cavity diameter, m.  Sets the bath mode spacing 2*pi*c/L.
    n_modes : int
        Number of bath oscillators used by the finite-N routes.
    light_speed : float
        Propagation speed, m/s.
    hbar : float
        Action scale entering sqrt(hbar/2w) prefactors.  Defaults to 1
        (natural units); set 1.054571817e-34 for SI output.
    """

    bar_omega: float
    g: float
    cavity_L: float
    n_modes: int = 1
    light_speed: float = LIGHT_SPEED_SI
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("bar_omega", self.bar_omega)
        _require_positive("g", self.g)
        _require_positive("cavity_L", self.cavity_L)
        _require_positive("light_speed", self.light_speed)
        _require_positive("hbar", self.hbar)
        if isinstance(self.n_modes, bool) or not isinstance(self.n_modes, int):
            raise InputError(f"n_modes must be an integer, got {self.n_modes!r}")
        if self.n_modes < 1:
            raise InputError(f"n_modes must be >= 1, got {self.n_modes}")

    @classmethod
    def from_dimensionless(
        cls,
        beta: float,
        delta: float,
        bar_omega: float = 1.0,
        n_modes: int = 1,
        light_speed: float = 1.0,
        hbar: float = 1.0,
    ) -> "OhmicSystemSpec":
        """Build a spec from the two dimensionless knobs.

        ``beta = g/bar_omega`` fixes the coupling strength and
        ``delta = L*g/(2c)`` fixes the cavity size, so
        g = beta*bar_omega and L = 2*c*delta/g.
        """
        _require_positive("beta", beta)
        _require_positive("delta", delta)
        g = beta * bar_omega
        cavity_L = 2.0 * light_speed * delta / g
        return cls(
            bar_omega=bar_omega,
            g=g,
            cavity_L=cavity_L,
            n_modes=n_modes,
            light_speed=light_speed,
            hbar=hbar,
        )


def _spec_text(spec: OhmicSystemSpec) -> str:
    # every field as name=value at 17 significant digits, so each
    # round-trips: the CLI's "# spec:" line and the validation report
    return " ".join(f"{f.name}={getattr(spec, f.name):.17g}" for f in fields(spec))


@dataclass(frozen=True)
class DerivedParams:
    """Secondary quantities computed once from an :class:`OhmicSystemSpec`.

    delta_omega is the bath spacing 2*pi*c/L, eta the coupling normalization
    sqrt(2*g*delta_omega), omega0 the bare particle frequency, kappa_sq the
    regime discriminant bar_omega**2 - (pi*g/2)**2, and beta = g/bar_omega,
    delta = L*g/(2c) the two dimensionless control parameters.
    """

    delta_omega: float
    eta: float
    omega0: float
    kappa_sq: float
    beta: float
    delta: float


class RegimeKind(Enum):
    UNDERDAMPED = "underdamped"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


@dataclass(frozen=True)
class Regime:
    """Damping regime: the sign of kappa_sq decides it, kappa_abs = sqrt|kappa_sq|."""

    kind: RegimeKind
    kappa_abs: float


def derive_parameters(spec: OhmicSystemSpec) -> DerivedParams:
    """Compute all derived parameters of a validated spec.

    The construction guarantees omega0**2 - N*eta**2 == bar_omega**2 up to
    rounding, so the renormalized frequency round-trips through the bare one.
    """
    delta_omega = 2.0 * math.pi * spec.light_speed / spec.cavity_L
    eta_sq = 2.0 * spec.g * delta_omega
    omega0 = math.sqrt(spec.bar_omega**2 + spec.n_modes * eta_sq)
    kappa_sq = spec.bar_omega**2 - (math.pi * spec.g) ** 2 / 4.0
    return DerivedParams(
        delta_omega=delta_omega,
        eta=math.sqrt(eta_sq),
        omega0=omega0,
        kappa_sq=kappa_sq,
        beta=spec.g / spec.bar_omega,
        delta=spec.cavity_L * spec.g / (2.0 * spec.light_speed),
    )


def classify_regime(spec: OhmicSystemSpec) -> Regime:
    """Classify the damping regime from the sign of kappa_sq.

    Underdamped for kappa_sq > tol, overdamped for kappa_sq < -tol and
    critical inside the band |kappa_sq| <= tol = CRITICAL_TOLERANCE *
    bar_omega**2.  The band makes the classification scale invariant:
    rescaling (bar_omega, g) by a common factor never flips the kind.
    """
    kappa_sq = derive_parameters(spec).kappa_sq
    tol = CRITICAL_TOLERANCE * spec.bar_omega**2
    if kappa_sq > tol:
        kind = RegimeKind.UNDERDAMPED
    elif kappa_sq < -tol:
        kind = RegimeKind.OVERDAMPED
    else:
        kind = RegimeKind.CRITICAL
    return Regime(kind=kind, kappa_abs=math.sqrt(abs(kappa_sq)))
