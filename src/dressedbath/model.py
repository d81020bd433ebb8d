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
import operator
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

# 1 - (pi*beta/2)**2 within CRITICAL_TOLERANCE of zero (beta = g/bar_omega) is
# the critically damped point; exact zero is measure-zero in floating point.
CRITICAL_TOLERANCE = 1e-9


def _require_positive(name: str, value: float) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{name} must be a real number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise InputError(f"{name} must be positive and finite, got {value!r}")


def _count(name: str, value, least: int) -> int:
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    kind = "positive" if least else "nonnegative"
    raise InputError(f"{name} must be a {kind} integer, got {value!r}")


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
        object.__setattr__(self, "n_modes", _count("n_modes", self.n_modes, 1))
        # so that bar_omega**2, (pi*g)**2 and (pi*g/bar_omega)**2 stay finite
        if not max(self.bar_omega, self.g, self.g / self.bar_omega) <= 1e153:
            raise InputError("bar_omega, g and g/bar_omega are capped at 1e153")

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
    A spec whose derived parameters overflow double precision (a mode
    spacing 2*pi*c/L above 1.8e308, say) raises InputError.
    """
    delta_omega = 2.0 * math.pi * spec.light_speed / spec.cavity_L
    eta_sq = 2.0 * spec.g * delta_omega
    params = DerivedParams(
        delta_omega=delta_omega,
        eta=math.sqrt(eta_sq),
        omega0=math.sqrt(spec.bar_omega**2 + spec.n_modes * eta_sq),
        kappa_sq=spec.bar_omega**2 - (math.pi * spec.g) ** 2 / 4.0,
        beta=spec.g / spec.bar_omega,
        delta=spec.cavity_L * spec.g / (2.0 * spec.light_speed),
    )
    if not all(map(math.isfinite, vars(params).values())):
        raise InputError("the derived parameters of this spec overflow double precision")
    return params


def _damping(beta: float):
    # the regime's kind and kappa in units of bar_omega at beta = g/bar_omega
    kappa_sq = 1.0 - (math.pi * beta) ** 2 / 4.0
    kind = (RegimeKind.CRITICAL if abs(kappa_sq) <= CRITICAL_TOLERANCE
            else RegimeKind.UNDERDAMPED if kappa_sq > 0.0 else RegimeKind.OVERDAMPED)
    return kind, math.sqrt(abs(kappa_sq))


def classify_regime(spec: OhmicSystemSpec) -> Regime:
    """Classify the damping regime from beta = g/bar_omega alone.

    With k = 1 - (pi*beta/2)**2 = kappa_sq/bar_omega**2: underdamped for
    k > tol, overdamped for k < -tol and critical inside the band |k| <= tol
    = CRITICAL_TOLERANCE; kappa_abs = bar_omega*sqrt(|k|).  So rescaling
    (bar_omega, g) by a common factor never flips the kind, at any scale.
    """
    kind, kappa = _damping(spec.g / spec.bar_omega)
    return Regime(kind=kind, kappa_abs=spec.bar_omega * kappa)
