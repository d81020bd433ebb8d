"""Mean position of the particle prepared in a displaced (coherent) state.

With the bath in vacuum and the particle displaced to amplitude
sqrt(n_bar) * exp(-i*theta), the mean position is carried entirely by the
survival amplitude:

    q(t) = sqrt(2*hbar*n_bar/bar_omega) * Re[exp(-i*theta) * f00(t)].

``classical_path`` applies that projection to any precomputed amplitude
series; ``path_closed_forms`` applies it to ``f00_closed``, and its
docstring writes the result out per damping regime through the pole terms
and the branch-cut integral J(t), which is where the algebraic structure
(damped trig envelope plus a sin(theta)-weighted power-law tail) is
visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeSeries, _validate_times, f00_closed
from .errors import InputError
from .model import OhmicSystemSpec

__all__ = ["CoherentPreparation", "classical_path", "path_closed_forms"]


@dataclass(frozen=True)
class CoherentPreparation:
    """Initial displaced state: amplitude sqrt(n_bar), phase angle theta."""

    n_bar: float
    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.n_bar) or self.n_bar < 0.0:
            raise InputError(f"n_bar must be a nonnegative number, got {self.n_bar!r}")
        if not math.isfinite(self.theta):
            raise InputError(f"theta must be finite, got {self.theta!r}")


def _scale(spec: OhmicSystemSpec, prep: CoherentPreparation) -> float:
    return math.sqrt(2.0 * spec.hbar * prep.n_bar / spec.bar_omega)


def classical_path(
    spec: OhmicSystemSpec,
    prep: CoherentPreparation,
    times,
    f00_source: AmplitudeSeries,
) -> np.ndarray:
    """Mean position from a precomputed survival-amplitude series.

    The series must have been computed for the same spec and on exactly
    the requested time grid; anything else raises rather than silently
    interpolating.
    """
    t = _validate_times(times)
    if f00_source.spec_snapshot != spec:
        raise InputError("amplitude series was computed for a different spec")
    if not np.array_equal(t, f00_source.times):
        raise InputError("amplitude series grid does not match the times")
    phase = np.exp(-1j * prep.theta)
    return _scale(spec, prep) * np.real(phase * f00_source.values)


def path_closed_forms(
    spec: OhmicSystemSpec, prep: CoherentPreparation, times
) -> np.ndarray:
    """Mean position written out per regime.

    Underdamped:
        sqrt(hbar*n_bar/(2*bar_omega)) * ( [2*cos(kappa*t + theta)
            - (pi*g/kappa)*sin(kappa*t + theta)] * e^{-pi*g*t/2}
            + 2*sin(theta)*J(t) )
    Critical and overdamped replace the bracket by twice the cosine-weighted
    pole term.  This is classical_path over f00_closed, which is how it is
    computed; the written-out form shows the J-free theta = 0 sections.
    """
    return classical_path(spec, prep, times, f00_closed(spec, times))
