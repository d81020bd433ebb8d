"""Normal modes, decay amplitudes and Brownian paths of a harmonic
particle coupled to an ohmic bath, in free space and inside a cavity."""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatch,
    DressedBathError,
    InputError,
    NumericalFailure,
    OverflowGuardError,
    ParameterError,
    SingularityError,
    StabilityError,
)
from .model import (
    CRITICAL_TOLERANCE,
    LIGHT_SPEED_SI,
    OhmicSystemSpec,
    RegimeKind,
    classify_regime,
    derive_parameters,
)
from .spectrum import (
    ModeSource,
    NormalModeSet,
    approx_small_L_spectrum,
    cavity_smallness_factor,
    cot_series_closed_form,
    series_identity_residual,
    solve_cavity_spectrum,
    solve_finite_spectrum,
)
from .transform import (
    dressed_from_normal,
    expansion_coefficient,
    finite_matrix,
)
from .amplitudes import (
    AmplitudeMethod,
    AmplitudeSeries,
    bath_integral_J,
    cavity_min_bound,
    cavity_survival_series,
    decay_comparators,
    f00_closed,
    f00_discrete,
    f00_quadrature,
    solve_delta_max,
    survival_probability,
)
from .brownian import CoherentPreparation, classical_path, path_closed_forms
from .oracle import (
    CheckResult,
    PotentialMatrix,
    build_potential_matrix,
    cross_validate,
    eigen_decompose,
    mode_set_from_dense,
)

__all__ = [
    "__version__",
    "DressedBathError",
    "ParameterError",
    "InputError",
    "NumericalFailure",
    "StabilityError",
    "SingularityError",
    "DimensionMismatch",
    "OverflowGuardError",
    "LIGHT_SPEED_SI",
    "CRITICAL_TOLERANCE",
    "OhmicSystemSpec",
    "RegimeKind",
    "derive_parameters",
    "classify_regime",
    "ModeSource",
    "NormalModeSet",
    "solve_finite_spectrum",
    "solve_cavity_spectrum",
    "cavity_smallness_factor",
    "approx_small_L_spectrum",
    "cot_series_closed_form",
    "series_identity_residual",
    "finite_matrix",
    "dressed_from_normal",
    "expansion_coefficient",
    "AmplitudeMethod",
    "AmplitudeSeries",
    "f00_discrete",
    "f00_quadrature",
    "f00_closed",
    "bath_integral_J",
    "survival_probability",
    "decay_comparators",
    "cavity_survival_series",
    "cavity_min_bound",
    "solve_delta_max",
    "CoherentPreparation",
    "classical_path",
    "path_closed_forms",
    "PotentialMatrix",
    "CheckResult",
    "build_potential_matrix",
    "eigen_decompose",
    "mode_set_from_dense",
    "cross_validate",
]
