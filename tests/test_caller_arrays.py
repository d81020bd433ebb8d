"""Public entry points leave the caller's own arrays writeable, and the
records they return hold read-only arrays of their own."""

import numpy as np
import pytest

from dressedbath import (
    AmplitudeSeries,
    CoherentPreparation,
    ModeSource,
    NormalModeSet,
    OhmicSystemSpec,
    PotentialMatrix,
    bath_integral_J,
    cavity_survival_series,
    classical_path,
    decay_comparators,
    expansion_coefficient,
    f00_closed,
    f00_discrete,
    f00_quadrature,
    path_closed_forms,
)
from dressedbath.transform import TransformMatrix

SPEC = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.05, n_modes=6, light_speed=1.0)
PREP = CoherentPreparation(n_bar=1.0, theta=0.3)


def _times():
    return np.linspace(0.0, 2.0, 5)


def _mode_arrays():
    return np.array([0.5, 1.0, 1.5]), np.array([0.2, 0.5, 0.25])


# Each case makes fresh caller arrays, passes them to one entry point and
# returns (caller arrays, what the call returned).


def normal_mode_set():
    f, w = _mode_arrays()
    return [f, w], [NormalModeSet(f, w, ModeSource.FINITE_N, SPEC)]


def amplitude_series():
    t, v = _times(), np.ones(5, dtype=complex)
    return [t, v], [AmplitudeSeries(t, v, SPEC)]


def transform_matrix():
    m = np.eye(3)
    return [m], [TransformMatrix(m)]


def potential_matrix():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    c = np.linalg.cholesky(m).T
    return [m, c], [PotentialMatrix(entries=m, factor=c)]


def f00_discrete_sum():
    f, w = _mode_arrays()
    t = _times()
    modes = NormalModeSet(f.copy(), w.copy(), ModeSource.FINITE_N, SPEC)
    return [w, t], [f00_discrete(modes, w, t)]


def f00_quadrature_integral():
    t = _times()
    return [t], [f00_quadrature(SPEC, t)]


def f00_closed_form():
    t = _times()
    return [t], [f00_closed(SPEC, t)]


def bath_integral_J_both_methods():
    t = _times()[1:]
    return [t], [bath_integral_J(SPEC, t), bath_integral_J(SPEC, t, "quadrature")]


def decay_comparator_envelopes():
    t = _times()
    return [t], list(decay_comparators(SPEC, t))


def cavity_survival():
    f, w = _mode_arrays()
    t = _times()
    return [f, w, t], [cavity_survival_series((w[0], w[1:]), f, t)]


def classical_path_of_a_series():
    t = _times()
    return [t], [classical_path(SPEC, PREP, t, f00_closed(SPEC, t.copy()))]


def path_closed_form():
    t = _times()
    return [t], [path_closed_forms(SPEC, PREP, t)]


def expansion_coefficient_row():
    row = np.array([0.6, 0.8])
    return [row], [expansion_coefficient(2, (1, 1), row)]


CASES = [normal_mode_set, amplitude_series, transform_matrix, potential_matrix,
         f00_discrete_sum, f00_quadrature_integral, f00_closed_form,
         bath_integral_J_both_methods, decay_comparator_envelopes, cavity_survival,
         classical_path_of_a_series, path_closed_form, expansion_coefficient_row]


def _held_arrays(result):
    if isinstance(result, np.ndarray):
        return []
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_entry_point_leaves_caller_arrays_writeable(case):
    caller, results = case()
    for arr in caller:
        assert arr.flags.writeable
        arr[0] = arr[0]
    for result in results:
        for held in _held_arrays(result):
            assert not held.flags.writeable
            assert not any(np.shares_memory(held, arr) for arr in caller)


def test_a_read_only_array_is_kept_without_a_copy():
    t = _times()
    t.setflags(write=False)
    series = AmplitudeSeries(t, np.ones(5, dtype=complex), SPEC)
    assert series.times is t
