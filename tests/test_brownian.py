"""Mean-position trajectories of a displaced particle."""

import math

import numpy as np
import pytest

from dressedbath import (
    CoherentPreparation,
    InputError,
    OhmicSystemSpec,
    classical_path,
    classify_regime,
    f00_closed,
    path_closed_forms,
)

UNDER = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, light_speed=1.0)
CRIT = OhmicSystemSpec(bar_omega=1.0, g=2.0 / math.pi, cavity_L=1.0,
                       light_speed=1.0)
OVER = OhmicSystemSpec(bar_omega=1.0, g=3.0, cavity_L=1.0, light_speed=1.0)


def _scale(spec, n_bar):
    return math.sqrt(2.0 * spec.hbar * n_bar / spec.bar_omega)


@pytest.mark.parametrize("spec", [UNDER, CRIT, OVER])
def test_initial_position(spec):
    t = np.array([0.0, 1.0])
    for theta in (0.0, 0.7, math.pi / 2):
        prep = CoherentPreparation(n_bar=1.3, theta=theta)
        q = path_closed_forms(spec, prep, t)
        assert q[0] == pytest.approx(_scale(spec, 1.3) * math.cos(theta),
                                     abs=1e-14)


@pytest.mark.parametrize("spec", [UNDER, CRIT, OVER])
def test_closed_form_path_equals_projected_amplitude(spec):
    t = np.linspace(0.0, 25.0, 120)
    prep = CoherentPreparation(n_bar=1.0, theta=0.7)
    direct = path_closed_forms(spec, prep, t)
    projected = classical_path(spec, prep, t, f00_closed(spec, t))
    assert np.max(np.abs(direct - projected)) < 1e-13


@pytest.mark.parametrize("spec", [UNDER, CRIT, OVER])
def test_path_scales_as_sqrt_n_bar(spec):
    t = np.linspace(0.0, 30.0, 90)
    small = path_closed_forms(spec, CoherentPreparation(1.0, 0.7), t)
    big = path_closed_forms(spec, CoherentPreparation(4.0, 0.7), t)
    assert np.max(np.abs(big - 2.0 * small)) < 1e-14


def test_vacuum_preparation_stays_at_origin():
    t = np.linspace(0.0, 10.0, 40)
    q = path_closed_forms(UNDER, CoherentPreparation(0.0, 0.4), t)
    assert np.all(q == 0.0)


def test_underdamped_zero_crossings():
    # with theta = 0 the power-law tail is switched off and the zeros sit
    # exactly where tan(kappa t) = 2 kappa / (pi g)
    regime = classify_regime(UNDER)
    kappa = regime.kappa_abs
    a = 0.5 * math.pi * UNDER.g
    t_n = (math.atan(kappa / a) + np.arange(5) * math.pi) / kappa
    prep = CoherentPreparation(n_bar=1.0, theta=0.0)
    q = path_closed_forms(UNDER, prep, t_n)
    assert np.max(np.abs(q)) < 1e-10 * _scale(UNDER, 1.0)


def test_overdamped_single_sign_change():
    regime = classify_regime(OVER)
    a = 0.5 * math.pi * OVER.g
    y_fast = a + regime.kappa_abs
    y_slow = OVER.bar_omega**2 / y_fast
    t_star = math.log(y_fast / y_slow) / (y_fast - y_slow)
    prep = CoherentPreparation(n_bar=1.0, theta=0.0)
    q = path_closed_forms(OVER, prep, np.array([t_star]))
    assert abs(q[0]) < 1e-12 * _scale(OVER, 1.0)
    # on either side of t_star the sign is fixed
    grid = np.linspace(0.01, t_star - 0.05, 30)
    assert np.all(path_closed_forms(OVER, prep, grid) > 0.0)
    grid = np.linspace(t_star + 0.05, 20.0, 30)
    assert np.all(path_closed_forms(OVER, prep, grid) < 0.0)


@pytest.mark.parametrize("spec", [UNDER, OVER])
def test_quadrature_phase_power_law_tail(spec):
    # theta = pi/2 kills the pole contribution at late times and leaves
    # q ~ scale * 4 g / t**3
    prep = CoherentPreparation(n_bar=2.5, theta=math.pi / 2)
    t = np.array([300.0])
    q = path_closed_forms(spec, prep, t)[0]
    tail = _scale(spec, 2.5) * 4.0 * spec.g / (spec.bar_omega**4 * 300.0**3)
    assert q == pytest.approx(tail, rel=2e-2)


def test_classical_path_guards():
    t = np.linspace(0.0, 5.0, 20)
    prep = CoherentPreparation(1.0, 0.0)
    series = f00_closed(UNDER, t)
    with pytest.raises(InputError):
        classical_path(OVER, prep, t, series)
    with pytest.raises(InputError):
        classical_path(UNDER, prep, t[:-1], series)


def test_preparation_guards():
    with pytest.raises(InputError):
        CoherentPreparation(n_bar=-1.0, theta=0.0)
    with pytest.raises(InputError):
        CoherentPreparation(n_bar=float("nan"), theta=0.0)
    with pytest.raises(InputError):
        CoherentPreparation(n_bar=1.0, theta=float("inf"))
