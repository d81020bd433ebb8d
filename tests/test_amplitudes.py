"""Decay amplitude routes, the branch-cut integral and cavity bounds."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedbath import (
    AmplitudeMethod,
    AmplitudeSeries,
    InputError,
    ModeSource,
    NormalModeSet,
    OhmicSystemSpec,
    bath_integral_J,
    cavity_min_bound,
    cavity_survival_series,
    classify_regime,
    decay_comparators,
    derive_parameters,
    f00_closed,
    f00_discrete,
    f00_quadrature,
    solve_cavity_spectrum,
    solve_delta_max,
    solve_finite_spectrum,
    survival_probability,
)
from dressedbath import amplitudes

ANY_SPEC = OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, light_speed=1.0)


def test_discrete_sum_two_mode_hand_case():
    modes = NormalModeSet(frequencies=np.array([1.0, 2.0]),
                          weights=np.array([0.6, 0.4]),
                          source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)
    t = np.linspace(0.0, 7.0, 29)
    series = f00_discrete(modes, modes.weights, t)
    ref = 0.6 * np.exp(-1j * t) + 0.4 * np.exp(-2j * t)
    assert np.allclose(series.values, ref, atol=1e-15)
    assert series.method is AmplitudeMethod.DISCRETE_SUM
    assert np.allclose(survival_probability(series), np.abs(ref) ** 2)


def test_discrete_sum_chunk_seam(monkeypatch):
    # the sum runs on blocks of about _BLOCK_ELEMENTS phases; a 5-mode set
    # fits 301 times in one block, so shrink the blocks to 7 times each:
    # the seams must not change a bit, and both must match the outer product
    modes = solve_finite_spectrum(
        OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=5,
                        light_speed=1.0))
    t = np.linspace(0.0, 40.0, 301)
    series = f00_discrete(modes, modes.weights, t)
    ref = np.exp(-1j * np.outer(t, modes.frequencies)) @ modes.weights
    assert np.max(np.abs(series.values - ref)) < 1e-14
    monkeypatch.setattr(amplitudes, "_BLOCK_ELEMENTS", 7 * modes.frequencies.size)
    seamed = f00_discrete(modes, modes.weights, t)
    assert np.array_equal(series.values, seamed.values)


def test_discrete_values_do_not_depend_on_the_batch():
    g, delta = 0.3, 0.7
    modes = solve_finite_spectrum(
        OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=2.0 * delta / g,
                        n_modes=200, light_speed=1.0))
    t = np.linspace(0.0, 40.0, 101)
    full = f00_discrete(modes, modes.weights, t).values
    for k in range(t.size):
        assert f00_discrete(modes, modes.weights, t[[k]]).values[0] == full[k]


def test_corrupted_weights_show_up_at_t_zero():
    modes = solve_finite_spectrum(
        OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=8,
                        light_speed=1.0))
    series = f00_discrete(modes, 0.9 * modes.weights, np.array([0.0]))
    assert abs(abs(series.values[0]) ** 2 - 1.0) == pytest.approx(0.19, abs=1e-3)


def test_discrete_sum_guards():
    modes = NormalModeSet(frequencies=np.array([1.0, 2.0]),
                          weights=np.array([0.6, 0.4]),
                          source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)
    with pytest.raises(InputError):
        f00_discrete(modes, np.array([0.6]), [0.0])
    with pytest.raises(InputError):
        f00_discrete(modes, np.array([0.8, 0.4]), [0.0])
    with pytest.raises(InputError):
        f00_discrete(modes, np.array([0.6, -0.1]), [0.0])
    with pytest.raises(InputError):
        f00_discrete(modes, modes.weights, [])
    with pytest.raises(InputError):
        f00_discrete(modes, modes.weights, [-1.0])


def test_cavity_ladder_approaches_free_space_before_the_echo():
    # a large cavity (delta = 20) holds ~0.99 of the spectral weight below
    # the truncation and its first revival sits at t ~ 2 pi/spacing ~ 133,
    # so for t <= 15 the discrete sum must track the continuum closed form
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=20.0)
    modes = solve_cavity_spectrum(spec, k_max=2000, variant="rederived")
    t = np.linspace(0.0, 15.0, 61)
    discrete = f00_discrete(modes, modes.weights, t)
    closed = f00_closed(spec, t)
    assert np.max(np.abs(discrete.values - closed.values)) < 0.02


# ---------------------------------------------------------------------------
# branch-cut integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g", [0.3, 2.0 / math.pi, 3.0])
def test_J_analytic_agrees_with_direct_quadrature(g):
    spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
    for t in (0.05, 1.0, 5.0, 30.0):
        j_a = bath_integral_J(spec, t)
        j_q = bath_integral_J(spec, t, method="quadrature")
        assert abs(j_a - j_q) <= 1e-10 + 1e-8 * abs(j_a)


def test_J_short_time_limits():
    under = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, light_speed=1.0)
    reg = classify_regime(under)
    a = 0.5 * math.pi * 0.3
    assert bath_integral_J(under, 1e-12) == pytest.approx(a / reg.kappa_abs,
                                                          rel=1e-9)
    # critical/overdamped limits vanish; the scaled-Ei cancellation leaves
    # a small roundoff floor at such extreme arguments
    crit = OhmicSystemSpec(bar_omega=1.0, g=2.0 / math.pi, cavity_L=1.0,
                           light_speed=1.0)
    assert abs(bath_integral_J(crit, 1e-12)) < 1e-9
    over = OhmicSystemSpec(bar_omega=1.0, g=3.0, cavity_L=1.0, light_speed=1.0)
    assert abs(bath_integral_J(over, 1e-12)) < 1e-9


def test_J_positive_under_damping_negative_overshoot_overdamped():
    under = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, light_speed=1.0)
    assert np.all(bath_integral_J(under, np.geomspace(0.01, 50.0, 30)) > 0.0)
    # strongly overdamped J dips negative before the power-law tail sets in
    over = OhmicSystemSpec(bar_omega=1.0, g=10.0, cavity_L=1.0, light_speed=1.0)
    assert bath_integral_J(over, 50.0) < 0.0


def test_J_power_law_tail_windows():
    # frozen t**-3 ratio values: J * t**3 / (4 g) at selected times
    weak = OhmicSystemSpec(bar_omega=1.0, g=1.0 / 137, cavity_L=1.0,
                           light_speed=1.0)
    r = bath_integral_J(weak, 50.0) * 50.0**3 / (4.0 / 137)
    assert 0.985 < r < 0.995
    mid = OhmicSystemSpec(bar_omega=1.0, g=0.8, cavity_L=1.0, light_speed=1.0)
    r = bath_integral_J(mid, 50.0) * 50.0**3 / (4.0 * 0.8)
    assert 1.01 < r < 1.03
    r = bath_integral_J(mid, 500.0) * 500.0**3 / (4.0 * 0.8)
    assert 0.999 < r < 1.002
    hard = OhmicSystemSpec(bar_omega=1.0, g=10.0, cavity_L=1.0, light_speed=1.0)
    r = bath_integral_J(hard, 500.0) * 500.0**3 / 40.0
    assert 1.03 < r < 1.08


def test_J_input_guards():
    with pytest.raises(InputError):
        bath_integral_J(ANY_SPEC, 0.0)
    with pytest.raises(InputError):
        bath_integral_J(ANY_SPEC, -1.0)
    with pytest.raises(InputError):
        bath_integral_J(ANY_SPEC, 1.0, method="sorcery")


# ---------------------------------------------------------------------------
# closed form vs quadrature
# ---------------------------------------------------------------------------

def test_closed_form_is_exactly_one_at_t_zero():
    for g in (0.3, 2.0 / math.pi, 3.0):
        spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
        series = f00_closed(spec, np.array([0.0, 0.5]))
        assert series.values[0] == 1.0 + 0.0j


def test_quadrature_sum_rule_at_t_zero():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.7, cavity_L=1.0, light_speed=1.0)
    series = f00_quadrature(spec, np.array([0.0]))
    assert abs(series.values[0] - 1.0) < 1e-9


BETAS = [1.0 / 137, 0.01, 0.3, 2.0 / math.pi, 3.0, 10.0, 30.0]


def _unit_spec(g):
    return OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)


@pytest.mark.parametrize("g", [0.01, 2.0 / math.pi, 8.5])
def test_quadrature_values_do_not_depend_on_the_batch(g):
    spec = _unit_spec(g)
    t = np.linspace(0.0, 60.0, 97)
    full = f00_quadrature(spec, t).values
    for k in range(t.size):
        assert f00_quadrature(spec, t[[k]]).values[0] == full[k]
    for start in range(0, t.size, 64):
        chunk = f00_quadrature(spec, t[start : start + 64]).values
        assert np.array_equal(chunk, full[start : start + 64])


def test_quadrature_refuses_oversized_time_grids():
    # at g = 8.5 each time point needs about 11.1*t initial panels, so
    # t = 3e5 asks for 1.06e7 of them (about 7 GB); the limit is 2**20
    start = time.perf_counter()
    with pytest.raises(InputError, match="panels"):
        f00_quadrature(_unit_spec(8.5), [0.0, 1.0, 3e5])
    assert time.perf_counter() - start < 0.5
    # each time of this grid stays under that limit (t < 29726.9), but the
    # 200 of them need about 1.05e8 panels in all, minutes of work; the
    # limit on the whole grid is 2**23
    start = time.perf_counter()
    with pytest.raises(InputError, match="panels in all"):
        f00_quadrature(_unit_spec(8.5), np.linspace(0.0, 29700.0, 200))
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("g", BETAS)
def test_closed_form_matches_quadrature(g):
    spec = _unit_spec(g)
    extreme = np.array([1e-7, 1e-5, 1e-3, 0.1, 10.0, 200.0, 500.0])
    for t in (np.geomspace(1e-3, 200.0, 60), np.linspace(0.0, 100.0, 101), extreme):
        closed = f00_closed(spec, t)
        quad = f00_quadrature(spec, t)
        assert np.max(np.abs(closed.values - quad.values)) <= 5e-10


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    log_kappa=st.floats(-13.0, -3.0),
    sign=st.sampled_from([1.0, -1.0]),
    bar_omega=st.floats(0.2, 5.0),
)
def test_closed_form_matches_quadrature_across_the_critical_band(
        log_kappa, sign, bar_omega):
    # kappa**2 = sign * 10**log_kappa * bar_omega**2 spans both sides of the
    # critical band |kappa**2| <= 1e-9 * bar_omega**2 and the band itself
    g = 2.0 / math.pi * bar_omega * math.sqrt(1.0 - sign * 10.0**log_kappa)
    spec = OhmicSystemSpec(bar_omega=bar_omega, g=g, cavity_L=1.0, light_speed=1.0)
    t = np.geomspace(1e-3, 60.0, 24) / bar_omega
    gap = np.abs(f00_quadrature(spec, t).values - f00_closed(spec, t).values)
    assert gap.max() <= 5e-10


def test_amplitude_is_continuous_across_the_critical_point():
    t = np.linspace(0.0, 20.0, 60)
    series = {}
    for kappa_sq in (1e-6, 0.0, -1e-6):
        g = 2.0 * math.sqrt(1.0 - kappa_sq) / math.pi
        spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
        series[kappa_sq] = f00_closed(spec, t).values
    assert np.max(np.abs(series[1e-6] - series[0.0])) < 1e-3
    assert np.max(np.abs(series[-1e-6] - series[0.0])) < 1e-3


def test_weak_coupling_exponential_law():
    g = 1.0 / 137
    spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
    t = np.linspace(0.5, 3.0, 11) / (math.pi * g)
    prob = survival_probability(f00_closed(spec, t))
    assert np.max(np.abs(np.log(prob) + math.pi * g * t)) < 1e-3
    comp = decay_comparators(spec, t)
    assert np.allclose(comp.weak, np.exp(-math.pi * g * t), rtol=1e-15)


def test_strong_coupling_slow_pole_decay():
    # frozen survival value; the commonly quoted comparator only matches
    # once its prefactor is squared, and even then to ~40% at this t
    spec = OhmicSystemSpec(bar_omega=1.0, g=10.0, cavity_L=1.0, light_speed=1.0)
    t = np.array([30.0])
    prob = survival_probability(f00_closed(spec, t))[0]
    assert prob == pytest.approx(2.188190e-7, rel=1e-4)
    pref = 1.0 / (math.pi * 10.0) ** 2
    decay = math.exp(-2.0 * 30.0 / (math.pi * 10.0))
    assert 1.0 / 3.0 < prob / (pref**2 * decay) < 3.0
    comp = decay_comparators(spec, t)
    assert prob / comp.strong[0] < 0.01


# ---------------------------------------------------------------------------
# cavity survival
# ---------------------------------------------------------------------------

def test_cavity_survival_series_brute_force(monkeypatch):
    w0, wk = 0.9, np.array([0.04, 0.03, 0.02])
    freqs = np.array([0.9, 4.5, 9.1, 13.6])
    t = np.linspace(0.0, 10.0, 301)
    got = cavity_survival_series((w0, wk), freqs, t)
    amps = w0 * np.exp(-1j * freqs[0] * t)
    for w, f in zip(wk, freqs[1:]):
        amps = amps + w * np.exp(-1j * f * t)
    assert np.allclose(got, np.abs(amps) ** 2, atol=1e-14)
    assert got[0] == pytest.approx((w0 + wk.sum()) ** 2, rel=1e-14)
    # blocks of 7 times put 43 seams in the grid; none may change a bit
    monkeypatch.setattr(amplitudes, "_BLOCK_ELEMENTS", 7 * freqs.size)
    assert np.array_equal(cavity_survival_series((w0, wk), freqs, t), got)


def _cavity_modes(k_max):
    g, delta = 0.1, 0.05
    return solve_cavity_spectrum(
        OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=2.0 * delta / g,
                        light_speed=1.0), k_max=k_max)


def test_cavity_values_do_not_depend_on_the_batch():
    modes = _cavity_modes(500)
    pair = (modes.weights[0], modes.weights[1:])
    t = np.linspace(0.0, 40.0, 101)
    full = cavity_survival_series(pair, modes.frequencies, t)
    for k in range(t.size):
        assert cavity_survival_series(pair, modes.frequencies, t[[k]])[0] == full[k]


def test_cavity_survival_series_memory_is_bounded():
    # 1e5 ladder modes over 64 times: one block of all phases would take
    # about 100 MB per array; blocks of about 2**18 phases stay near 10 MB.
    # Long rows also take another reduction path in some numpy kernels, so
    # check single-time values here as well.
    modes = _cavity_modes(100_000)
    pair = (modes.weights[0], modes.weights[1:])
    t = np.linspace(0.0, 200.0, 64)
    tracemalloc.start()
    try:
        full = cavity_survival_series(pair, modes.frequencies, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    for k in (0, 1, 31, 63):
        assert cavity_survival_series(pair, modes.frequencies, t[[k]])[0] == full[k]


def test_cavity_survival_series_refuses_oversized_mode_sums():
    # 2**20 + 1 modes x 129 times is just over 2**27 phase terms, about
    # 6 s of work; the guard fires before any block runs
    wk = np.full(2**20, 1e-7)
    freqs = np.arange(1.0, wk.size + 2.0)
    start = time.perf_counter()
    with pytest.raises(InputError, match="2\\*\\*27 phase terms"):
        cavity_survival_series((0.5, wk), freqs, np.linspace(0.0, 1.0, 129))
    assert time.perf_counter() - start < 0.5


def test_cavity_survival_series_guards():
    with pytest.raises(InputError):
        cavity_survival_series((0.9, np.array([0.05])), np.array([1.0]), [0.0])
    with pytest.raises(InputError):
        cavity_survival_series(np.array([0.9, 0.05, 0.05]),
                               np.array([1.0, 2.0, 3.0]), [0.0])
    with pytest.raises(InputError):
        cavity_survival_series((-0.1, np.array([0.05])),
                               np.array([1.0, 2.0]), [0.0])


def test_cavity_min_bound_frozen_values():
    weak = cavity_min_bound(0.005, "weak")
    assert weak.min_probability == pytest.approx(0.9742038791690163, rel=1e-12)
    assert not weak.unphysical
    strong = cavity_min_bound(0.1, "strong")
    assert strong.min_probability == pytest.approx(0.6454492651886263, rel=1e-12)
    deep = cavity_min_bound(0.5, "strong")
    assert deep.unphysical and deep.min_probability < 0.0


def test_weak_bound_never_crosses_zero():
    deltas = np.linspace(0.0, 5.0, 400)
    values = [cavity_min_bound(d, "weak").min_probability for d in deltas]
    assert min(values) > 0.0


def test_delta_max_solve():
    d_max = solve_delta_max("strong")
    assert d_max == pytest.approx(0.3723715130668097, abs=1e-11)
    assert cavity_min_bound(d_max - 1e-9, "strong").min_probability >= 0.0
    assert cavity_min_bound(d_max + 1e-9, "strong").min_probability < 0.0
    with pytest.raises(InputError):
        solve_delta_max("weak")
    with pytest.raises(InputError):
        solve_delta_max("other")


def test_bound_input_guards():
    with pytest.raises(InputError):
        cavity_min_bound(-0.1, "weak")
    with pytest.raises(InputError):
        cavity_min_bound(0.1, "tepid")


def test_amplitude_series_validation():
    with pytest.raises(InputError):
        AmplitudeSeries(times=np.array([0.0, 1.0]),
                        values=np.array([1.0 + 0j]),
                        method=AmplitudeMethod.CLOSED_FORM,
                        regime=classify_regime(ANY_SPEC),
                        spec_snapshot=ANY_SPEC)
