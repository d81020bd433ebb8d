"""Decay amplitude routes, the branch-cut integral and cavity bounds."""

import math
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dressedbath import (
    AmplitudeSeries,
    InputError,
    ModeSource,
    NormalModeSet,
    NumericalFailure,
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
from dressedbath import amplitudes, spectrum
from dressedbath.special import ei_scaled, exp1_scaled

ANY_SPEC = OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, light_speed=1.0)


def test_discrete_sum_two_mode_hand_case():
    modes = NormalModeSet(frequencies=np.array([1.0, 2.0]),
                          weights=np.array([0.6, 0.4]),
                          source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)
    t = np.linspace(0.0, 7.0, 29)
    series = f00_discrete(modes, modes.weights, t)
    ref = 0.6 * np.exp(-1j * t) + 0.4 * np.exp(-2j * t)
    assert np.allclose(series.values, ref, atol=1e-15)
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


def _phase_sum_case():
    # 97 modes over 301 times with phases up to 1e6 rad, t = 0 included
    rng = np.random.default_rng(7)
    freq = np.sort(rng.uniform(0.5, 2000.0, 97))
    weights = rng.uniform(0.1, 1.0, freq.size) / freq.size
    return freq, weights, np.linspace(0.0, 500.0, 301)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_phase_sums_equal_the_complex_exponential_sum_bitwise(monkeypatch, workers):
    # blocks of 21 rows on one worker, 10 on two and 6-7 on three put seams
    # inside every worker's range of about 100 rows
    freq, weights, t = _phase_sum_case()
    ref = (np.exp(-1j * t[:, None] * freq) * weights).sum(axis=1)
    monkeypatch.setattr(amplitudes, "_BLOCK_ELEMENTS", 21 * freq.size)
    monkeypatch.setattr(amplitudes, "_worker_count", lambda *args: workers)
    got = amplitudes._phase_sums(freq, weights, t)
    assert got.tobytes() == ref.tobytes()
    assert not np.signbit(got[0].imag)


def _no_thread(*args, **kwargs):
    raise AssertionError("a thread was started")


def test_worker_count_bounds(monkeypatch):
    # the one worker policy, as the mode sums call it
    monkeypatch.setattr(amplitudes.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    count = amplitudes._worker_count
    block, least = amplitudes._BLOCK_ELEMENTS, amplitudes._WORKER_PHASES
    assert count((2**12 - 1) * 16, least, block // 16) == 1  # calling thread
    assert count(3 * 2**12 * 16, least, block // 16) == 3  # 2**16 phases a worker
    assert count(2**20 * 16, least, block // 16) == 8  # one per CPU
    assert count(2**10 * 2**17, least, block // 2**17) == 2  # one block of scratch
    assert count(2**8 * 2**19, least, block // 2**19) == 1  # or one longer row
    # a single row, half a block or longer than one, stays on the calling
    # thread: the empty second range is dropped
    monkeypatch.setattr(amplitudes.threading, "Thread", _no_thread)
    for modes in (2**17, block + 1):
        freq = np.arange(1.0, modes + 1.0)
        amplitudes._phase_sums(freq, np.full(modes, 1.0 / modes), np.array([0.5]))


def _run_phase_sums():
    amplitudes._phase_sums(*_phase_sum_case())


@pytest.mark.parametrize("kernel, call", [
    pytest.param("_sum_rows", _run_phase_sums, id="phase-sums"),
])
def test_threads_reraise_a_worker_error_after_joining(monkeypatch, kernel, call):
    # the thread helper's user: a worker's error surfaces only once every
    # thread has joined
    real = getattr(amplitudes, kernel)

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise NumericalFailure("worker failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(amplitudes, kernel, failing)
    monkeypatch.setattr(amplitudes, "_worker_count", lambda *args: 3)
    before = threading.active_count()
    with pytest.raises(NumericalFailure, match="worker failed"):
        call()
    assert threading.active_count() == before


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


def _no_phase_sums(*args):
    raise AssertionError("a phase was summed")


def test_discrete_sum_refuses_nan_weights(monkeypatch):
    modes = NormalModeSet(frequencies=np.array([1.0, 2.0]),
                          weights=np.array([0.6, 0.4]),
                          source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)
    monkeypatch.setattr(amplitudes, "_phase_sums", _no_phase_sums)
    with pytest.raises(InputError, match="positive"):
        f00_discrete(modes, np.array([0.6, math.nan]), [0.0, 1.0])


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

@pytest.mark.parametrize("g", [0.3, 2.0 / math.pi, 3.0,
                               2.0 / math.pi * (1.0 - 1e-6),
                               2.0 / math.pi * (1.0 + 1e-6), 10.0, 100.0])
def test_J_analytic_agrees_with_direct_quadrature(g):
    spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
    for t in (0.05, 1.0, 5.0, 30.0):
        j_a = bath_integral_J(spec, t)
        j_q = bath_integral_J(spec, t, method="quadrature")
        assert abs(j_a - j_q) <= 1e-10 + 1e-8 * abs(j_a)


def _J_mp(g, t):
    # the closed forms of the underdamped and overdamped regimes (bar_omega
    # 1), at the caller's working precision
    g, t = mp.mpf(g), mp.mpf(t)
    a = mp.pi * g / 2
    kappa_sq = 1 - a * a
    if kappa_sq > 0:
        root = mp.mpc(a, mp.sqrt(kappa_sq))
        z = root * t
        diff = mp.exp(-z) * mp.e1(-z) - mp.exp(z) * mp.e1(z)
        return mp.im(root * diff) / (mp.pi * mp.sqrt(kappa_sq))
    kappa = mp.sqrt(-kappa_sq)

    def term(y):
        x = y * t
        return y * (mp.exp(-x) * mp.ei(x) + mp.exp(x) * mp.e1(x))

    return -(term(a + kappa) - term(a - kappa)) / (2 * mp.pi * kappa)


def _J_50_digits(g, t):
    with mp.workdps(50):
        return float(_J_mp(g, t))


@pytest.mark.parametrize("g, t", [
    (1.0 / 137, 500.0), (0.8, 500.0), (10.0, 200.0), (100.0, 500.0),
    # e^{-yt} has decayed by the nodes of a panel that does not end near 1/t
    (0.3, 1e5),
    # real roots 1.4e-4 apart share one half circle
    (2.0 / math.pi * (1.0 + 1e-8), 0.05),
])
def test_J_quadrature_matches_50_digits(g, t):
    # the audit's tolerance follows J's t**-3 tail, so it is sharp at large t
    spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
    ref = _J_50_digits(g, t)
    assert abs(bath_integral_J(spec, t, method="quadrature") - ref) <= 1e-13 * abs(ref)


def test_J_quadrature_calls_no_special_function(monkeypatch):
    # the audit must not share the closed form's exponential integrals
    specs = [OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
             for g in (0.3, 2.0 / math.pi, 3.0)]
    t = np.array([0.05, 5.0, 200.0])
    want = [bath_integral_J(spec, t) for spec in specs]

    def refuse(*args):
        raise AssertionError("the audit called a special function")

    monkeypatch.setattr(amplitudes, "ei_scaled", refuse)
    monkeypatch.setattr(amplitudes, "exp1_scaled", refuse)
    for spec, ref in zip(specs, want):
        got = bath_integral_J(spec, t, method="quadrature")
        assert np.allclose(got, ref, rtol=1e-8, atol=0.0)
    # nor does the continuum quadrature of f00, which audits the closed form
    for spec in specs:
        f00_quadrature(spec, np.concatenate(([0.0], t)))


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


CRITICAL = OhmicSystemSpec(bar_omega=1.0, g=2.0 / math.pi, cavity_L=1.0,
                           light_speed=1.0)
CRITICAL_A = 0.5 * math.pi * CRITICAL.g


@pytest.mark.parametrize("x", [60.0, 100.0, 200.0, 1e3, 1e4, 1e5])
def test_critical_J_series_matches_50_digits(x):
    # the exponential-integral form cancels O(1) terms down to 8/(pi*x**3)
    # and read 5.4e-6 relative at x = 1e4; the series holds rounding
    t = x / CRITICAL_A
    with mp.workdps(50):
        mx = mp.mpf(CRITICAL_A * t)
        ref = ((mx - 1) * mp.exp(-mx) * mp.ei(mx)
               - (mx + 1) * mp.exp(mx) * mp.e1(mx)) / mp.pi
    assert bath_integral_J(CRITICAL, t) == pytest.approx(float(ref), rel=1e-14, abs=0.0)


def test_critical_J_array_matches_scalar_calls():
    t = np.concatenate((np.linspace(0.5, 59.5, 60), np.geomspace(61.0, 1e5, 40)))
    t /= CRITICAL_A
    j = bath_integral_J(CRITICAL, t)
    assert all(j[k] == bath_integral_J(CRITICAL, float(tk)) for k, tk in enumerate(t))
    # below x = 60 the exponential-integral form stays bit for bit
    x = CRITICAL_A * t[:60]
    near = ((x - 1.0) * ei_scaled(x) - (x + 1.0) * np.real(exp1_scaled(x))) / math.pi
    assert np.array_equal(j[:60], near)


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
    # at t = 0 only each panel's mean survives, plus the tail in 1/u
    for g in (1e-300, 1e-100, 1e-11, 1e-3, 0.3, 2.0 / math.pi, 0.7, 30.0, 1e5):
        spec = OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0, light_speed=1.0)
        series = f00_quadrature(spec, np.array([0.0]))
        assert abs(series.values[0] - 1.0) <= 1e-15


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


def test_quadrature_threads_under_stress():
    # the route keeps no state between calls: callers' threads that run it
    # at once, switching every microsecond, each get the bytes of a lone call
    spec, t = _unit_spec(8.5), np.linspace(0.0, 60.0, 32)
    reference = f00_quadrature(spec, t).values.tobytes()
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(
            f00_quadrature(spec, t).values.tobytes())) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == [reference] * 4


def test_small_quadrature_grids_start_no_thread(monkeypatch):
    # the median block of the continuum benchmark (critical band, 72 times
    # to t = 30) and a strong grid once split over seven threads both stay
    # on the calling thread, with many CPUs
    monkeypatch.setattr(amplitudes, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(amplitudes.threading, "Thread", _no_thread)
    f00_quadrature(_unit_spec(2.0 / math.pi), np.linspace(0.0, 30.0, 72))
    f00_quadrature(_unit_spec(8.5), np.linspace(0.0, 60.0, 32))


def test_quadrature_refuses_oversized_time_grids():
    # t = 3e5 at g = 8.5 once needed 1.06e7 half-period panels and was
    # refused; on one panel set per spec it costs what t = 1 does
    spec = _unit_spec(8.5)
    t = np.array([0.0, 1.0, 3e5])
    gap = np.abs(f00_quadrature(spec, t).values - f00_closed(spec, t).values)
    assert gap.max() <= 1e-9
    # the one guard left is on (time, panel) pairs: 1e6 times at beta
    # 1e-90, about 600 panels each, are refused before any is summed
    start = time.perf_counter()
    with pytest.raises(InputError, match="pairs"):
        f00_quadrature(_unit_spec(1e-90), np.linspace(0.0, 50.0, 10**6))
    assert time.perf_counter() - start < 1.0


def test_quadrature_holds_at_long_times():
    # each panel's integral and the tail W(u) e^{-iut}/(it) stay finite up
    # to t ~ 1e290, where f00 ~ 4 beta/t**3 (a tail in powers of i*t once
    # overflowed to NaN from t ~ 1e77); past that the phases overflow, and
    # the route refuses rather than return NaN
    spec = _unit_spec(0.3)
    values = f00_quadrature(spec, [1e6, 1e15, 1e100, 1e290]).values
    assert np.all(np.abs(values) <= 1e-12)
    with pytest.raises(NumericalFailure, match="non-finite"):
        f00_quadrature(spec, [1e300])


def test_quadrature_refuses_times_below_its_floor():
    # at t = 1e-12 the panel past w_top is so wide that both of its rules
    # read about 0: the value was 0.9223 against 1.0, with a small estimate
    spec = _unit_spec(0.3)
    with pytest.raises(InputError, match="needs t = 0 or t >="):
        f00_quadrature(spec, [0.0, 1e-12, 1.0])
    floor = 1e-8 / (4.0 + 4.0 * math.pi * 0.3)
    quad = f00_quadrature(spec, [1.0000001 * floor])
    assert abs(quad.values[0] - f00_closed(spec, quad.times).values[0]) < 1e-12


def test_quadrature_refuses_a_nan_error_estimate(monkeypatch):
    # a NaN estimate compares False with any limit, so it must be refused
    # as such; a NaN coefficient tail gives one
    spec = OhmicSystemSpec(bar_omega=1e80, g=0.3e80, cavity_L=1.0, light_speed=1.0)
    t = np.linspace(0.0, 30.0 / spec.bar_omega, 7)
    # at this scale the analytic tail overflowed to NaN while the routes
    # worked in absolute units, and f00(0) read 0.0777
    assert abs(f00_quadrature(spec, [0.0]).values[0] - 1.0) <= 1e-9
    real = amplitudes._legendre_panels

    def nan_tails(*args):
        lefts, rights, coefs, tails, gaps = real(*args)
        return lefts, rights, coefs, np.full(tails.shape, np.nan), gaps

    monkeypatch.setattr(amplitudes, "_legendre_panels", nan_tails)
    with pytest.raises(NumericalFailure, match="estimate nan"):
        f00_quadrature(spec, t)


def test_quadrature_refuses_couplings_it_cannot_resolve():
    # below beta = 1e-300, 2/beta nears overflow in the density; the panels
    # in the offset u - 1 resolve every resonance above it, where panels in
    # u once read |f00| < 1e-16 at beta 1e-20 with no error
    t = np.linspace(0.0, 60.0, 61)
    with pytest.raises(InputError, match="beta >= 1e-300"):
        f00_quadrature(_unit_spec(1e-301), t)
    for beta in (1e-300, 1e-20, 1e-7):
        spec = _unit_spec(beta)
        gap = np.abs(f00_quadrature(spec, t).values - f00_closed(spec, t).values)
        assert gap.max() <= 1e-9


# every damping regime, at scales where bar_omega**2 underflows (1e-170)
# or w**4 overflows (1e80) in absolute units
SCALE_BETAS = (0.0073, 0.3, 2.0 / math.pi, 3.0, 30.0)
SCALES = (1e-200, 1e-170, 1e-80, 1e-20, 1e20, 1e80, 1e120, 1e150, 1e200, 1e300)


@pytest.mark.parametrize("beta", SCALE_BETAS)
def test_continuum_routes_depend_on_bar_omega_only_through_beta_and_tau(beta):
    # f00 and J are functions of beta = g/bar_omega and tau = bar_omega*t
    tau = np.array([0.0, 1e-3, 0.5, 5.0, 25.0, 60.0])

    def routes(bar_omega):
        spec = OhmicSystemSpec(bar_omega=bar_omega, g=beta * bar_omega,
                               cavity_L=1.0, light_speed=1.0)
        t = tau / bar_omega
        return classify_regime(spec).kind, (
            f00_quadrature(spec, t).values, f00_closed(spec, t).values,
            bath_integral_J(spec, t[1:]),
            bath_integral_J(spec, t[1:], method="quadrature"))

    kind, unit = routes(1.0)
    for bar_omega in SCALES:
        scaled_kind, scaled = routes(bar_omega)
        assert scaled_kind is kind, bar_omega
        for got, want in zip(scaled, unit):
            assert np.max(np.abs(got - want)) <= 1e-12, bar_omega


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


# the sweep of the continuum quadrature: t = 0, a fine linear grid, a
# geometric one down to the short-time limit and seeded uniform times
SWEEP_TIMES = np.concatenate((
    [0.0], np.linspace(0.0, 60.0, 1201), np.geomspace(1e-7, 2000.0, 200),
    np.random.default_rng(27).uniform(0.0, 60.0, 300)))


def sweep_betas():
    """20 betas a decade from the quadrature's floor to 1e3, then the
    critical band, kappa**2 from +-1e-9 to +-1e-4 (20 a decade each side)."""
    kappa_sq = 10.0 ** (np.arange(-180, -79) / 20.0)
    band = 2.0 / math.pi * np.sqrt(1.0 - np.concatenate((kappa_sq, -kappa_sq)))
    return np.concatenate((10.0 ** (np.arange(-6000, 61) / 20.0), band))


def _f00_50_digits(g, t):
    # pole term plus i J(t) off the critical point (bar_omega 1), summed at
    # 50 digits: near it both reach a/kappa and cancel
    with mp.workdps(50):
        a = mp.pi * mp.mpf(g) / 2
        kappa_sq = 1 - a * a
        if kappa_sq > 0:
            kappa = mp.sqrt(kappa_sq)
            pole = (1 - 1j * a / kappa) * mp.exp(-mp.mpc(a, kappa) * t)
        else:
            kappa = mp.sqrt(-kappa_sq)
            q, p = a + kappa, 1 / (a + kappa)
            pole = (q * mp.exp(-q * t) - p * mp.exp(-p * t)) / (2 * kappa)
        return complex(pole + 1j * _J_mp(g, t))


def sweep_errors(beta):
    """The continuum quadrature on SWEEP_TIMES from the two pieces that
    f00_quadrature joins, its errors and its own error estimates.  Each
    error is the gap to f00_closed, unless that gap is above 1e-12 and above
    the estimate: there the closed form may be the one off (near the
    critical band it loses digits), so the error is read against 50 digits."""
    panels = amplitudes._panel_set(beta)
    pos = SWEEP_TIMES > 0.0
    quad, estimate = np.empty(SWEEP_TIMES.shape, dtype=complex), np.empty(SWEEP_TIMES.shape)
    quad[pos], estimate[pos] = amplitudes._f00_oscillating(beta, panels, SWEEP_TIMES[pos])
    quad[~pos], estimate[~pos] = amplitudes._f00_at_zero(beta, panels)
    error = np.abs(quad - f00_closed(_unit_spec(beta), SWEEP_TIMES).values)
    for i in np.flatnonzero((error > 1e-12) & (error > estimate)):
        error[i] = abs(quad[i] - _f00_50_digits(beta, SWEEP_TIMES[i]))
    return quad, error, estimate


@pytest.mark.parametrize("beta", [
    1e-300, 1e-100, 1e-14, 1e-6, 1.0 / 137, 0.3, 2.0 / math.pi * math.sqrt(1.0 - 1e-6),
    2.0 / math.pi * math.sqrt(1.0 + 3e-9), 8.5, 1e3])
def test_quadrature_sweep_meets_the_closed_form(beta):
    # a few betas of the full sweep: 1e-9 at every time, and an error
    # estimate at least the error wherever that is above 1e-12
    quad, error, estimate = sweep_errors(beta)
    assert np.array_equal(f00_quadrature(_unit_spec(beta), SWEEP_TIMES).values, quad)
    assert error.max() <= 1e-9
    big = error > 1e-12
    assert np.all(estimate[big] >= error[big])
    assert estimate.max() <= 1e-9


def test_quadrature_resolves_the_resonance_at_beta_1_1943e_11():
    # panels in u put breakpoints 1e-11 apart near u = 1, where u**2 - 1
    # lost about eps/beta relative: the route missed f00_closed by 1.06e-7
    # here with no error
    spec = _unit_spec(1.1943e-11)
    t = np.arange(1201) * 0.05
    gap = np.abs(f00_quadrature(spec, t).values - f00_closed(spec, t).values)
    assert gap.max() <= 1e-9


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
    assert got[0] == pytest.approx((w0 + wk.sum()) ** 2, rel=1e-14, abs=0.0)
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
    # 2**20 + 1 modes x 129 times is just over 2**27 phase terms, seconds
    # of work; the guard fires before any block runs
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


@pytest.mark.parametrize("weights, freqs", [
    ([math.nan, 0.04, 0.03], [1.0, 2.0, 3.0]),
    ([0.9, 0.04, 0.03], [1.0, math.nan, 3.0]),
    ([0.9, 0.04, 0.03], [1.0, math.inf, 3.0]),
    ([0.9, 0.04, 0.03], [-1.0, 2.0, 3.0]),
    ([0.9, 0.04, 0.03], [3.0, 2.0, 1.0]),
    ([0.9, math.inf, 0.03], [1.0, 2.0, 3.0]),
    ([0.9, 0.04, 0.03], [1.0, 2.0, 3.0, 4.0]),
], ids=["nan-w0", "nan-frequency", "infinite-frequency", "negative-frequency",
        "descending-ladder", "infinite-weight", "length-mismatch"])
def test_cavity_survival_series_refuses_bad_inputs(monkeypatch, weights, freqs):
    # every entry point that takes a mode set refuses it before any phase
    # is summed; f00_discrete gets the bad frequencies on a stand-in set
    weights, freqs = np.array(weights), np.array(freqs)
    monkeypatch.setattr(amplitudes, "_phase_sums", _no_phase_sums)
    with pytest.raises(InputError):
        cavity_survival_series((weights[0], weights[1:]), freqs, [0.0, 1.0])
    with pytest.raises(InputError):
        f00_discrete(SimpleNamespace(frequencies=freqs, spec_snapshot=ANY_SPEC),
                     weights, [0.0, 1.0])
    with pytest.raises(InputError):
        NormalModeSet(frequencies=freqs, weights=weights,
                      source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)


def test_mode_sums_refuse_weights_over_the_mode_sets_slack(monkeypatch):
    # (0.9, 0.5) would give cavity survival probabilities up to 1.96; both
    # mode sums allow the slack a NormalModeSet allows, and no more
    tol = spectrum._WEIGHT_SUM_TOL
    freqs, times = np.array([1.0, 2.0]), [0.0, 1.0]
    modes = NormalModeSet(frequencies=freqs, weights=np.array([0.6, 0.4]),
                          source=ModeSource.FINITE_N, spec_snapshot=ANY_SPEC)
    within = np.array([0.5, 0.5 + tol / 2])
    assert cavity_survival_series((within[0], within[1:]), freqs, times).shape == (2,)
    assert f00_discrete(modes, within, times).values.shape == (2,)
    monkeypatch.setattr(amplitudes, "_phase_sums", _no_phase_sums)
    for weights in ((0.9, np.array([0.5])), (0.5, np.array([0.5 + 2 * tol]))):
        with pytest.raises(InputError, match="sum to at most 1"):
            cavity_survival_series(weights, freqs, times)
        with pytest.raises(InputError, match="sum to at most 1"):
            f00_discrete(modes, np.concatenate(([weights[0]], weights[1])), times)


def test_cavity_min_bound_frozen_values():
    weak = cavity_min_bound(0.005, "weak")
    assert weak.min_probability == pytest.approx(0.9742038791690163, rel=1e-12, abs=0.0)
    assert not weak.unphysical
    strong = cavity_min_bound(0.1, "strong")
    assert strong.min_probability == pytest.approx(0.6454492651886263, rel=1e-12, abs=0.0)
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


WEAK_BOUND_MIN_DELTA = 15.0 / (28.0 * math.pi)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_min_bounds_strictly_decrease(a, b):
    # the strong bound up to its zero delta_max = 0.3724; the weak one only
    # up to its minimum at 15/(28*pi) = 0.1705, where it turns back up
    a, b = sorted((a, b))
    assume(b - a >= 1e-6)
    for regime, top in (("strong", solve_delta_max()),
                        ("weak", WEAK_BOUND_MIN_DELTA)):
        lo, hi = a * top, b * top
        assert (cavity_min_bound(lo, regime).min_probability
                > cavity_min_bound(hi, regime).min_probability)


def test_weak_bound_minimum_sits_at_15_over_28_pi():
    deltas = np.linspace(0.0, solve_delta_max(), 2001)
    values = np.array([cavity_min_bound(d, "weak").min_probability
                       for d in deltas])
    k = int(np.argmin(values))
    assert abs(deltas[k] - WEAK_BOUND_MIN_DELTA) <= deltas[1]
    assert np.all(np.diff(values[: k + 1]) < 0.0)
    assert np.all(np.diff(values[k + 1 :]) > 0.0)


def test_bound_input_guards():
    with pytest.raises(InputError):
        cavity_min_bound(-0.1, "weak")
    with pytest.raises(InputError):
        cavity_min_bound(0.1, "tepid")


def test_amplitude_series_validation():
    with pytest.raises(InputError):
        AmplitudeSeries(times=np.array([0.0, 1.0]),
                        values=np.array([1.0 + 0j]),
                        spec_snapshot=ANY_SPEC)
