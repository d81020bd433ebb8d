"""Spectrum solvers against closed forms and high-precision root finding."""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from dressedbath import (
    InputError,
    ModeSource,
    NormalModeSet,
    OhmicSystemSpec,
    ParameterError,
    SingularityError,
    approx_small_L_spectrum,
    build_potential_matrix,
    cavity_smallness_factor,
    cot_series_closed_form,
    derive_parameters,
    series_identity_residual,
    solve_cavity_spectrum,
    solve_finite_spectrum,
)
from dressedbath.errors import DimensionMismatch

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# finite-N route
# ---------------------------------------------------------------------------

def _two_by_two_reference(spec):
    # eigen-decomposition of [[w0^2, -c1], [-c1, w1^2]] written out
    d = derive_parameters(spec)
    a = d.omega0**2
    b = (1.0 * d.delta_omega) ** 2
    c1 = d.eta * d.delta_omega
    mean = 0.5 * (a + b)
    split = 0.5 * math.hypot(a - b, 2.0 * c1)
    lams = np.array([mean - split, mean + split])
    weights = c1**2 / (c1**2 + (a - lams) ** 2)
    return np.sqrt(lams), weights


def test_single_mode_matches_closed_form():
    spec = OhmicSystemSpec(bar_omega=1.3, g=0.4, cavity_L=2.0, n_modes=1,
                           light_speed=1.0)
    modes = solve_finite_spectrum(spec)
    freq_ref, w_ref = _two_by_two_reference(spec)
    assert np.allclose(modes.frequencies, freq_ref, rtol=1e-12)
    assert np.allclose(modes.weights, w_ref, rtol=1e-11)
    assert modes.source is ModeSource.FINITE_N


SPEC_GRID = [
    OhmicSystemSpec(bar_omega=1.0, g=0.05, cavity_L=1.0, n_modes=7, light_speed=1.0),
    OhmicSystemSpec(bar_omega=1.0, g=2.0, cavity_L=3.0, n_modes=25, light_speed=1.0),
    OhmicSystemSpec(bar_omega=5.0, g=50.0, cavity_L=0.1, n_modes=60, light_speed=1.0),
    # ladder top far below bar_omega: the top root sits well above the ladder
    OhmicSystemSpec.from_dimensionless(beta=0.001, delta=0.5, n_modes=1),
    OhmicSystemSpec.from_dimensionless(beta=0.001, delta=0.5, n_modes=7),
]


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_roots_interlace_the_bath_ladder(spec):
    modes = solve_finite_spectrum(spec)
    d = derive_parameters(spec)
    poles = (d.delta_omega * np.arange(1, spec.n_modes + 1)) ** 2
    lam = modes.frequencies**2
    assert lam[0] > 0.0
    assert np.all(lam[:-1] < poles)
    assert np.all(lam[1:] > poles)


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_roots_match_dense_eigenvalues(spec):
    m = build_potential_matrix(spec).entries
    lam = solve_finite_spectrum(spec).frequencies ** 2
    bound = np.finfo(float).eps * np.linalg.norm(m, 2) * (spec.n_modes + 1)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(m))) <= bound


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_particle_weights_sum_to_one(spec):
    modes = solve_finite_spectrum(spec)
    assert abs(modes.weights.sum() - 1.0) < 1e-12
    assert np.all(modes.weights > 0.0)


def test_weights_match_high_precision():
    # -1/h'(root) against the same expression at 50-digit roots, on lanes
    # at both ends of the spectrum and near the ladder top
    spec = OhmicSystemSpec.from_dimensionless(
        beta=0.22661737992930092, delta=3.5863648245494297, n_modes=500)
    modes = solve_finite_spectrum(spec)
    d = derive_parameters(spec)
    with mp.workdps(50):
        poles = [(mp.mpf(d.delta_omega) * k) ** 2 for k in range(1, 501)]
        eta_sq = mp.mpf(d.eta) ** 2
        bar_sq = mp.mpf(spec.bar_omega) ** 2

        def secular(lam):
            return bar_sq - lam - eta_sq * lam * mp.fsum(1 / (p - lam) for p in poles)

        for lane in (0, 1, 250, 493, 499, 500):
            lam = mp.findroot(secular, mp.mpf(modes.frequencies[lane]) ** 2)
            ref = 1 / (1 + eta_sq * mp.fsum(p / (p - lam) ** 2 for p in poles))
            assert modes.weights[lane] == pytest.approx(float(ref), rel=5e-11, abs=0.0)


def test_strong_coupling_spectrum_stays_stable():
    # the renormalized construction keeps the lowest root positive even at
    # beta = 10 with a coarse ladder
    spec = OhmicSystemSpec(bar_omega=1.0, g=10.0, cavity_L=1.0, n_modes=50,
                           light_speed=1.0)
    modes = solve_finite_spectrum(spec)
    assert modes.frequencies[0] > 0.0
    assert modes.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_finite_spectrum_refuses_large_baths_at_once():
    # the secular solve is O(N**2) in time and memory: N = 5000 takes about
    # 5 s and 0.6 GB, so N = 5001 must fail before any of that work starts
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.7, n_modes=5001)
    start = time.perf_counter()
    with pytest.raises(InputError, match="capped at n_modes = 5000"):
        solve_finite_spectrum(spec)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# cavity route
# ---------------------------------------------------------------------------

def _cavity_root_highprec(k, delta, c_const):
    kpi = k * mp.pi

    def branch_eq(s):
        x = kpi + s
        return mp.cot(s) - x / (mp.pi * delta) - c_const / (2 * x)

    s = mp.findroot(branch_eq, (mp.mpf("1e-12"), mp.pi - mp.mpf("1e-9")),
                    solver="anderson")
    return float(kpi + s)


@pytest.mark.parametrize("beta,delta", [(1.0 / 137, 0.005), (10.0, 0.3)])
@pytest.mark.parametrize("variant,base", [("paper", 1.0), ("rederived", 2.0)])
def test_cavity_roots_match_high_precision(beta, delta, variant, base):
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
    modes = solve_cavity_spectrum(spec, k_max=100, variant=variant)
    c_const = base - 2.0 * delta / (math.pi * beta**2)
    scale = 2.0 * spec.light_speed / spec.cavity_L
    for k in (0, 1, 7, 100):
        ref = scale * _cavity_root_highprec(k, mp.mpf(delta), mp.mpf(c_const))
        assert modes.frequencies[k] == pytest.approx(ref, rel=1e-12)


def test_quantised_branch_root_converges():
    # f on branch 0 is quantised to about 1e-12 here, so Newton can land on
    # a bracket end or stall short of a 1e-13 step; the branch must still
    # stop, at a root only as sharp as that quantisation allows
    beta, delta = 2.94964, 2.8e-4
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
    modes = solve_cavity_spectrum(spec, k_max=50, variant="rederived")
    c_const = 2.0 - 2.0 * delta / (math.pi * beta**2)
    scale = 2.0 * spec.light_speed / spec.cavity_L
    ref = scale * _cavity_root_highprec(0, mp.mpf(delta), mp.mpf(c_const))
    assert modes.frequencies[0] == pytest.approx(ref, rel=1e-10)


def test_cavity_root_count_and_interlacing():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.05)
    modes = solve_cavity_spectrum(spec, k_max=500, variant="rederived")
    assert modes.n_modes_total == 501
    d = derive_parameters(spec)
    k = np.arange(501)
    assert np.all(modes.frequencies > k * d.delta_omega)
    assert np.all(modes.frequencies < (k + 1) * d.delta_omega)
    assert modes.variant == "rederived"


def test_deep_branch_roots_stay_accurate():
    # at k ~ 1e4 the shifted formulation must not lose digits to kpi
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.05)
    modes = solve_cavity_spectrum(spec, k_max=10000, variant="rederived")
    c_const = 2.0 - 2.0 * 0.05 / (math.pi * 0.01)
    scale = 2.0 * spec.light_speed / spec.cavity_L
    ref = scale * _cavity_root_highprec(10000, mp.mpf("0.05"), mp.mpf(c_const))
    assert modes.frequencies[10000] == pytest.approx(ref, rel=1e-12)


def test_lowest_mode_depends_on_the_cotangent_constant():
    # frozen regression values at beta = 1/137, delta = 0.005: the two
    # published constants land the lowest mode on opposite sides of
    # bar_omega, and only the rederived one keeps it below (a coupled
    # lowest mode must be red-shifted, which the finite-N route confirms).
    spec = OhmicSystemSpec.from_dimensionless(beta=1.0 / 137, delta=0.005)
    paper = solve_cavity_spectrum(spec, k_max=2, variant="paper")
    redone = solve_cavity_spectrum(spec, k_max=2, variant="rederived")
    assert paper.frequencies[0] == pytest.approx(1.0056181007262488, rel=1e-9)
    assert redone.frequencies[0] == pytest.approx(0.997307665638838, rel=1e-9)
    assert redone.frequencies[0] < spec.bar_omega < paper.frequencies[0]


def test_cavity_weights_are_the_closed_form():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.2, delta=0.01)
    modes = solve_cavity_spectrum(spec, k_max=200, variant="rederived")
    d = derive_parameters(spec)
    om_sq = modes.frequencies**2
    bar_sq = spec.bar_omega**2
    denom = (om_sq - bar_sq) ** 2 + 0.5 * d.eta**2 * (3 * om_sq - bar_sq) \
        + (math.pi * spec.g) ** 2 * om_sq
    assert np.allclose(modes.weights, d.eta**2 * om_sq / denom, rtol=1e-13)
    assert modes.weights.sum() < 1.0 + 1e-8


def test_cavity_guards():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.05)
    with pytest.raises(InputError):
        solve_cavity_spectrum(spec, variant="folklore")
    with pytest.raises(InputError):
        solve_cavity_spectrum(spec, k_max=-1)
    with pytest.raises(InputError):
        solve_cavity_spectrum(spec, k_max=2.0)


# ---------------------------------------------------------------------------
# small-cavity asymptotics
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_lowest_mode_and_displacements():
    spec = OhmicSystemSpec.from_dimensionless(beta=1.0 / 137, delta=0.005)
    modes = approx_small_L_spectrum(spec, k_max=50)
    d = derive_parameters(spec)
    assert modes.source is ModeSource.SMALL_L_ASYMPTOTIC
    assert modes.spec_snapshot == spec
    assert modes.frequencies.shape == modes.weights.shape == (51,)
    assert modes.frequencies[0] == pytest.approx(
        1.0 / math.sqrt(1.0 + math.pi * 0.005), rel=1e-15)
    rho = spec.bar_omega / d.delta_omega
    k = np.arange(1, 51)
    eps_ref = (0.005 / math.pi) * k / (k**2 - rho**2)
    assert np.allclose(modes.frequencies[1:], d.delta_omega * (k + eps_ref),
                       rtol=1e-15, atol=0.0)
    # every displacement stays inside its own ladder gap
    ladder = modes.frequencies[1:] / d.delta_omega
    assert np.all((ladder > k) & (ladder < k + 1))
    assert np.all(np.diff(modes.frequencies) > 0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_tracks_exact_cavity_ladder():
    # ladder displacements agree with the exact cotangent roots to O(delta^2)
    spec = OhmicSystemSpec.from_dimensionless(beta=1.0 / 137, delta=0.005)
    exact = solve_cavity_spectrum(spec, k_max=50, variant="rederived")
    approx = approx_small_L_spectrum(spec, k_max=50)
    rel = np.abs(approx.frequencies[1:] / exact.frequencies[1:] - 1.0)
    assert np.max(rel) < 1e-4


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_requires_wide_mode_spacing():
    # rho = bar_omega/delta_omega >= 1 means the ladder starts below the
    # particle line; the first-order ordering argument collapses there
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.01, cavity_L=2.0 * math.pi * 1.5,
                           light_speed=1.0)
    with pytest.raises(ParameterError, match="spacing"):
        approx_small_L_spectrum(spec, k_max=10)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_resonance_collision_is_refused():
    length = 2.0 * math.pi * (1.0 - 2e-13)
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.001, cavity_L=length,
                           light_speed=1.0)
    with pytest.raises(SingularityError):
        approx_small_L_spectrum(spec, k_max=10)


def test_small_L_warns_outside_validity():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.05, delta=0.04)
    with pytest.warns(UserWarning, match="validity"):
        approx_small_L_spectrum(spec, k_max=10)


def test_smallness_factor_identities():
    for beta in (1.0 / 137, 0.3, 1.0, 10.0):
        spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=0.001)
        f = cavity_smallness_factor(spec)
        residual = f.full**2 - math.pi * beta**2 * f.full - beta**2
        assert abs(residual) < 1e-12 * f.full**2
        assert f.weak_limit == pytest.approx(beta, rel=1e-15)
        assert f.strong_limit == pytest.approx(0.5 * math.pi * beta**2, rel=1e-15)
        assert f.full > f.strong_limit
        assert f.full > 0
    # the limiting forms are only asymptotic names: at strong coupling the
    # exact root sits a factor ~2 above the quoted strong form
    strong = cavity_smallness_factor(OhmicSystemSpec.from_dimensionless(10.0, 0.001))
    assert 1.95 < strong.full / strong.strong_limit < 2.05
    weak = cavity_smallness_factor(OhmicSystemSpec.from_dimensionless(1.0 / 137, 0.001))
    assert 1.0 < weak.full / weak.weak_limit < 1.03


# ---------------------------------------------------------------------------
# series identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("u", [0.005, 0.05, 0.3, 0.9, 0.999, 1.5, 2.7])
def test_closed_form_against_mpmath(u):
    ref = float(mp.nsum(lambda k: 1.0 / (k * k - mp.mpf(u) ** 2), [1, mp.inf]))
    assert cot_series_closed_form(u) == pytest.approx(ref, rel=1e-13)


def test_closed_form_small_u_limit():
    assert cot_series_closed_form(0.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    # both sides of the Taylor/cotangent seam at |u| = 0.01
    for u in (0.009999, 0.010001):
        ref = float(mp.nsum(lambda k: 1.0 / (k * k - mp.mpf(u) ** 2), [1, mp.inf]))
        assert cot_series_closed_form(u) == pytest.approx(ref, rel=1e-13)


def test_closed_form_pole_guard():
    with pytest.raises(SingularityError):
        cot_series_closed_form(2.0 + 1e-14)
    with pytest.raises(InputError):
        cot_series_closed_form(float("nan"))


def test_residual_scales_like_the_truncation_tail():
    # tail of sum 1/(k^2 - u^2) beyond n is ~1/n
    res = series_identity_residual(0.3, n_terms=10000)
    assert 0.5e-4 < res < 2.0e-4


def test_residual_guards():
    with pytest.raises(InputError):
        series_identity_residual(0.0)
    with pytest.raises(InputError):
        series_identity_residual(1.0)
    with pytest.raises(InputError):
        series_identity_residual(0.3, n_terms=0)


# ---------------------------------------------------------------------------
# container validation
# ---------------------------------------------------------------------------

def test_mode_set_validation():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, light_speed=1.0)
    good = NormalModeSet(frequencies=np.array([1.0, 2.0]),
                         weights=np.array([0.6, 0.4]),
                         source=ModeSource.FINITE_N, spec_snapshot=spec)
    assert not good.frequencies.flags.writeable
    with pytest.raises(InputError):
        NormalModeSet(frequencies=np.array([2.0, 1.0]),
                      weights=np.array([0.5, 0.5]),
                      source=ModeSource.FINITE_N, spec_snapshot=spec)
    with pytest.raises(DimensionMismatch):
        NormalModeSet(frequencies=np.array([1.0, 2.0]),
                      weights=np.array([1.0]),
                      source=ModeSource.FINITE_N, spec_snapshot=spec)
    with pytest.raises(InputError):
        NormalModeSet(frequencies=np.array([1.0, 2.0]),
                      weights=np.array([0.7, 0.7]),
                      source=ModeSource.FINITE_N, spec_snapshot=spec)
    with pytest.raises(InputError):
        NormalModeSet(frequencies=np.array([1.0, 2.0]),
                      weights=np.array([0.5, -0.1]),
                      source=ModeSource.FINITE_N, spec_snapshot=spec)
