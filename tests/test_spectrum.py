"""Spectrum solvers against closed forms and high-precision root finding."""

import hashlib
import math
import time
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedbath import (
    InputError,
    ModeSource,
    NormalModeSet,
    NumericalFailure,
    OhmicSystemSpec,
    approx_small_L_spectrum,
    build_potential_matrix,
    cavity_smallness_factor,
    cavity_survival_series,
    cot_series_closed_form,
    cross_validate,
    derive_parameters,
    eigen_decompose,
    finite_matrix,
    series_identity_residual,
    solve_cavity_spectrum,
    solve_finite_spectrum,
)
from dressedbath import spectrum

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
    # M and its eigenvalues are in units of bar_omega**2
    m = build_potential_matrix(spec).entries
    lam = (solve_finite_spectrum(spec).frequencies / spec.bar_omega) ** 2
    bound = np.finfo(float).eps * np.linalg.norm(m, 2) * (spec.n_modes + 1)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(m))) <= bound


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_particle_weights_sum_to_one(spec):
    modes = solve_finite_spectrum(spec)
    assert abs(modes.weights.sum() - 1.0) < 1e-12
    assert np.all(modes.weights > 0.0)


SCALES = (1e-200, 1e-170, 1e-120, 1e-80, 1e-40, 1e40, 1e77, 1e120, 1e150, 1e200, 1e300)


@pytest.mark.parametrize("beta", (0.0073, 0.3, 3.0))
def test_spectral_routes_depend_on_bar_omega_only_through_beta_and_delta(beta):
    # in units of bar_omega the cavity ladders, the survival curve at
    # tau = bar_omega*t, the transform and the dense eigenvalues are
    # functions of beta and delta alone, and validate passes at every scale
    tau = np.linspace(0.0, 20.0, 41)

    def routes(bar_omega):
        spec = OhmicSystemSpec.from_dimensionless(beta, 0.05, bar_omega=bar_omega,
                                                  n_modes=20)
        ladders = [solve_cavity_spectrum(spec, k_max=100, variant=variant)
                   for variant in ("paper", "rederived")]
        w = ladders[1].weights
        survival = cavity_survival_series((w[0], w[1:]), ladders[1].frequencies,
                                          tau / bar_omega)
        matrix = finite_matrix(spec, solve_finite_spectrum(spec)).entries
        eigvals, _ = eigen_decompose(build_potential_matrix(spec))
        assert cross_validate(spec).all_passed, bar_omega
        return ladders, survival, matrix, eigvals

    ladders, survival, matrix, eigvals = routes(1.0)
    # the weights may move the curve by 2e-14; each phase (Omega_r/bar_omega)*tau
    # goes through the rounded Omega_r and t = tau/bar_omega, so it may move
    # by 4 ulp, and the curve by 8*eps*tau*sum_r weight_r*Omega_r/bar_omega more
    mean_freq = np.sum(ladders[1].weights * ladders[1].frequencies)
    drift = 2e-14 + 8.0 * np.finfo(float).eps * tau * mean_freq
    for bar_omega in SCALES:
        got = routes(bar_omega)
        for scaled, unit in zip(got[0], ladders):
            freq = scaled.frequencies / bar_omega
            assert np.max(np.abs(freq / unit.frequencies - 1.0)) <= 1e-14, bar_omega
            assert np.max(np.abs(scaled.weights / unit.weights - 1.0)) <= 1e-14, bar_omega
        assert np.all(np.abs(got[1] - survival) <= drift), bar_omega
        assert np.max(np.abs(got[2] - matrix)) <= 1e-12, bar_omega
        assert np.max(np.abs(got[3] / eigvals - 1.0)) <= 1e-13, bar_omega


def _secular_roots_40_digits(spec, lanes, guesses):
    # roots u = Omega/delta_omega of b**2 - u**2 = e**2 u**2 sum_k 1/(k**2 - u**2)
    # and their weights 1/(1 + e**2 sum_k k**2/(k**2 - u**2)**2), polished at
    # 40 digits by Newton from the double-precision roots
    d = derive_parameters(spec)
    with mp.workdps(40):
        step = mp.mpf(d.delta_omega)
        b_sq = (mp.mpf(spec.bar_omega) / step) ** 2
        e_sq = 2 * mp.mpf(spec.g) / step
        ks = [mp.mpf(k) for k in range(1, spec.n_modes + 1)]
        out = []
        for lane, guess in zip(lanes, guesses):
            u = mp.mpf(guess) / step
            for _ in range(3):
                u2 = u * u
                s1 = mp.fsum(1 / (k * k - u2) for k in ks)
                s2 = mp.fsum(k * k / (k * k - u2) ** 2 for k in ks)
                u -= (b_sq - u2 - e_sq * u2 * s1) / (-2 * u * (1 + e_sq * s2))
            u2 = u * u
            weight = 1 / (1 + e_sq * mp.fsum(k * k / (k * k - u2) ** 2 for k in ks))
            out.append((step * u, weight))
        return out


def test_weights_match_high_precision():
    # -1/h'(root) against the same expression at 40-digit roots, on lanes
    # at both ends of the spectrum and near the ladder top
    spec = OhmicSystemSpec.from_dimensionless(
        beta=0.22661737992930092, delta=3.5863648245494297, n_modes=500)
    modes = solve_finite_spectrum(spec)
    lanes = (0, 1, 250, 493, 499, 500)
    refs = _secular_roots_40_digits(spec, lanes, modes.frequencies[list(lanes)])
    for lane, (_, weight) in zip(lanes, refs):
        assert modes.weights[lane] == pytest.approx(float(weight), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("beta,delta,n", [(3.0, 0.05, 2000), (0.3, 0.7, 400),
                                          (0.05, 3.0, 1000)])
def test_finite_roots_and_weights_match_forty_digits(beta, delta, n):
    # both edge lanes (0 and N), the first collapsed lane, the middle and
    # the top of the ladder; at (3, 0.05, 2000) the old pole_sq - lam
    # weights were 1.6e-8 off on the top lanes
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta, n_modes=n)
    modes = solve_finite_spectrum(spec)
    lanes = (0, 1, n // 2, n - 3, n - 2, n - 1, n)
    refs = _secular_roots_40_digits(spec, lanes, modes.frequencies[list(lanes)])
    for lane, (freq, weight) in zip(lanes, refs):
        assert modes.frequencies[lane] == pytest.approx(float(freq), rel=1e-15, abs=0.0)
        assert modes.weights[lane] == pytest.approx(float(weight), rel=1e-13, abs=0.0)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    log_beta=st.floats(-3.0, 2.0),
    log_delta=st.floats(-3.0, math.log10(4.0)),
    n_modes=st.integers(1, 20000),
)
def test_finite_spectrum_interlaces_and_sums_everywhere(log_beta, log_delta, n_modes):
    spec = OhmicSystemSpec.from_dimensionless(10.0**log_beta, 10.0**log_delta,
                                              n_modes=n_modes)
    modes = solve_finite_spectrum(spec)
    ladder = derive_parameters(spec).delta_omega * np.arange(1, n_modes + 1)
    assert np.all(modes.frequencies[:-1] < ladder)
    assert np.all(ladder < modes.frequencies[1:])
    assert abs(math.fsum(modes.weights) - 1.0) <= 1e-12
    if n_modes <= 60:
        eigvals, vecs = eigen_decompose(build_potential_matrix(spec))
        assert np.max(np.abs(np.sqrt(eigvals) / modes.frequencies - 1.0)) <= 1e-13
        assert np.max(np.abs(vecs[0] ** 2 - modes.weights)) <= 1e-12


def _count_kernel_evaluations(monkeypatch):
    # lane evaluations and lanes of every _bracketed_roots call, through a
    # wrapped f
    counts = {"evaluations": 0, "lanes": 0}
    kernel = spectrum._bracketed_roots

    def counted(f, x, lo, hi):
        def wrapped(xs, lanes):
            counts["evaluations"] += np.size(xs)
            return f(xs, lanes)

        counts["lanes"] += np.size(x)
        return kernel(wrapped, x, lo, hi)

    monkeypatch.setattr(spectrum, "_bracketed_roots", counted)
    return counts


@pytest.mark.parametrize("route,size", [("finite", 40), ("finite", 300), ("finite", 4000),
                                        ("cavity", 1000), ("cavity", 100000)])
def test_root_kernel_takes_few_evaluations_per_lane(monkeypatch, route, size):
    # from the closed-form starts safeguarded Newton needs a few steps per
    # lane; the 1e-6 bisection it replaced took 24-25 (finite) and 40-52
    # (cavity) evaluations before its Newton steps
    counts = _count_kernel_evaluations(monkeypatch)
    if route == "finite":
        spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.7, n_modes=size)
        modes = solve_finite_spectrum(spec)
    else:
        spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.05)
        modes = solve_cavity_spectrum(spec, k_max=size)
    assert counts["lanes"] == modes.n_modes_total
    assert counts["evaluations"] <= 10 * counts["lanes"]


def test_finite_spectrum_memory_grows_linearly():
    peaks = []
    for n in (2000, 20000):
        spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.7, n_modes=n)
        tracemalloc.start()
        try:
            solve_finite_spectrum(spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 12 * peaks[0]


def test_strong_coupling_spectrum_stays_stable():
    # the renormalized construction keeps the lowest root positive even at
    # beta = 10 with a coarse ladder
    spec = OhmicSystemSpec(bar_omega=1.0, g=10.0, cavity_L=1.0, n_modes=50,
                           light_speed=1.0)
    modes = solve_finite_spectrum(spec)
    assert modes.frequencies[0] > 0.0
    assert modes.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_finite_spectrum_refuses_large_baths_at_once():
    # the secular solve is O(N) in time and memory, about 0.5 s at N = 10**6,
    # so N = 10**6 + 1 must fail before any work starts
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.7, n_modes=1_000_001)
    start = time.perf_counter()
    with pytest.raises(InputError, match="capped at n_modes = 1000000"):
        solve_finite_spectrum(spec)
    assert time.perf_counter() - start < 0.5


# ---------------------------------------------------------------------------
# cavity route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("route", [solve_cavity_spectrum, approx_small_L_spectrum])
def test_ladder_routes_refuse_large_k_max_at_once(route):
    # both ladders are O(k_max): the cavity solve at 10**6 takes about 0.07 s
    # and 17 MB, so 10**6 + 1 must fail before any array is built
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.005)
    start = time.perf_counter()
    with pytest.raises(InputError, match="k_max is capped at 1000000"):
        route(spec, k_max=1_000_001)
    assert time.perf_counter() - start < 0.5


# SHA-256 of a mode set's frequencies and weights, taken while both routes
# still solved all their lanes at once: k_max and N straddle the edges of
# the routes' 8192-lane blocks.  The weak spec sits at delta 0.1, where the
# paper variant's weights still sum below 1 (at delta 0.3 it is refused)
_CAVITY_DIGESTS = {
    (0.3, 0.05, "rederived"): {
        8191: "9e95a32b367973de04b21e74746de23dc7e3f83b4dc6721b8cb6ef46b901cef5",
        8192: "5bb3e0c1606e1dd89b9fc1237d9dc4489f73dcddcb18fa4d1758e0010e5ceb24",
        8193: "77ba84aef992137c4cc6686e84564af0f2c99c3769e1721a176715e75b9d1b75",
        16385: "ec78236c426d22a7278bb8ecb5be4585a11c94fef3915eef8d3e5eb5b8b92f57",
        100000: "415e20523482c556e862be1c47dfe0a66729fa61e215a258a73c9391df40fac3",
    },
    (0.3, 0.05, "paper"): {
        8191: "25c72d883bdf98ee11279731754db09d1794e024bc4397d7e520b25b84df3c92",
        8192: "f2a60a0b4e09f8eee23b0babfeba89c30ac97dc0346a210e85706b646292bdce",
        8193: "599243627b0025f72081d99e20ae0b02000adeb9d8c62f484e06c19508df6fa8",
        16385: "d92565a6d09591c0c95595b3ee717126a535bd1d7e13066a35241cda67fc81b6",
        100000: "9f7d0d14d792270b567ee9e42bffe2ae3340b9f06590829701605111a7071081",
    },
    (0.01, 0.1, "rederived"): {
        8191: "ebb2ba1d2b2637ec4d64775d2f4f8ad56d2a2d2bd4d02d19c4ffe5d22ecc82f4",
        8192: "e388f86df9f6469a228a9d8a99b6428cfd5b028a7d99eb0b8ca77f83d8df2af7",
        8193: "938fed774a254999a1a63c4a96323804cd45f244d81d334614c7abeda6f06399",
        16385: "a353766eee800a09340bfadf3b590dbd15ae092a917f7fcc27644e83a4cd44bb",
        100000: "7741962e209b8f5076eedf78c47f58d8486bcd2a4ad977fe72a921da681362b8",
    },
    (0.01, 0.1, "paper"): {
        8191: "087f07247f97e4262b123ed14ac246b06656a47fd090bce08d8806efe4f8dd10",
        8192: "930f37e308758bc4bdb4cbc4ffc18e9bd1d09c8db9ce98787d608e0ce5566b23",
        8193: "7b2bf517280c2ed3a2f755c089c74840d269aa26d10c22a1eca60805502b450f",
        16385: "5b2ca976bfa021d269204db2f07c69a4ec64e4a1e7eba730a937d4402c6977ce",
        100000: "0913fb7e65cb1b53abea143884f6d3b7a5f0d437c31eb2c3f6d504cd04dec3f4",
    },
}
_FINITE_DIGESTS = {
    8192: "7aec03be9ea9d705b567d516247316c96810a984007a29fc1a6513ae72addec4",
    8193: "2aebb295ae99bf00f9c5136c002f336ad5f265da68a36e1d368e1fb89399b650",
    20000: "fc5c999c80baaf4dda7336f721c0d0dd3832eb0a6ffaa29df6a6d9c7b10cb62b",
}


def _mode_digest(modes):
    return hashlib.sha256(modes.frequencies.tobytes() + modes.weights.tobytes()).hexdigest()


@pytest.mark.parametrize("beta,delta,variant", sorted(_CAVITY_DIGESTS))
def test_cavity_ladder_is_bit_identical(beta, delta, variant):
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
    for k_max, digest in _CAVITY_DIGESTS[beta, delta, variant].items():
        assert _mode_digest(solve_cavity_spectrum(spec, k_max=k_max, variant=variant)) == digest


@pytest.mark.parametrize("n_modes", sorted(_FINITE_DIGESTS))
def test_finite_spectrum_is_bit_identical(n_modes):
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.05, n_modes=n_modes)
    assert _mode_digest(solve_finite_spectrum(spec)) == _FINITE_DIGESTS[n_modes]


def test_cavity_ladder_prefixes_are_bit_identical():
    # branch k does not depend on k_max, so every shorter ladder is a
    # prefix of the longest, bit for bit, wherever its blocks end
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.05)
    full = solve_cavity_spectrum(spec, k_max=100000)
    for k_max in (8191, 8192, 8193, 20000):
        part = solve_cavity_spectrum(spec, k_max=k_max)
        assert part.frequencies.tobytes() == full.frequencies[:k_max + 1].tobytes()
        assert part.weights.tobytes() == full.weights[:k_max + 1].tobytes()


@settings(max_examples=3, deadline=None, derandomize=True)
@given(log_beta=st.floats(-3.0, 2.0), log_delta=st.floats(-2.0, math.log10(4.0)))
def test_long_cavity_ladders_interlace_and_sum_below_one(log_beta, log_delta):
    # at k_max 1e5 and 1e6 each root x_k stays inside its branch
    # (k*pi, (k+1)*pi), so the frequencies strictly increase, every weight
    # is positive, and the weight the ladder leaves out is at least 0 and
    # shrinks as the ladder grows
    spec = OhmicSystemSpec.from_dimensionless(10.0**log_beta, 10.0**log_delta)
    x_scale = spec.cavity_L / (2.0 * spec.light_speed)
    missing = []
    for k_max in (100_000, 1_000_000):
        modes = solve_cavity_spectrum(spec, k_max=k_max)
        x = x_scale * modes.frequencies
        k_pi = math.pi * np.arange(k_max + 1)
        assert np.all(k_pi < x) and np.all(x < k_pi + math.pi)
        assert np.all(modes.frequencies[1:] > modes.frequencies[:-1])
        assert np.all(modes.weights > 0.0)
        missing.append(1.0 - math.fsum(modes.weights))
    assert 0.0 <= missing[1] <= missing[0]


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
        assert modes.frequencies[k] == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_quantised_branch_root_converges():
    # in cot(s) - C/(2s) the two 1/s terms cancel here, which quantised f
    # to about 1e-12 and left the root good to 1e-10; branch 0 now keeps
    # cot(s) - 1/s and 1 - C/2 apart
    beta, delta = 2.94964, 2.8e-4
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
    modes = solve_cavity_spectrum(spec, k_max=50, variant="rederived")
    c_const = 2.0 - 2.0 * delta / (math.pi * beta**2)
    scale = 2.0 * spec.light_speed / spec.cavity_L
    ref = scale * _cavity_root_highprec(0, mp.mpf(delta), mp.mpf(c_const))
    assert modes.frequencies[0] == pytest.approx(ref, rel=1e-12, abs=0.0)


def _branch_zero_50_digits(beta, delta, base):
    # root of cot(s) - s/(pi*delta) - C/(2s) on (0, pi), C formed at 50 digits
    with mp.workdps(50):
        delta = mp.mpf(delta)
        c_const = base - 2 * delta / (mp.pi * mp.mpf(beta) ** 2)
        root = mp.findroot(lambda s: mp.cot(s) - s / (mp.pi * delta) - c_const / (2 * s),
                           (mp.mpf("1e-40"), mp.pi - mp.mpf("1e-30")),
                           solver="illinois", tol=mp.mpf(10) ** -45, maxsteps=500)
        return float(root)


@pytest.mark.parametrize("beta,delta", [(30.0, 1e-4), (2.94964, 2.8e-4), (100.0, 1e-3),
                                        (10.0, 0.01), (1.0, 1e-4), (0.3, 0.05),
                                        (0.01, 1e-3), (1.0, 3.0)])
@pytest.mark.parametrize("variant,base", [("paper", 1), ("rederived", 2)])
def test_branch_zero_matches_fifty_digits(beta, delta, variant, base):
    # at beta = 30, delta = 1e-4 the rederived root was 1.0e-9 off
    spec = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
    modes = solve_cavity_spectrum(spec, k_max=1, variant=variant)
    s = modes.frequencies[0] * spec.cavity_L / (2.0 * spec.light_speed)
    assert s == pytest.approx(_branch_zero_50_digits(beta, delta, base), rel=1e-12, abs=0.0)


def test_cavity_root_count_and_interlacing():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.05)
    modes = solve_cavity_spectrum(spec, k_max=500, variant="rederived")
    assert modes.n_modes_total == 501
    d = derive_parameters(spec)
    k = np.arange(501)
    assert np.all(modes.frequencies > k * d.delta_omega)
    assert np.all(modes.frequencies < (k + 1) * d.delta_omega)


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
        1.0 / math.sqrt(1.0 + math.pi * 0.005), rel=1e-15, abs=0.0)
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
    with pytest.raises(InputError, match="spacing"):
        approx_small_L_spectrum(spec, k_max=10)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_resonance_collision_is_refused():
    length = 2.0 * math.pi * (1.0 - 2e-13)
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.001, cavity_L=length,
                           light_speed=1.0)
    with pytest.raises(NumericalFailure):
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
        assert f.weak_limit == pytest.approx(beta, rel=1e-15, abs=0.0)
        assert f.strong_limit == pytest.approx(0.5 * math.pi * beta**2, rel=1e-15, abs=0.0)
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
    assert cot_series_closed_form(u) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_closed_form_small_u_limit():
    assert cot_series_closed_form(0.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15, abs=0.0)
    # both sides of the Taylor/cotangent seam of cot(s) - 1/s at s = pi*|u| = 0.5
    for u in (0.5 / math.pi - 1e-9, 0.5 / math.pi + 1e-9):
        ref = float(mp.nsum(lambda k: 1.0 / (k * k - mp.mpf(u) ** 2), [1, mp.inf]))
        assert cot_series_closed_form(u) == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_closed_form_within_rounding_of_40_digits():
    # the bracket cot(s) - 1/s sums its Taylor series below s = 0.5, so no
    # 1/(2u**2) of size up to 5e11 cancels down to pi**2/6; the series is even
    worst = 0.0
    for u in np.geomspace(1e-6, 0.9, 120):
        with mp.workdps(40):
            mu = mp.mpf(float(u))
            ref = 1 / (2 * mu * mu) - mp.pi * mp.cot(mp.pi * mu) / (2 * mu)
        for sign in (1.0, -1.0):
            worst = max(worst, float(abs(cot_series_closed_form(sign * u) - ref) / ref))
    assert worst < 4e-15


def test_closed_form_pole_guard():
    with pytest.raises(NumericalFailure):
        cot_series_closed_form(2.0 + 1e-14)
    with pytest.raises(InputError):
        cot_series_closed_form(float("nan"))


def test_residual_scales_like_the_truncation_tail():
    # tail of sum 1/(k^2 - u^2) beyond n is ~1/n
    res = series_identity_residual(0.3, n_terms=10000)
    assert 0.5e-4 < res < 2.0e-4


def test_residual_refuses_huge_term_counts_at_once():
    # 10**7 terms take about 0.13 s, so 10**12 would run for hours
    start = time.perf_counter()
    with pytest.raises(InputError, match="n_terms is capped at 100000000"):
        series_identity_residual(0.3, n_terms=10**12)
    assert time.perf_counter() - start < 0.5


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
    with pytest.raises(InputError):
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


@pytest.mark.parametrize("beta", [1e-300, 1e-200, 1e-160])
def test_smallness_factor_survives_an_underflowing_beta_squared(beta):
    # beta**2 underflows here, and the factor once divided by it
    f = cavity_smallness_factor(OhmicSystemSpec(bar_omega=1.0, g=beta, cavity_L=1.0))
    assert f.full == pytest.approx(beta, rel=1e-15, abs=0.0)
    assert f.weak_limit == beta
