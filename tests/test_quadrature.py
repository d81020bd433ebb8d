import hashlib
import math

import mpmath as mp
import numpy as np
import pytest

from dressedbath import OhmicSystemSpec, amplitudes, quadrature
from dressedbath.errors import NumericalFailure
from dressedbath.quadrature import adaptive_gk


def test_polynomial_exactness():
    # the 15-point Kronrod rule is exact through degree 22 on one panel
    val, err = adaptive_gk(lambda x: x**20, [0.0, 1.0], 1e-12)
    assert val == pytest.approx(1.0 / 21.0, rel=5e-15, abs=0.0)


def test_smooth_reference_values():
    val, _ = adaptive_gk(np.exp, [0.0, 1.0], 1e-13)
    assert val == pytest.approx(math.e - 1.0, rel=1e-14, abs=0.0)
    val, _ = adaptive_gk(np.cos, [0.0, 2.0 * math.pi], 1e-13)
    assert abs(val) < 1e-13


def test_oscillatory_integral():
    val, err = adaptive_gk(lambda x: np.cos(10.0 * x),
                           np.linspace(0.0, 50.0, 200), 1e-11)
    assert val == pytest.approx(math.sin(500.0) / 10.0, abs=5e-11)
    assert err <= 1e-11


def test_complex_integrand():
    val, _ = adaptive_gk(lambda x: np.exp(1j * x), [0.0, 1.0], 1e-13)
    assert val == pytest.approx((np.exp(1j) - 1.0) / 1j, rel=1e-14, abs=0.0)


def test_adaptive_refinement_resolves_a_spike():
    eps = 1e-6
    ref = (math.atan(0.7 / math.sqrt(eps)) + math.atan(0.3 / math.sqrt(eps))) / math.sqrt(eps)
    val, err = adaptive_gk(lambda x: 1.0 / ((x - 0.3) ** 2 + eps),
                           [0.0, 1.0], 1e-9)
    assert val == pytest.approx(ref, rel=1e-10)
    assert err <= 1e-9


def test_error_estimate_is_reported_when_budget_runs_out(monkeypatch):
    # a single round with one panel cannot resolve the spike; the returned
    # estimate must say so rather than silently claim convergence
    monkeypatch.setattr(quadrature, "_REFINE_ROUNDS", 0)
    val, err = adaptive_gk(lambda x: 1.0 / ((x - 0.3) ** 2 + 1e-6),
                           [0.0, 1.0], 1e-9)
    assert err > 1e-3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_integrand_raises():
    with pytest.raises(NumericalFailure):
        adaptive_gk(lambda x: 1.0 / (x - 0.5), [0.0, 1.0], 1e-9)


def test_bad_edges_raise():
    with pytest.raises(NumericalFailure):
        adaptive_gk(np.exp, [0.0, 0.0, 1.0], 1e-9)
    with pytest.raises(NumericalFailure):
        adaptive_gk(np.exp, [1.0], 1e-9)


def test_determinism():
    args = (lambda x: np.sin(3.0 * x) / (1.0 + x * x), np.linspace(0, 20, 7), 1e-12)
    v1, e1 = adaptive_gk(*args)
    v2, e2 = adaptive_gk(*args)
    assert v1 == v2 and e1 == e2


def test_batched_fourier_call_of_a_constant():
    # one panel [0, 1] whose Legendre series is 1: a_0 = 1, the rest 0
    times = np.array([1e-3, 0.5, 1.0, 7.0, 40.0, 1e4])
    coefs = np.zeros((1, 20))
    coefs[0, 0] = 1.0
    vals = quadrature._fourier_sums(np.array([0.5]), np.array([0.5]), coefs, times,
                                    np.ones(times.size, int))
    # (1 - e^{-it})/(it), written as e^{-it/2} sin(t/2)/(t/2) so it does
    # not cancel at small t
    exact = np.exp(-0.5j * times) * np.sinc(times / (2.0 * math.pi))
    assert np.max(np.abs(vals - exact)) < 2e-15


def test_batched_fourier_call_matches_scalar_calls():
    # each time sums its own prefix of the panels; its value must not depend
    # on which times share the call, nor on the panels past its prefix
    rng = np.random.default_rng(3)
    edges = np.cumsum(rng.exponential(0.3, 41))
    func = lambda w: np.cos(w) / (1.0 + w * w)  # noqa: E731
    lefts, rights, coefs, _, _ = quadrature._legendre_panels(func, edges, 1e-13)
    centers, halves = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    times = np.concatenate((rng.uniform(0.0, 60.0, 200), [0.0, 19.999, 20.0, 3e5]))
    counts = rng.integers(1, lefts.size + 1, times.size)
    vals = quadrature._fourier_sums(centers, halves, coefs, times, counts)
    for k in range(times.size):
        n = counts[k]
        alone = quadrature._fourier_sums(centers[:n], halves[:n], coefs[:n],
                                         times[k:k + 1], counts[k:k + 1])
        assert vals[k] == alone[0]


def test_fourier_sums_integrate_a_smooth_function():
    # int_0^b cos(w) e^{-iwt}/(1 + w**2) dw on fitted panels against a
    # Gauss-Kronrod integral of the phased integrand
    edges = np.linspace(0.0, 12.0, 25)
    func = lambda w: np.cos(w) / (1.0 + w * w)  # noqa: E731
    lefts, rights, coefs, tails, _ = quadrature._legendre_panels(func, edges, 1e-14)
    centers, halves = 0.5 * (lefts + rights), 0.5 * (rights - lefts)
    times = np.array([0.0, 0.3, 2.0, 9.5, 40.0, 300.0])
    vals = quadrature._fourier_sums(centers, halves, coefs, times,
                                    np.full(times.size, lefts.size))
    for t, v in zip(times, vals):
        ref, _ = adaptive_gk(lambda w, t=t: func(w) * np.exp(-1j * w * t),
                             np.linspace(0.0, 12.0, 1 + int(4 * t) + 24), 1e-14)
        assert abs(v - ref) <= 1e-13 + tails.sum()


def test_legendre_panels_refine_on_the_function_alone():
    # a spike is split until each panel's coefficient tail meets the
    # tolerance; the panels before a cut are the same with or without the
    # edges past it
    spike = lambda w: 1.0 / ((w - 0.3) ** 2 + 1e-6)  # noqa: E731
    lefts, rights, coefs, tails, gaps = quadrature._legendre_panels(
        spike, [0.0, 0.5, 1.0, 2.0], 1e-13)
    _, _, floors = quadrature._legendre_fit(spike, lefts, rights)
    assert np.all(tails <= np.maximum(1e-13, floors))
    assert np.array_equal(rights[:-1], lefts[1:]) and lefts.size > 3
    eps = 1e-6
    ref = (math.atan(1.7 / math.sqrt(eps)) + math.atan(0.3 / math.sqrt(eps))) / math.sqrt(eps)
    assert (2.0 * 0.5 * (rights - lefts) * coefs[:, 0]).sum() == pytest.approx(ref, rel=1e-12)
    short = quadrature._legendre_panels(spike, [0.0, 0.5, 1.0], 1e-13)
    n = short[0].size
    assert np.array_equal(gaps[:n], short[4]) and np.all(gaps[n:] == 2)
    for full, part in zip((lefts, rights, coefs, tails), short[:4]):
        assert np.array_equal(full[:n], part)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_legendre_panels_refuse_non_finite_values():
    with pytest.raises(NumericalFailure):
        quadrature._legendre_panels(lambda x: np.sqrt(x - 0.5), [0.0, 0.25, 1.0], 1e-13)


_BESSEL_POINTS = [0.0, 1e-8, 1e-3, 0.5] + [k * math.pi for k in range(1, 7)] + [
    19.999, 20.0, 20.001, 100.0, 1e4]


def test_spherical_bessel_matches_50_digits():
    # the zeros of j_0 at k*pi, where a j_0-anchored Miller recurrence
    # failed, and both sides of the switch to forward recurrence at 20
    got = quadrature._spherical_bessel(np.array(_BESSEL_POINTS))
    assert got.shape == (20, len(_BESSEL_POINTS))
    with mp.workdps(50):
        for i, x in enumerate(_BESSEL_POINTS):
            for m in range(20):
                ref = (mp.mpf(1 if m == 0 else 0) if x == 0.0 else
                       mp.sqrt(mp.pi / (2 * mp.mpf(x))) * mp.besselj(m + mp.mpf(1) / 2, x))
                assert abs(got[m, i] - float(ref)) <= 1e-15, (m, x)


def test_spherical_bessel_keeps_its_shape_and_order():
    x = np.array([[0.5, 25.0], [3.0, 0.0]])
    got = quadrature._spherical_bessel(x)
    assert got.shape == (20, 2, 2)
    assert np.array_equal(got.reshape(20, 4), quadrature._spherical_bessel(x.ravel()))


def _reference_panels(func, lefts, rights):
    # the panel-major (P, 15) einsum formulation, written out here so that
    # the kernel must reproduce it bit for bit
    q = quadrature
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = centers[:, None] + halves[:, None] * q._NODES[None, :]
    fvals = np.asarray(func(nodes.ravel())).reshape(nodes.shape)
    kron = halves * np.einsum("ij,j->i", fvals, q._WGK)
    gauss = halves * np.einsum("ij,j->i", fvals[:, q._GAUSS_IDX], q._WG)
    return kron, np.abs(kron - gauss)


def _seeded_panels(rng, n_panels):
    # the first panels are equal parts of one gap (so their widths repeat),
    # the rest have random widths
    gap = rng.uniform(1.0, 30.0)
    equal = np.linspace(0.0, gap, 1 + math.ceil(gap / rng.uniform(0.05, 2.0)))
    n_equal = min(equal.size - 1, n_panels // 2)
    lefts = np.concatenate((equal[:n_equal], rng.uniform(0.0, 40.0, n_panels - n_equal)))
    rights = np.concatenate((equal[1:n_equal + 1],
                             lefts[n_equal:] + rng.exponential(0.5, n_panels - n_equal)))
    return lefts, rights


_KERNEL_INTEGRANDS = {
    "real": lambda w: np.sin(3.0 * w) / (1.0 + w),
    "complex": lambda w: np.exp(-1j * w) * np.where(w % 2.0 < 0.3, 0.0, w),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_INTEGRANDS))
@pytest.mark.parametrize("n_panels", [1, 2, 15, 700, 4500])
def test_panel_kernel_matches_the_panel_major_einsum_bitwise(kind, n_panels):
    func = _KERNEL_INTEGRANDS[kind]
    rng = np.random.default_rng(n_panels)
    for _ in range(3):
        lefts, rights = _seeded_panels(rng, n_panels)
        got = quadrature._eval_panels(func, lefts, rights)
        want = _reference_panels(func, lefts, rights)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


# SHA-256 of the bytes of adaptive_gk's (value, error) on the kernel
# integrands, and of f00(0) with its error estimate, taken while the kernel
# still summed its complex values node by node
_GK_DIGESTS = {
    "real": "5317c68081270cca028f1fd52f6cb4748c6e044f0260006936c64caf2a895e9a",
    "complex": "3c6b645b19e80d387e0b680d3714c12ef299f2473537b30d1d2ac3a1c0b10453",
}
_F00_AT_ZERO_DIGESTS = {
    0.01: "c6b4108d6367f967ba53c25c49e5a00c40e1fda890d15236dc8f33508d68a716",
    2.0 / math.pi: "a6fb0b122ac3e816988d5397d486bdbd4ea2c46927b02e47a1c8d1b2aa8c7bed",
    3.0: "f52f840f4b8de60f55e236fbe581029edd476be5d478e5a9d329003937577044",
}


@pytest.mark.parametrize("kind", sorted(_GK_DIGESTS))
def test_adaptive_gk_is_bit_identical(kind):
    val, err = adaptive_gk(_KERNEL_INTEGRANDS[kind], np.linspace(0.0, 20.0, 7), 1e-10)
    assert hashlib.sha256(np.array([val, err]).tobytes()).hexdigest() == _GK_DIGESTS[kind]


@pytest.mark.parametrize("beta", sorted(_F00_AT_ZERO_DIGESTS))
def test_f00_at_zero_is_bit_identical(beta):
    # f00(0) is 1 to the last bit at these betas, so the estimate of the
    # adaptive tail is hashed with it
    value = amplitudes.f00_quadrature(OhmicSystemSpec.from_dimensionless(beta, 0.05),
                                      [0.0]).values
    _, err = amplitudes._f00_at_zero(beta, amplitudes._panel_set(beta))
    digest = hashlib.sha256(value.tobytes() + np.float64(err).tobytes()).hexdigest()
    assert digest == _F00_AT_ZERO_DIGESTS[beta]


def test_distinct_matches_numpy_unique():
    rng = np.random.default_rng(11)
    for size in (0, 1, 2, 50, 3000):
        values = rng.choice(rng.normal(size=max(1, size // 7)), size)
        got, inverse = quadrature._distinct(values)
        want, want_inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse)
