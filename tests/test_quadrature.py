import math

import numpy as np
import pytest

from dressedbath import quadrature
from dressedbath.errors import NumericalFailure
from dressedbath.quadrature import adaptive_gk, split_to_width


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


def test_split_to_width():
    edges = split_to_width([0.0, 1.0, 10.0], 0.7)
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert np.all(np.diff(edges) > 0)
    assert np.max(np.diff(edges)) <= 0.7 + 1e-12
    assert 1.0 in edges  # original boundaries survive


def _split_by_linspace(edges, max_width):
    # the per-gap definition split_to_width must reproduce bit for bit
    edges = np.asarray(edges, dtype=float)
    pieces = []
    for left, right in zip(edges[:-1], edges[1:]):
        n_sub = max(int(np.ceil((right - left) / max_width)), 1)
        pieces.append(np.linspace(left, right, n_sub + 1)[:-1])
    pieces.append(edges[-1:])
    return np.concatenate(pieces)


def test_split_to_width_matches_linspace_definition():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        edges = np.cumsum(rng.exponential(1.0, n) * 10.0 ** rng.uniform(-3, 3, n))
        width = 10.0 ** rng.uniform(-3, 2)
        new = split_to_width(edges, width)
        assert np.array_equal(new, _split_by_linspace(edges, width))


def test_batched_fourier_call_matches_scalar_calls():
    times = np.array([0.3, 4.0, 25.0])
    edges = [np.linspace(0.0, 10.0, 3 + 5 * k) for k in range(times.size)]
    vals, errs = adaptive_gk(lambda w: 1.0 / (1.0 + w * w), edges, 1e-12, times=times)
    for t, e, v, err in zip(times, edges, vals, errs):
        ref, ref_err = adaptive_gk(
            lambda w: 1.0 / (1.0 + w * w) * np.exp(-1j * w * t), e, 1e-12)
        assert v == pytest.approx(ref, abs=1e-15)
        assert err == pytest.approx(ref_err, abs=1e-15)


def test_batched_fourier_call_of_a_constant():
    times = np.array([1e-3, 0.5, 1.0, 7.0, 40.0])
    edges = [split_to_width([0.0, 1.0], math.pi / t) for t in times]
    vals, errs = adaptive_gk(np.ones_like, edges, 1e-13, times=times)
    # (1 - e^{-it})/(it), written as e^{-it/2} sin(t/2)/(t/2) so it does
    # not cancel at small t
    exact = np.exp(-0.5j * times) * np.sinc(times / (2.0 * math.pi))
    assert np.max(np.abs(vals - exact)) < 2e-15
    assert np.all(errs <= 1e-13)


def test_batched_refinement_is_per_time():
    # the spike forces refinement at every time; each time's result must
    # not depend on which other times share the call
    spike = lambda w: 1.0 / ((w - 0.3) ** 2 + 1e-6)  # noqa: E731
    times = np.array([0.1, 3.0, 50.0])
    edges = [[0.0, 1.0], [0.0, 0.5, 1.0], np.linspace(0.0, 1.0, 9)]
    vals, errs = adaptive_gk(spike, edges, [1e-9, 1e-8, 1e-7], times=times)
    for k, tol in enumerate([1e-9, 1e-8, 1e-7]):
        alone, alone_err = adaptive_gk(spike, edges[k:k + 1], tol, times=times[k:k + 1])
        assert vals[k] == alone[0] and errs[k] == alone_err[0]
        assert errs[k] <= tol


def test_batched_call_needs_one_edge_list_per_time():
    with pytest.raises(NumericalFailure):
        adaptive_gk(np.exp, [[0.0, 1.0]], 1e-9, times=[1.0, 2.0])
    with pytest.raises(NumericalFailure):
        adaptive_gk(np.exp, [[0.0, 1.0], [1.0, 0.0]], 1e-9, times=[1.0, 2.0])


def _reference_panels(func, lefts, rights, freqs=None):
    # the panel-major (P, 15) einsum formulation that the node-major kernel
    # must reproduce bit for bit
    q = quadrature
    centers = 0.5 * (lefts + rights)
    halves = 0.5 * (rights - lefts)
    nodes = centers[:, None] + halves[:, None] * q._NODES[None, :]
    fvals = np.asarray(func(nodes.ravel())).reshape(nodes.shape)
    if freqs is not None:
        arg = (halves * freqs)[:, None] * q._XGK_HALF[None, :7]
        phase = np.empty(nodes.shape, dtype=complex)
        np.cos(arg, out=phase.real[:, :7])
        np.sin(arg, out=phase.imag[:, :7])
        phase[:, 7] = 1.0
        phase.real[:, 8:] = phase.real[:, 6::-1]
        np.negative(phase.imag[:, 6::-1], out=phase.imag[:, 8:])
        arg = centers * freqs
        center = np.empty(arg.shape, dtype=complex)
        np.cos(arg, out=center.real)
        np.sin(arg, out=center.imag)
        np.negative(center.imag, out=center.imag)
        phase *= center[:, None]
        phase *= fvals
        fvals = phase
    kron = halves * np.einsum("ij,j->i", fvals, q._WGK)
    gauss = halves * np.einsum("ij,j->i", fvals[:, q._GAUSS_IDX], q._WG)
    return kron, np.abs(kron - gauss)


def _seeded_panels(rng, n_panels):
    # the first panels are equal parts of one gap, as split_to_width cuts
    # them (so their widths repeat), the rest have random widths
    equal = split_to_width([0.0, rng.uniform(1.0, 30.0)], rng.uniform(0.05, 2.0))
    n_equal = min(equal.size - 1, n_panels // 2)
    lefts = np.concatenate((equal[:n_equal], rng.uniform(0.0, 40.0, n_panels - n_equal)))
    rights = np.concatenate((equal[1:n_equal + 1],
                             lefts[n_equal:] + rng.exponential(0.5, n_panels - n_equal)))
    return lefts, rights


_KERNEL_INTEGRANDS = {
    # a real integrand phased by the times, with exact zeros of either sign
    "complex-with-times": (lambda w: np.where(w % 3.0 < 0.2, -0.0 * w, 1.0 / (1.0 + w * w)), True),
    "real": (lambda w: np.sin(3.0 * w) / (1.0 + w), False),
    "complex-without-times": (lambda w: np.exp(-1j * w) * np.where(w % 2.0 < 0.3, 0.0, w), False),
}


@pytest.mark.parametrize("kind", sorted(_KERNEL_INTEGRANDS))
@pytest.mark.parametrize("n_panels", [1, 2, 15, 700, 4500])
def test_panel_kernel_matches_the_panel_major_einsum_bitwise(kind, n_panels):
    func, with_times = _KERNEL_INTEGRANDS[kind]
    rng = np.random.default_rng(n_panels)
    for _ in range(3):
        lefts, rights = _seeded_panels(rng, n_panels)
        freqs = None
        if with_times:
            freqs = rng.choice([0.0, 0.37, 5.0, 41.5, 200.0], n_panels)
        got = quadrature._eval_panels(func, lefts, rights, freqs)
        want = _reference_panels(func, lefts, rights, freqs)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_distinct_matches_numpy_unique():
    rng = np.random.default_rng(11)
    for size in (0, 1, 2, 50, 3000):
        values = rng.choice(rng.normal(size=max(1, size // 7)), size)
        got, inverse = quadrature._distinct(values)
        want, want_inverse = np.unique(values, return_inverse=True)
        assert np.array_equal(got, want) and np.array_equal(inverse, want_inverse)
