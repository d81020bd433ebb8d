import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from dressedbath import (
    InputError,
    NumericalFailure,
    OhmicSystemSpec,
    approx_small_L_spectrum,
    derive_parameters,
    expansion_coefficient,
    finite_matrix,
    solve_cavity_spectrum,
    solve_finite_spectrum,
)


def test_equal_mixing_point():
    # with the bare particle frequency tuned onto the single bath mode the
    # 2x2 problem mixes at exactly 45 degrees: all four entries 1/sqrt(2)
    bar_omega = 2.0 * math.sqrt(math.pi * (math.pi - 1.0))
    spec = OhmicSystemSpec(bar_omega=bar_omega, g=1.0, cavity_L=1.0,
                           n_modes=1, light_speed=1.0)
    d = derive_parameters(spec)
    assert d.omega0**2 == pytest.approx(d.delta_omega**2, rel=1e-14, abs=0.0)
    modes = solve_finite_spectrum(spec)
    tm = finite_matrix(spec, modes)
    assert np.allclose(np.abs(tm.entries), 0.5 * math.sqrt(2.0), rtol=1e-10)
    assert np.allclose(modes.weights, [0.5, 0.5], rtol=1e-10)


@pytest.mark.parametrize("n", [3, 17])
def test_columns_are_orthonormal(n):
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.6, cavity_L=2.0, n_modes=n,
                           light_speed=1.0)
    modes = solve_finite_spectrum(spec)
    tm = finite_matrix(spec, modes)
    gram = tm.entries.T @ tm.entries
    assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-10
    # first row squared reproduces the particle weights
    assert np.allclose(tm.entries[0, :] ** 2, modes.weights, atol=1e-12)
    assert np.all(tm.entries[0, :] > 0.0)


def test_finite_matrix_requires_matching_mode_set():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.6, cavity_L=2.0, n_modes=3,
                           light_speed=1.0)
    other = OhmicSystemSpec(bar_omega=1.0, g=0.6, cavity_L=2.0, n_modes=5,
                            light_speed=1.0)
    modes = solve_finite_spectrum(other)
    with pytest.raises(InputError):
        finite_matrix(spec, modes)
    cavity = solve_cavity_spectrum(spec, k_max=4)
    with pytest.raises(InputError):
        finite_matrix(spec, cavity)


# ---------------------------------------------------------------------------
# small-cavity particle weights, carried by the small-cavity mode set
# ---------------------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_weight_values():
    spec = OhmicSystemSpec.from_dimensionless(beta=1.0 / 137, delta=0.005)
    weak = approx_small_L_spectrum(spec, k_max=1000, regime="weak")
    w0, ladder = weak.weights[0], weak.weights[1:]
    assert w0 == pytest.approx(1.0 - math.pi * 0.005, rel=1e-15, abs=0.0)
    k = np.arange(1, 1001)
    assert np.allclose(ladder, 2.0 * 0.005 / (math.pi * k**2), rtol=1e-15, atol=0.0)
    # zeta(2) closes the ladder sum: total deficit is ~ -2 pi delta/3 + w0
    total = w0 + ladder.sum()
    assert total < 1.0
    assert total == pytest.approx(1.0 - 2.0 * math.pi * 0.005 / 3.0, abs=1e-4)

    strong = approx_small_L_spectrum(spec, k_max=10, regime="strong")
    assert strong.weights[0] == pytest.approx(1.0 / (1.0 + 0.5 * math.pi * 0.005),
                                              rel=1e-15, abs=0.0)
    # only w0 depends on the regime
    assert np.array_equal(strong.weights[1:], ladder[:10])
    assert np.array_equal(strong.frequencies, weak.frequencies[:11])


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_small_L_weight_guards():
    # pi*delta >= 1: the weak w0 = 1 - pi*delta is not positive, and the
    # strong weights sum above 1 (about 1.32 here at k_max = 5)
    for beta, delta in ((1.0, 0.4), (10.0, 1.0)):
        big = OhmicSystemSpec.from_dimensionless(beta=beta, delta=delta)
        for regime in ("weak", "strong"):
            with pytest.raises(InputError, match=r"pi\*delta < 1"):
                approx_small_L_spectrum(big, k_max=5, regime=regime)
    # just below the bound both weight rows still sum below 1
    edge = OhmicSystemSpec.from_dimensionless(beta=1.0, delta=0.99 / math.pi)
    for regime in ("weak", "strong"):
        assert approx_small_L_spectrum(edge, k_max=10000, regime=regime).weights.sum() < 1.0
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.01)
    with pytest.raises(InputError):
        approx_small_L_spectrum(spec, k_max=10, regime="tepid")
    with pytest.raises(InputError):
        approx_small_L_spectrum(spec, k_max=0)


def test_small_L_weight_warning():
    spec = OhmicSystemSpec.from_dimensionless(beta=1.0, delta=0.06)
    with pytest.warns(UserWarning, match="indicative"):
        approx_small_L_spectrum(spec, k_max=10, regime="strong")


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------

def test_expansion_coefficient_hand_value():
    row = np.array([0.5, 0.3, math.sqrt(1.0 - 0.25 - 0.09)])
    got = expansion_coefficient(4, (2, 1, 1), row)
    want = math.sqrt(math.factorial(4) / (2 * 1 * 1)) * 0.5**2 * 0.3 * row[2]
    assert got.value == pytest.approx(want, rel=1e-13, abs=0.0)
    assert got.particle_level == 4
    assert got.occupations == (2, 1, 1)


def test_expansion_coefficient_selection_rule():
    row = np.array([0.8, 0.6])
    assert expansion_coefficient(3, (1, 1), row).value == 0.0
    assert expansion_coefficient(2, (0, 2), np.array([0.8, 0.0])).value == 0.0
    assert expansion_coefficient(0, (0, 0), row).value == 1.0


def test_expansion_coefficient_normalization_small_case():
    # multinomial closure at n0' = 3 over three modes
    row = np.array([0.2, 0.5, math.sqrt(1.0 - 0.04 - 0.25)])
    total = 0.0
    for occ in itertools.product(range(4), repeat=3):
        if sum(occ) != 3:
            continue
        total += expansion_coefficient(3, occ, row).value ** 2
    assert total == pytest.approx(1.0, abs=1e-14)


def test_expansion_coefficient_underflow_returns_zero():
    row = np.full(4, 1e-40)
    got = expansion_coefficient(10, (4, 3, 2, 1), row)
    assert got.value == 0.0


def test_expansion_coefficient_guards():
    row = np.array([0.5, 0.5])
    with pytest.raises(NumericalFailure):
        expansion_coefficient(21, (21, 0), row)
    with pytest.raises(NumericalFailure):
        expansion_coefficient(20, (20, 0), np.array([1e20, 0.5]))
    with pytest.raises(InputError):
        expansion_coefficient(-1, (0,), row)
    with pytest.raises(InputError):
        expansion_coefficient(2, (-1, 3), row)
    with pytest.raises(InputError):
        expansion_coefficient(1, (1, 0), np.array([-0.5, 0.5]))
    with pytest.raises(InputError):
        expansion_coefficient(2, (1, 1, 0), row)


def test_finite_matrix_refuses_large_baths_before_allocating():
    # the (N+1)**2 matrix, its gap array and Gram product take 0.63 GB at
    # N = 5000; one more mode fails at once, having allocated nothing of it
    spec = OhmicSystemSpec.from_dimensionless(beta=0.3, delta=0.7, n_modes=5001)
    modes = solve_finite_spectrum(spec)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="capped at n_modes = 5000"):
            finite_matrix(spec, modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 0.5
    assert peak < 2**20
