"""Scaled exponential integrals against an arbitrary-precision reference."""

import hashlib
import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedbath.special import ei_scaled, exp1_scaled, psi, psi1

mp.mp.dps = 40


def _ref_exp1_scaled(z: complex) -> complex:
    zm = mp.mpc(z)
    return complex(mp.exp(zm) * mp.e1(zm))


def _ref_ei_scaled(x: float) -> float:
    xm = mp.mpf(x)
    return float(mp.exp(-xm) * mp.ei(xm))


REAL_PARTS = [0.3, 7.0, 120.0, 599.5, 600.5, 2000.0, 1e5]
IMAG_PARTS = [0.0, 0.4, 35.0, 900.0]


@pytest.mark.parametrize("re", REAL_PARTS)
@pytest.mark.parametrize("im", IMAG_PARTS)
def test_exp1_scaled_right_half_plane(re, im):
    z = complex(re, im)
    got = exp1_scaled(z)
    want = _ref_exp1_scaled(z)
    assert abs(got - want) <= 5e-14 * abs(want)


@pytest.mark.parametrize("re", REAL_PARTS)
@pytest.mark.parametrize("im", [0.4, 35.0, 900.0])
def test_exp1_scaled_left_half_plane(re, im):
    # negative real part, kept off the branch cut on the negative axis
    z = complex(-re, im)
    got = exp1_scaled(z)
    want = _ref_exp1_scaled(z)
    assert abs(got - want) <= 5e-14 * abs(want)


@pytest.mark.parametrize("x", [0.05, 0.8, 12.0, 130.0, 599.5, 600.5, 5e3, 1e6])
def test_ei_scaled_positive_axis(x):
    got = ei_scaled(x)
    want = _ref_ei_scaled(x)
    assert got == pytest.approx(want, rel=5e-14, abs=0.0)


def test_branch_seam_is_smooth():
    # either side of the series cut at |Re z| = 600 stays pinned to the
    # high-precision value; no accuracy cliff at the switchover
    lo, hi = 600.0 - 1e-6, 600.0 + 1e-6
    assert ei_scaled(lo) == pytest.approx(_ref_ei_scaled(lo), rel=5e-13, abs=0.0)
    assert ei_scaled(hi) == pytest.approx(_ref_ei_scaled(hi), rel=5e-13, abs=0.0)
    a = exp1_scaled(complex(lo, 1.0))
    b = exp1_scaled(complex(hi, 1.0))
    ref_a = _ref_exp1_scaled(complex(lo, 1.0))
    ref_b = _ref_exp1_scaled(complex(hi, 1.0))
    assert abs(a - ref_a) <= 5e-13 * abs(ref_a)
    assert abs(b - ref_b) <= 5e-13 * abs(ref_b)


def test_array_and_scalar_forms_agree():
    # the seams hold the lanes whose last bit a deeper sum would still move
    xs = np.concatenate((
        [0.5, 3.0, 30.0, 700.0, 4000.0],
        [x for b in (1.0, 3.06, 8.0, 16.0, 25.0, 40.0, 45.0, 60.0, 120.0, 600.0)
         for x in _straddle(b)],
    ))
    arr = ei_scaled(xs)
    assert arr.shape == xs.shape
    for x, v in zip(xs, arr):
        assert ei_scaled(float(x)) == v
    assert isinstance(ei_scaled(2.0), float)

    # every region and term-count class of exp1_scaled, in one call
    radii = np.geomspace(1e-3, 2e3, 23)
    angles = np.concatenate((np.linspace(-3.1, 3.1, 9), [math.pi - 1e-4]))
    zs = np.concatenate((
        (radii[:, None] * np.exp(1j * angles)).ravel(),
        [0.5 + 1j, -650.0 + 2j, 1200.0 + 0.1j, 4.760954936304073],
        EXP1_SEAMS,
    ))
    varr = exp1_scaled(zs)
    assert varr.shape == zs.shape
    for z, v in zip(zs, varr):
        assert exp1_scaled(complex(z)) == v
    # a lane's value does not depend on the other lanes of the call
    order = np.random.default_rng(3).permutation(zs.size)
    assert np.array_equal(exp1_scaled(zs[order]), varr[order])
    assert np.array_equal(exp1_scaled(zs[::7]), varr[::7])
    assert isinstance(exp1_scaled(1 + 1j), complex)


def test_large_argument_decay():
    # both behave like 1/argument far out
    assert ei_scaled(1e8) == pytest.approx(1e-8, rel=1e-7, abs=0.0)
    assert exp1_scaled(1e8 + 0j) == pytest.approx(1e-8, rel=1e-7, abs=0.0)


def _assert_exp1_close(z):
    want = _ref_exp1_scaled(z)
    assert abs(exp1_scaled(z) - want) <= 5e-14 * abs(want)


# e**z E1(z) on the positive axis, where scipy's exp1 was up to 1.4e-12
# off (1.1e-12 and 6.4e-13 at the two listed points)
@pytest.mark.parametrize(
    "x", list(np.linspace(1.0, 6.0, 11)) + [4.760954936304073, 4.944379151872671])
def test_exp1_scaled_positive_axis(x):
    _assert_exp1_close(complex(x))


# 1e-4 rad from the branch cut, where the critical-band closed forms
# evaluate e**z E1(z) at z = -(a + i*kappa) t with kappa << a.  A depth-12
# or depth-15 continued fraction has poles near |z| = 40.709 and 41.924.
@pytest.mark.parametrize(
    "r", [1.0, 3.0, 8.0, 16.0, 25.0, 39.9, 40.1, 40.709, 41.924, 45.0, 60.0])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_exp1_scaled_near_negative_axis(r, side):
    _assert_exp1_close(r * np.exp(1j * side * (math.pi - 1e-4)))


def _straddle(z, eps=1e-9):
    return [z * (1.0 - eps), z * (1.0 + eps)]


def _on_edge(r, edge):
    # the point with |z| = r and |z| + Re z = edge, above the real axis
    return complex(edge - r, math.sqrt(r * r - (edge - r) ** 2))


EXP1_SEAMS = [
    # series | continued fraction at |z| + Re z = 3.06, on the positive
    # axis, off it and near the negative axis
    *_straddle(_on_edge(1.53, 3.06)),
    *_straddle(_on_edge(2.5, 3.06)),
    *_straddle(_on_edge(20.0, 3.06)),
    # series | continued fraction at |z| = 40 beside the negative axis
    *_straddle(_on_edge(40.0, 0.5)),
    # continued fraction | asymptotic at |Re z| = 600
    *_straddle(complex(600.0, 3.0)), *_straddle(complex(-600.0, 3.0)),
    # term-count classes of the series, depth classes of the fraction
    *[z for r in (1.0, 8.0, 16.0, 25.0) for z in _straddle(_on_edge(r, 0.5))],
    *[z for e in (4.0, 6.0, 10.0, 20.0, 40.0, 80.0) for z in _straddle(_on_edge(e, e))],
]


@pytest.mark.parametrize("z", EXP1_SEAMS)
def test_exp1_scaled_region_seams(z):
    _assert_exp1_close(z)


# series | asymptotic at x = 40, then the asymptotic term-count classes
@pytest.mark.parametrize("x", [x for b in (40.0, 45.0, 60.0, 120.0) for x in _straddle(b)])
def test_ei_scaled_region_seams(x):
    assert ei_scaled(x) == pytest.approx(_ref_ei_scaled(x), rel=5e-14, abs=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_r=st.floats(-3.0, 3.0), angle=st.floats(-math.pi + 1e-6, math.pi - 1e-6))
def test_exp1_scaled_matches_mpmath(log_r, angle):
    _assert_exp1_close(10.0**log_r * complex(math.cos(angle), math.sin(angle)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_x=st.floats(-3.0, 6.0))
def test_ei_scaled_matches_mpmath(log_x):
    # near the zero of Ei at x = 0.3725 only the absolute error is small
    x = 10.0**log_x
    want = _ref_ei_scaled(x)
    assert abs(ei_scaled(x) - want) <= 5e-14 * abs(want) + 1e-16


def test_package_imports_without_scipy():
    code = ("import sys, dressedbath, dressedbath.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# exp1_scaled and ei_scaled stay bit for bit
# ---------------------------------------------------------------------------

def _exp1_test_points():
    # every point the exp1_scaled tests above evaluate
    right = [complex(re, im) for re in REAL_PARTS for im in IMAG_PARTS]
    left = [complex(-re, im) for re in REAL_PARTS for im in (0.4, 35.0, 900.0)]
    seam = [complex(600.0 - 1e-6, 1.0), complex(600.0 + 1e-6, 1.0), 1e8 + 0j]
    axis = list(np.linspace(1.0, 6.0, 11)) + [4.760954936304073, 4.944379151872671]
    cut = [r * np.exp(1j * side * (math.pi - 1e-4))
           for r in (1.0, 3.0, 8.0, 16.0, 25.0, 39.9, 40.1, 40.709, 41.924, 45.0, 60.0)
           for side in (1.0, -1.0)]
    radii = np.geomspace(1e-3, 2e3, 23)
    angles = np.concatenate((np.linspace(-3.1, 3.1, 9), [math.pi - 1e-4]))
    grid = (radii[:, None] * np.exp(1j * angles)).ravel()
    return np.concatenate((right, left, seam, axis, cut, grid, EXP1_SEAMS)).astype(complex)


def _ei_test_points():
    # every point the ei_scaled tests above evaluate
    return np.concatenate((
        [0.05, 0.8, 12.0, 130.0, 599.5, 600.5, 5e3, 1e6, 600.0 - 1e-6, 600.0 + 1e-6, 1e8],
        [0.5, 3.0, 30.0, 700.0, 4000.0],
        [x for b in (1.0, 3.06, 8.0, 16.0, 25.0, 40.0, 45.0, 60.0, 120.0, 600.0)
         for x in _straddle(b)],
    ))


# SHA-256 of the outputs' bytes, taken before psi and psi1 joined the module
EXP1_DIGEST = "a12bacfc955217fc5fc3a3a1e449fc28c155fbfe333d81162429ce47c0d6732d"
EI_DIGEST = "cf307b80704f06ed4f9dc210022953e03b1d52de0661fd6a1bc9fae79c7d49bd"


def test_scaled_integrals_are_bit_identical():
    z = _exp1_test_points()
    x = _ei_test_points()
    assert hashlib.sha256(exp1_scaled(z).tobytes()).hexdigest() == EXP1_DIGEST
    assert hashlib.sha256(ei_scaled(x).tobytes()).hexdigest() == EI_DIGEST


# ---------------------------------------------------------------------------
# digamma and trigamma
# ---------------------------------------------------------------------------

PSI_ZERO = 1.4616321449683623


def _assert_psi_close(z):
    # 1e-15 relative, and 5e-16 absolute where |psi| < 1/2 (z in 1.2..1.9,
    # around the zero of psi at 1.4616)
    want = float(mp.digamma(mp.mpf(z)))
    assert abs(psi(z) - want) <= 1e-15 * max(abs(want), 0.5)
    want = float(mp.polygamma(1, mp.mpf(z)))
    assert abs(psi1(z) - want) <= 1e-15 * want


@pytest.mark.parametrize("z", [1.0, 1.1, PSI_ZERO, 1.5, 2.0, 2.5, 7.0, 11.0,
                               *_straddle(12.0, 1e-12), 12.5, 13.0, 40.0, 1e3,
                               123456.789, 2e6])
def test_psi_against_mpmath(z):
    _assert_psi_close(z)


def test_psi_array_and_scalar_forms_agree():
    # every recurrence depth below 12 and the series above it, in one call
    zs = np.concatenate((np.linspace(1.0, 13.0, 97), np.geomspace(13.0, 2e6, 40)))
    d0, d1 = psi(zs), psi1(zs)
    assert d0.shape == d1.shape == zs.shape
    for z, v0, v1 in zip(zs, d0, d1):
        assert psi(float(z)) == v0
        assert psi1(float(z)) == v1
    assert isinstance(psi(2.0), float) and isinstance(psi1(2.0), float)
    assert psi(zs.reshape(1, -1)).shape == (1, zs.size)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_z=st.floats(0.0, math.log10(2e6)))
def test_psi_matches_mpmath(log_z):
    _assert_psi_close(10.0**log_z)
