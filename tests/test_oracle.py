"""Dense-matrix cross-check route: Jacobi eigensolver and the report."""

import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedbath import (
    CheckResult,
    InputError,
    NumericalFailure,
    OhmicSystemSpec,
    PotentialMatrix,
    build_potential_matrix,
    cross_validate,
    derive_parameters,
    eigen_decompose,
    solve_finite_spectrum,
)
from dressedbath import oracle, spectrum

SPEC = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=8,
                       light_speed=1.0)


def test_potential_matrix_layout():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=3,
                           light_speed=1.0)
    d = derive_parameters(spec)
    m = build_potential_matrix(spec).entries
    assert m.shape == (4, 4)
    assert m[0, 0] == d.omega0**2
    for k in (1, 2, 3):
        wk = k * d.delta_omega
        assert m[k, k] == wk**2
        assert m[0, k] == -d.eta * wk
        assert m[k, 0] == m[0, k]
    assert m[1, 2] == 0.0


def test_potential_matrix_validation():
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.zeros((2, 3)), factor=np.eye(2))
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]),
                        factor=np.eye(2))
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.array([[np.nan, 0.0], [0.0, 1.0]]),
                        factor=np.eye(2))
    given = np.eye(3)
    frozen = PotentialMatrix(entries=given, factor=np.eye(3))
    assert not frozen.entries.flags.writeable
    assert given.flags.writeable
    assert frozen.dim == 3


def test_potential_matrix_factor_validation():
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.eye(3), factor=np.eye(2))
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.eye(2), factor=np.zeros((2, 3)))
    with pytest.raises(InputError):
        PotentialMatrix(entries=np.eye(2), factor=np.array([[1.0, 0.0], [np.inf, 1.0]]))
    with pytest.raises(TypeError):
        PotentialMatrix(entries=np.eye(2))
    built = build_potential_matrix(SPEC)
    assert built.factor.shape == built.entries.shape
    assert not built.factor.flags.writeable


@pytest.mark.parametrize("n_modes", [1, 8, 39])
def test_factor_reproduces_the_potential_matrix(n_modes):
    # C^T C, each entry summed with a single rounding (fsum), against the
    # rounded entries; an entry's scale is the sum of its terms' magnitudes
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.7, cavity_L=1.0, n_modes=n_modes,
                           light_speed=1.0)
    built = build_potential_matrix(spec)
    c = built.factor
    dim = built.dim
    for i in range(dim):
        for j in range(dim):
            terms = c[:, i] * c[:, j]
            scale = math.fsum(np.abs(terms))
            gap = abs(math.fsum(terms) - built.entries[i, j])
            assert gap <= 4.0 * np.finfo(float).eps * scale


@pytest.mark.parametrize("n_modes", [1, 2, 7, 8, 40, 41])
def test_jacobi_orthonormal_in_odd_and_even_dimensions(n_modes):
    # dimension n_modes + 1: odd dimensions pair one column with a zero pad
    spec = OhmicSystemSpec.from_dimensionless(2.0, 0.3, n_modes=n_modes)
    eigvals, vecs = eigen_decompose(build_potential_matrix(spec))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n_modes + 1))) < 1e-13
    assert np.all(np.diff(eigvals) > 0.0)


def test_jacobi_two_by_two_closed_form():
    a, b, c = 2.0, 5.0, 1.3
    factor = np.array([[math.sqrt(a), c / math.sqrt(a)],
                       [0.0, math.sqrt(b - c**2 / a)]])
    matrix = PotentialMatrix(entries=np.array([[a, c], [c, b]]), factor=factor)
    eigvals, vecs = eigen_decompose(matrix)
    mean = 0.5 * (a + b)
    half = 0.5 * math.hypot(a - b, 2.0 * c)
    assert eigvals[0] == pytest.approx(mean - half, rel=1e-15, abs=0.0)
    assert eigvals[1] == pytest.approx(mean + half, rel=1e-15, abs=0.0)
    assert np.allclose(vecs.T @ vecs, np.eye(2), atol=1e-15)
    recon = vecs @ np.diag(eigvals) @ vecs.T
    assert np.allclose(recon, matrix.entries, atol=1e-14)


def test_jacobi_agrees_with_lapack():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.7, cavity_L=1.0, n_modes=39,
                           light_speed=1.0)
    matrix = build_potential_matrix(spec)
    eigvals, vecs = eigen_decompose(matrix)
    ref_vals, ref_vecs = np.linalg.eigh(matrix.entries)
    assert np.max(np.abs(eigvals / ref_vals - 1.0)) < 1e-11
    for col in range(ref_vecs.shape[1]):
        nz = np.flatnonzero(ref_vecs[:, col])
        if ref_vecs[nz[0], col] < 0.0:
            ref_vecs[:, col] = -ref_vecs[:, col]
    assert np.max(np.abs(vecs - ref_vecs)) < 1e-9


def test_jacobi_orthonormality_and_sign_convention():
    eigvals, vecs = eigen_decompose(build_potential_matrix(SPEC))
    n = vecs.shape[0]
    assert np.max(np.abs(vecs.T @ vecs - np.eye(n))) < 1e-12
    assert np.all(np.diff(eigvals) > 0.0)
    # every normal mode keeps a nonzero particle component, so the sign
    # convention pins the first row positive
    assert np.all(vecs[0, :] > 0.0)


def _dense_modes(spec):
    # frequencies and particle weights (t_0^r)**2 of the dense route
    eigvals, vecs = eigen_decompose(build_potential_matrix(spec))
    return np.sqrt(eigvals), vecs[0] ** 2


def test_dense_mode_set_matches_secular_route():
    frequencies, weights = _dense_modes(SPEC)
    secular = solve_finite_spectrum(SPEC)
    assert np.max(np.abs(frequencies / secular.frequencies - 1.0)) < 1e-10
    assert np.max(np.abs(weights - secular.weights)) < 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    log_beta=st.floats(-3.0, 2.0),
    log_delta=st.floats(-3.0, math.log10(4.0)),
    n_modes=st.integers(1, 60),
)
def test_dense_route_matches_secular_route_everywhere(log_beta, log_delta, n_modes):
    spec = OhmicSystemSpec.from_dimensionless(10.0**log_beta, 10.0**log_delta,
                                              n_modes=n_modes)
    frequencies, weights = _dense_modes(spec)
    secular = solve_finite_spectrum(spec)
    assert np.max(np.abs(frequencies / secular.frequencies - 1.0)) <= 1e-13
    assert np.max(np.abs(weights - secular.weights)) <= 1e-12
    ladder = derive_parameters(spec).delta_omega * np.arange(1, n_modes + 1)
    assert np.all(secular.frequencies[:-1] < ladder)
    assert np.all(ladder < secular.frequencies[1:])
    assert abs(math.fsum(secular.weights) - 1.0) <= 1e-12


# lowest normal-mode frequency at N = 8, delta = 0.05, bar_omega = 1, from
# mp.eigsy at 50 digits on the potential matrix built from the spec's
# double-precision eta and delta_omega, with omega0**2 formed at 50 digits
LOWEST_50_DIGITS = {
    3.0: "0.9765418820140044675411710754968241384908610544967",
    30.0: "0.97654230806288030257736889408550809029533380570908",
    100.0: "0.97654231197899441411141981948839176178719574348487",
}


@pytest.mark.parametrize("beta", sorted(LOWEST_50_DIGITS))
def test_dense_lowest_mode_against_fifty_digits(beta):
    spec = OhmicSystemSpec.from_dimensionless(beta, 0.05, n_modes=8)
    d = derive_parameters(spec)
    n = spec.n_modes
    with mp.workdps(50):
        eta = mp.mpf(d.eta)
        omega_k = [mp.mpf(d.delta_omega) * k for k in range(1, n + 1)]
        m = mp.zeros(n + 1, n + 1)
        m[0, 0] = mp.mpf(spec.bar_omega) ** 2 + n * eta**2
        for k in range(1, n + 1):
            m[k, k] = omega_k[k - 1] ** 2
            m[0, k] = m[k, 0] = -eta * omega_k[k - 1]
        lowest = mp.sqrt(min(mp.eigsy(m, eigvals_only=True)))
        frozen = mp.mpf(LOWEST_50_DIGITS[beta])
        assert abs(lowest / frozen - 1) < mp.mpf("1e-45")
    dense = _dense_modes(spec)[0][0]
    assert abs(dense / float(frozen) - 1.0) <= 1e-14


def test_dense_route_mode_cap():
    # both entry points refuse before the (N+1)**2 arrays exist
    big = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1.0, n_modes=401,
                          light_speed=1.0)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="capped at n_modes = 400"):
            build_potential_matrix(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (N+1)**2 array at N = 401 would take 1.3 MB
    assert peak < 2**20
    with pytest.raises(InputError, match="capped at n_modes = 400"):
        cross_validate(big)
    assert build_potential_matrix(replace(big, n_modes=400)).dim == 401


def test_check_result_rejects_nan():
    bad = CheckResult(name="x", computed=float("nan"), reference=0.0,
                      tolerance=1.0)
    assert not bad.passed
    good = CheckResult(name="x", computed=1e-12, reference=0.0, tolerance=1e-10)
    assert good.passed


def test_cross_validate_default_spec():
    report = cross_validate(SPEC)
    assert report.all_passed
    assert len(report.checks) == 7
    text = report.to_text()
    assert "result: all checks passed" in text
    assert any("published variant" in note for note in report.notes)
    # the report must be reproducible verbatim
    assert cross_validate(SPEC).to_text() == text


FINITE_CHECKS = ("finite spectrum vs dense eigensolve",
                 "transform matrix vs dense eigenvectors",
                 "t=0 sum rule")


def _count_calls(monkeypatch, module, name, key=lambda args, kwargs: args[0],
                 fail_for=None):
    # wrap module.name so it counts its calls by key(args, kwargs), and
    # raises NumericalFailure when its first argument equals `fail_for`
    calls = Counter()
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls[key(args, kwargs)] += 1
        if fail_for is not None and args[0] == fail_for:
            raise NumericalFailure("synthetic finite-route failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


def test_cross_validate_records_a_raising_route_in_every_check(monkeypatch):
    finite = _count_calls(monkeypatch, spectrum, "solve_finite_spectrum",
                          fail_for=SPEC)
    jacobi = _count_calls(monkeypatch, oracle, "eigen_decompose")
    report = cross_validate(SPEC)
    by_name = {check.name: check for check in report.checks}
    for name in FINITE_CHECKS:
        assert math.isnan(by_name[name].computed)
        assert not by_name[name].passed
        assert sum(note.startswith(f"check {name} raised NumericalFailure")
                   for note in report.notes) == 1
    # nothing caches the exception: each of the three checks tried again
    assert finite[SPEC] == 3
    assert sum(jacobi.values()) == 1
    assert not report.all_passed
    assert "result: 3 check(s) failed" in report.to_text()


def test_cross_validate_solves_each_route_once(monkeypatch):
    finite = _count_calls(monkeypatch, spectrum, "solve_finite_spectrum")
    cavity = _count_calls(monkeypatch, spectrum, "solve_cavity_spectrum",
                          key=lambda args, kwargs: kwargs["variant"])
    jacobi = _count_calls(monkeypatch, oracle, "eigen_decompose")
    report = cross_validate(SPEC)
    assert report.all_passed
    # the report's own spec and the 400-mode bath of the variant check
    assert finite[SPEC] == 1
    assert set(finite.values()) == {1} and len(finite) == 2
    assert cavity == Counter({"paper": 1, "rederived": 1})
    assert sum(jacobi.values()) == 1


def test_cavity_adjudication_gates_on_the_rederived_gap_alone():
    # at beta 1e-3, delta 0.05 the published solve's weights sum past 1 and
    # it refuses; the check once read NaN from that refusal.  It reads the
    # rederived gap, and the note names the published variant's refusal.
    spec = OhmicSystemSpec.from_dimensionless(beta=1e-3, delta=0.05, n_modes=20)
    report = cross_validate(spec)
    check = {c.name: c for c in report.checks}["cavity cotangent constant vs finite bath"]
    assert check.passed and math.isfinite(check.computed)
    note = next(n for n in report.notes if n.startswith("cotangent constant adjudication"))
    assert note.endswith("published variant refused (InputError: weights must sum to at most 1)")
    assert f"rederived variant max relative gap {check.computed:.3e}" in note
    assert not any("raised" in n for n in report.notes)


def test_lowest_cavity_mode_note_names_a_refused_small_cavity_form():
    # at beta 1e-3, delta 0.05 the mode spacing 2*pi*c/L is below bar_omega,
    # so the first-order small-cavity ladder refuses; the note once vanished
    spec = OhmicSystemSpec.from_dimensionless(beta=1e-3, delta=0.05, n_modes=20)
    note = next(n for n in cross_validate(spec).notes if n.startswith("lowest cavity mode"))
    exact = spectrum.solve_cavity_spectrum(spec, k_max=50, variant="rederived")
    assert note == (
        "lowest cavity mode: exact cotangent (rederived) gives "
        f"Omega0/bar_omega = {exact.frequencies[0] / spec.bar_omega:.6e}, "
        "first-order small-cavity form refused (InputError: small-cavity ladder needs "
        "the mode spacing 2*pi*c/L to exceed bar_omega (got ratio 15.9155 >= 1))")


def test_lowest_cavity_mode_note_keeps_its_digits_at_weak_coupling():
    # Omega0/bar_omega is about pi*beta/delta here; six decimals read 0.000000
    spec = OhmicSystemSpec.from_dimensionless(beta=1e-8, delta=0.3, n_modes=20)
    note = next(n for n in cross_validate(spec).notes if n.startswith("lowest cavity mode"))
    assert note.startswith("lowest cavity mode: exact cotangent (rederived) gives "
                           "Omega0/bar_omega = 1.047198e-07, ")
