import math

import pytest

import numpy as np

from dressedbath import (
    CRITICAL_TOLERANCE,
    LIGHT_SPEED_SI,
    InputError,
    OhmicSystemSpec,
    RegimeKind,
    approx_small_L_spectrum,
    classify_regime,
    derive_parameters,
    expansion_coefficient,
    series_identity_residual,
    solve_cavity_spectrum,
)


def test_derived_quantities_match_definitions():
    spec = OhmicSystemSpec(bar_omega=3.0, g=0.7, cavity_L=2.5, n_modes=12,
                           light_speed=1.0)
    d = derive_parameters(spec)
    assert d.delta_omega == pytest.approx(2.0 * math.pi / 2.5, rel=1e-15, abs=0.0)
    assert d.eta**2 == pytest.approx(2.0 * 0.7 * d.delta_omega, rel=1e-15, abs=0.0)
    assert d.omega0**2 == pytest.approx(9.0 + 12 * d.eta**2, rel=1e-15, abs=0.0)
    assert d.beta == pytest.approx(0.7 / 3.0, rel=1e-15, abs=0.0)
    assert d.delta == pytest.approx(2.5 * 0.7 / 2.0, rel=1e-15, abs=0.0)


def test_from_dimensionless_round_trips():
    spec = OhmicSystemSpec.from_dimensionless(beta=0.37, delta=0.012,
                                              bar_omega=2e9, n_modes=5)
    d = derive_parameters(spec)
    assert d.beta == pytest.approx(0.37, rel=1e-14, abs=0.0)
    assert d.delta == pytest.approx(0.012, rel=1e-14, abs=0.0)
    assert spec.light_speed == 1.0
    assert spec.n_modes == 5


def test_default_light_speed_is_si():
    spec = OhmicSystemSpec(bar_omega=4e14, g=1e12, cavity_L=1e-6)
    assert spec.light_speed == LIGHT_SPEED_SI


@pytest.mark.parametrize("field,value", [
    ("bar_omega", 0.0),
    ("bar_omega", -1.0),
    ("g", float("nan")),
    ("cavity_L", float("inf")),
    ("light_speed", 0.0),
    ("hbar", -2.0),
])
def test_invalid_parameters_name_the_field(field, value):
    kwargs = dict(bar_omega=1.0, g=0.1, cavity_L=1.0)
    kwargs[field] = value
    with pytest.raises(InputError, match=field):
        OhmicSystemSpec(**kwargs)


def test_n_modes_must_be_a_true_integer():
    with pytest.raises(InputError):
        OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, n_modes=0)
    with pytest.raises(InputError):
        OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, n_modes=True)
    with pytest.raises(InputError):
        OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0, n_modes=2.0)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_counts_take_any_integer_but_bool():
    # every count argument goes through one check: numpy integers pass as
    # their value, True is refused
    spec = OhmicSystemSpec.from_dimensionless(beta=0.1, delta=0.05)
    row = np.array([0.6, 0.4])
    counts = [
        ("n_modes", 1, lambda n: OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0,
                                                 n_modes=n).n_modes),
        ("k_max", 0, lambda n: solve_cavity_spectrum(spec, k_max=n).frequencies),
        ("k_max", 1, lambda n: approx_small_L_spectrum(spec, k_max=n).frequencies),
        ("n_terms", 1, lambda n: series_identity_residual(0.3, n_terms=n)),
        ("n0_prime", 0, lambda n: expansion_coefficient(n, (n, 0), row)),
    ]
    for name, least, call in counts:
        kind = "positive" if least else "nonnegative"
        with pytest.raises(InputError, match=f"^{name} must be a {kind} integer, got True$"):
            call(True)
        with pytest.raises(InputError, match=f"got {least - 1}$"):
            call(least - 1)
        assert np.array_equal(call(np.int64(10)), call(10))
    assert type(OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0,
                                n_modes=np.int64(3)).n_modes) is int


def test_overflowing_specs_are_refused():
    # (pi*g/bar_omega)**2 raised OverflowError past g/bar_omega ~ 1e154, so
    # that ratio alone is capped; bar_omega and g are not, and a derived
    # parameter past 1.8e308 is refused where it would read inf
    for bar_omega, g in ((1.0, 1e200), (1e-160, 1e-5)):
        with pytest.raises(InputError, match="capped at 1e153"):
            OhmicSystemSpec(bar_omega=bar_omega, g=g, cavity_L=1.0)
    for bar_omega in (1e153, 1e160):
        spec = OhmicSystemSpec(bar_omega=bar_omega, g=0.3 * bar_omega, cavity_L=1.0)
        assert derive_parameters(spec).beta == pytest.approx(0.3, rel=1e-15)
        assert classify_regime(spec).kind is RegimeKind.UNDERDAMPED
    tiny_cavity = OhmicSystemSpec(bar_omega=1.0, g=0.3, cavity_L=1e-300, light_speed=1e10)
    # delta_omega = pi*beta*bar_omega/delta passes 1.8e308 at bar_omega = 1e307
    huge = OhmicSystemSpec.from_dimensionless(0.3, 0.05, bar_omega=1e307)
    for spec in (tiny_cavity, huge):
        with pytest.raises(InputError, match="overflow double precision"):
            derive_parameters(spec)


def test_bool_rejected_for_float_fields():
    with pytest.raises(InputError):
        OhmicSystemSpec(bar_omega=True, g=0.1, cavity_L=1.0)


def test_regime_classification_boundaries():
    # beta below/above 2/pi lands under/over; the exact point is critical.
    weak = OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0)
    strong = OhmicSystemSpec(bar_omega=1.0, g=5.0, cavity_L=1.0)
    edge = OhmicSystemSpec(bar_omega=1.0, g=2.0 / math.pi, cavity_L=1.0)
    assert classify_regime(weak).kind is RegimeKind.UNDERDAMPED
    assert classify_regime(strong).kind is RegimeKind.OVERDAMPED
    assert classify_regime(edge).kind is RegimeKind.CRITICAL


def test_critical_band_width():
    # kappa_sq = +-1e-6 * bar_omega**2 sits outside the band, +-1e-10 inside
    def spec_for(kappa_sq):
        g = 2.0 * math.sqrt(1.0 - kappa_sq) / math.pi
        return OhmicSystemSpec(bar_omega=1.0, g=g, cavity_L=1.0)

    assert classify_regime(spec_for(1e-6)).kind is RegimeKind.UNDERDAMPED
    assert classify_regime(spec_for(-1e-6)).kind is RegimeKind.OVERDAMPED
    assert classify_regime(spec_for(1e-10)).kind is RegimeKind.CRITICAL
    assert classify_regime(spec_for(-1e-10)).kind is RegimeKind.CRITICAL
    assert CRITICAL_TOLERANCE == 1e-9


def test_regime_is_scale_invariant():
    for scale in (1e-8, 1.0, 1e12):
        near = OhmicSystemSpec(bar_omega=scale, g=scale * 2.0 / math.pi,
                               cavity_L=1.0)
        assert classify_regime(near).kind is RegimeKind.CRITICAL


def test_spec_is_frozen_and_hashable():
    spec = OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0)
    with pytest.raises(AttributeError):
        spec.g = 0.2
    assert spec == OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0)
    assert hash(spec) == hash(OhmicSystemSpec(bar_omega=1.0, g=0.1, cavity_L=1.0))
