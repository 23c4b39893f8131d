import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochrate import (
    CoherentLimitError,
    DipoleParams,
    SystemParams,
    einstein_b,
)
from blochrate.params import grid_steps

# High-precision evaluation of pi*mu^2/(3*hbar^2*eps0) at mu = 1 debye
# (50-digit decimal arithmetic, CODATA hbar/eps0 as shipped by scipy).
EINSTEIN_B_ONE_DEBYE = 1.1832756075088704e20


def test_derived_rates_reference_point():
    p = SystemParams(a=1.0, delta=10.0, omega0=2.0)
    assert p.gamma_perp == 0.5
    assert p.gamma_eff == 5.5
    assert math.isclose(p.zeta, 10.0 / 11.0, rel_tol=1e-15)
    assert math.isclose(p.bw21, 0.4, rel_tol=1e-15)
    assert math.isclose(p.zeta_bw21, 4.0 / 11.0, rel_tol=1e-15)


def test_dephasing_adds_to_coherence_decay():
    p = SystemParams(a=2.0, delta=3.0, omega0=1.0, gamma_dc=0.25)
    assert p.gamma_perp == 1.25
    assert p.gamma_eff == 1.25 + 1.5


def test_zeta_approaches_one_for_broadband_light():
    p = SystemParams(a=1.0, delta=1e6, omega0=1.0)
    assert abs(p.zeta - 1.0) < 1e-5


def test_zeta_narrowband_with_strong_dephasing():
    # strongly dephased atom: zeta collapses to delta/(2*gamma_dc)
    p = SystemParams(a=1.0, delta=1.0, omega0=1.0, gamma_dc=1e3)
    approx = p.delta / (2.0 * p.gamma_dc)
    assert abs(p.zeta - approx) / approx <= 1e-3


def test_bw21_undefined_for_monochromatic_drive():
    p = SystemParams(a=1.0, delta=0.0, omega0=1.0)
    with pytest.raises(CoherentLimitError):
        p.bw21
    # the cancelled product stays finite there
    assert math.isclose(p.zeta_bw21, 1.0 / (2.0 * p.gamma_perp), rel_tol=1e-15)
    assert p.zeta == 0.0


@pytest.mark.parametrize("kwargs", [
    dict(a=0.0, delta=1.0, omega0=1.0),
    dict(a=-1.0, delta=1.0, omega0=1.0),
    dict(a=1.0, delta=-0.5, omega0=1.0),
    dict(a=1.0, delta=1.0, omega0=-1.0),
    dict(a=1.0, delta=1.0, omega0=1.0, gamma_dc=-0.1),
    dict(a=math.nan, delta=1.0, omega0=1.0),
    dict(a=1.0, delta=math.inf, omega0=1.0),
])
def test_invalid_rates_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


def test_params_are_frozen():
    p = SystemParams(a=1.0, delta=1.0, omega0=1.0)
    with pytest.raises(AttributeError):
        p.a = 2.0


rates = st.floats(min_value=1e-3, max_value=1e3,
                  allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, max_value=1e3,
                   allow_nan=False, allow_infinity=False)


@given(a=rates, delta=rates, omega0=nonneg, gamma_dc=nonneg)
@settings(max_examples=200)
def test_rate_ordering_and_zeta_bounds(a, delta, omega0, gamma_dc):
    p = SystemParams(a=a, delta=delta, omega0=omega0, gamma_dc=gamma_dc)
    assert p.gamma_eff >= p.gamma_perp >= p.a / 2.0
    assert 0.0 < p.zeta < 1.0


@given(a=rates, delta=rates, omega0=rates, gamma_dc=nonneg)
@settings(max_examples=200)
def test_cancelled_pump_rate_is_the_product(a, delta, omega0, gamma_dc):
    p = SystemParams(a=a, delta=delta, omega0=omega0, gamma_dc=gamma_dc)
    assert math.isclose(p.zeta * p.bw21, p.zeta_bw21, rel_tol=1e-14)


@given(a=rates, delta=st.tuples(rates, rates), omega0=rates)
@settings(max_examples=200)
def test_zeta_monotone_in_linewidth(a, delta, omega0):
    lo, hi = sorted(delta)
    z_lo = SystemParams(a=a, delta=lo, omega0=omega0).zeta
    z_hi = SystemParams(a=a, delta=hi, omega0=omega0).zeta
    assert z_lo <= z_hi


@given(a=rates, delta=rates, gdc=st.tuples(nonneg, nonneg))
@settings(max_examples=200)
def test_zeta_antitone_in_dephasing(a, delta, gdc):
    lo, hi = sorted(gdc)
    z_lo = SystemParams(a=a, delta=delta, omega0=1.0, gamma_dc=lo).zeta
    z_hi = SystemParams(a=a, delta=delta, omega0=1.0, gamma_dc=hi).zeta
    assert z_hi <= z_lo


def test_einstein_b_zero_dipole():
    assert einstein_b(DipoleParams(mu=0.0, omega21=1e15)) == 0.0


def test_einstein_b_quadratic_in_dipole():
    b1 = einstein_b(DipoleParams(mu=1e-30, omega21=1e15))
    b2 = einstein_b(DipoleParams(mu=2e-30, omega21=1e15))
    assert math.isclose(b2, 4.0 * b1, rel_tol=1e-15)


def test_einstein_b_one_debye_against_decimal_oracle():
    got = einstein_b(DipoleParams(mu=3.33564e-30, omega21=2.5e15))
    assert math.isclose(got, EINSTEIN_B_ONE_DEBYE, rel_tol=1e-13)


@pytest.mark.parametrize("mu,omega21", [
    (-1e-30, 1e15),
    (1e-30, 0.0),
    (1e-30, -1e15),
    (math.nan, 1e15),
])
def test_invalid_dipole_rejected(mu, omega21):
    with pytest.raises(ValueError):
        DipoleParams(mu=mu, omega21=omega21)


def test_grid_steps():
    assert grid_steps(1.0, 1e-3) == 1000
    assert grid_steps(0.0, 0.1) == 0
    with pytest.raises(ValueError):
        grid_steps(0.0, 0.1, positive=True)
    for t, dt in [(1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
                  (math.inf, 0.1), (math.nan, 0.1), (-0.1, 0.1), (0.35, 0.1)]:
        with pytest.raises(ValueError):
            grid_steps(t, dt)

