import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochrate import (
    LorentzianSpectrum,
    SystemParams,
    TabulatedSpectrum,
    build_report,
    eigenvalues,
    integrate_effective_bloch,
    measured_oscillation_frequency,
    spectral_density,
    steady_state,
    thresholds,
    zeta_numeric,
)
from test_kinetics import ref_table

rates = st.floats(min_value=1e-2, max_value=1e2,
                  allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, max_value=1e2,
                   allow_nan=False, allow_infinity=False)


# ----------------------------------------------------------------------
# incoherence fraction

@pytest.mark.parametrize("delta,gamma_perp,expected", [
    (0.0, 0.5, 0.0),
    (1.0, 0.5, 0.5),       # symmetry point delta = 2*gamma_perp
    (5.0, 0.5, 5.0 / 6.0),
    (10.0, 0.5, 10.0 / 11.0),
])
def test_zeta_closed_form_values(delta, gamma_perp, expected):
    p = SystemParams(a=2.0 * gamma_perp, delta=delta, omega0=0.0)
    assert math.isclose(p.zeta, expected, rel_tol=1e-15)


def test_zeta_quadrature_matches_closed_form():
    s = LorentzianSpectrum(peak=1.0, fwhm=10.0)
    assert abs(zeta_numeric(s, 0.5) - 10.0 / 11.0) <= 1e-6


@pytest.mark.parametrize("delta,gamma_perp,detuning", [
    (5.0, 0.5, 3.0), (0.2, 1.0, 2.0), (50.0, 0.5, 30.0)])
def test_zeta_quadrature_matches_detuned_closed_form(delta, gamma_perp, detuning):
    # a light line at `detuning` from the atomic line at 0: the two Lorentzians
    # convolve to (h+g)(D^2+h^2) / (h (D^2+(h+g)^2)), h = delta/2
    s = LorentzianSpectrum(peak=1.0, fwhm=delta, center=detuning)
    h, d2 = 0.5 * delta, detuning ** 2
    closed = (h + gamma_perp) * (d2 + h * h) / (h * (d2 + (h + gamma_perp) ** 2))
    assert abs(zeta_numeric(s, gamma_perp) - closed) <= 1e-8 * closed


def test_zeta_flat_spectrum_saturates():
    # a flat table on [-L, L] overlaps the atomic line by (2/pi) arctan(L/gp)
    gp = 0.5
    x = np.linspace(-1000.0 * gp, 1000.0 * gp, 4001)
    flat = TabulatedSpectrum(omega=x, values=np.ones_like(x))
    exact = 2.0 / math.pi * math.atan(1000.0)
    assert abs(zeta_numeric(flat, gp) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("half_span", [1.0, 1e3, 1e9, 1e12])
def test_zeta_triangle_is_exact(half_span):
    # a triangle on [-L, 0, L] overlaps by (2/pi)(arctan X - ln(1+X^2)/(2X)),
    # X = L/gp; each chord runs from far out to the atomic line
    gp = 0.5
    tri = TabulatedSpectrum(omega=np.array([-half_span, 0.0, half_span]),
                            values=np.array([0.0, 1.0, 0.0]))
    big_x = half_span / gp
    exact = 2.0 / math.pi * (math.atan(big_x) - math.log1p(big_x * big_x) / (2.0 * big_x))
    assert abs(zeta_numeric(tri, gp) - exact) <= 1e-14 * exact


@pytest.mark.parametrize("gamma_perp", [0.0, -1.0, math.nan, math.inf])
def test_zeta_refuses_bad_gamma_perp(gamma_perp):
    for s in (LorentzianSpectrum(peak=1.0, fwhm=2.0), ref_table()):
        with pytest.raises(ValueError, match="gamma_perp"):
            zeta_numeric(s, gamma_perp)


def test_zeta_refuses_a_table_without_the_atomic_line():
    off_line = TabulatedSpectrum(omega=np.array([1.0, 2.0, 3.0]),
                                 values=np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError, match="W\\(0\\) = 0"):
        zeta_numeric(off_line, 0.5)


def test_zeta_refuses_a_table_too_wide_for_gamma_perp():
    # |w/gamma_perp| near 1e154 overflowed the products of x: this table gave
    # -inf at 1e-150 and nan at 1e-160 and 1e-300
    table = TabulatedSpectrum(omega=np.array([-1.0, 0.0, 1e4, 2e4]),
                              values=np.array([0.0, 1.0, 1.0, 0.0]))
    for gamma_perp in (1e-150, 1e-160, 1e-300):
        with pytest.raises(ValueError, match="exceeds"):
            zeta_numeric(table, gamma_perp)
    assert zeta_numeric(table, 1e-100) == 1.0
    assert math.isclose(zeta_numeric(table, 1e-3), 0.9974828612005664, rel_tol=1e-15)


def _detuned_table():
    """A Lorentzian of fwhm 2 centred at 3, on ref_table's 1201 nodes."""
    omega = ref_table().omega
    lor = LorentzianSpectrum(peak=1.0, fwhm=2.0, center=3.0)
    return TabulatedSpectrum(omega=omega, values=spectral_density(lor, omega))


def _zeta_gauss_legendre(tab, gp, order=20):
    """zeta of a table by Gauss-Legendre on each segment.

    Each segment is cut into equal pieces no longer than a quarter of the
    segment's distance from the atomic line's poles at +-i*gp, so the
    rational integrand is resolved to rounding by `order` points a piece.
    """
    t, weights = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for w0, w1, v0, v1 in zip(tab.omega[:-1], tab.omega[1:],
                              tab.values[:-1], tab.values[1:]):
        near = 0.0 if w0 <= 0.0 <= w1 else min(abs(w0), abs(w1))
        pieces = math.ceil((w1 - w0) / (0.25 * math.hypot(near, gp)))
        edges = np.linspace(w0, w1, pieces + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1])[:, None], 0.5 * np.diff(edges)[:, None]
        w = mid + half * t
        density = v0 + (v1 - v0) * (w - w0) / (w1 - w0)
        atomic = (gp / math.pi) / (w * w + gp * gp)
        total += math.fsum((half * weights * density * atomic).ravel())
    return total / spectral_density(tab, 0.0)


@pytest.mark.parametrize("gamma_perp", [0.01, 0.5, 5.0, 300.0])
@pytest.mark.parametrize("make", [ref_table, _detuned_table])
def test_zeta_table_matches_gauss_legendre(make, gamma_perp):
    # scipy's adaptive quad raised "roundoff error is detected" on both
    # tables at all four gamma_perp; the closed form is within 2e-15 here
    tab = make()
    oracle = _zeta_gauss_legendre(tab, gamma_perp)
    value = zeta_numeric(tab, gamma_perp)
    assert math.isfinite(value)
    assert abs(value - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("gamma_perp,fwhm,center", [
    (0.05825, 1.797e-4, 35.52),     # adaptive quad raised on this line
    (0.5, 5.0, 3.0), (1.0, 0.2, 2.0), (0.5, 50.0, 30.0),
    (1.0, 1e-3, 0.0), (1.0, 2e3, 0.0)])
def test_zeta_table_branch_matches_lorentzian_branch(gamma_perp, fwhm, center):
    # the Lorentzian sampled on sinh-spaced nodes out to sinh(20) half-widths
    # about its center and sinh(18) gamma_perp about the atomic line; the
    # chords' error falls as the square of the node spacing (1.7e-7 here)
    lor = LorentzianSpectrum(peak=1.0, fwhm=fwhm, center=center)
    u = np.linspace(-1.0, 1.0, 40001)
    omega = np.unique(np.concatenate([center + 0.5 * fwhm * np.sinh(20.0 * u),
                                      gamma_perp * np.sinh(18.0 * u)]))
    tab = TabulatedSpectrum(omega=omega, values=spectral_density(lor, omega))
    closed = zeta_numeric(lor, gamma_perp)
    assert abs(zeta_numeric(tab, gamma_perp) - closed) <= 1e-6 * closed


def test_zeta_narrow_lorentzian_limit():
    gp = 1.0
    delta = 1e-3 * gp
    s = LorentzianSpectrum(peak=1.0, fwhm=delta)
    approx = delta / (2.0 * gp)
    assert abs(zeta_numeric(s, gp) - approx) / approx <= 1e-3


@given(log_ratio=st.floats(min_value=-3.0, max_value=3.0),
       gamma_perp=rates)
@settings(max_examples=30, deadline=None)
def test_zeta_quadrature_consistency_sweep(log_ratio, gamma_perp):
    delta = gamma_perp * 10.0 ** log_ratio
    s = LorentzianSpectrum(peak=2.0, fwhm=delta)
    closed = SystemParams(a=2.0 * gamma_perp, delta=delta, omega0=0.0).zeta
    assert abs(zeta_numeric(s, gamma_perp) - closed) <= 1e-6


# ----------------------------------------------------------------------
# fixed point and eigenmodes

def test_steady_state_values():
    assert steady_state(SystemParams(a=1.0, delta=5.0, omega0=0.0)) == -1.0
    p = SystemParams(a=1.0, delta=10.0, omega0=math.sqrt(22.0))  # zeta*bw21 = 2
    assert math.isclose(steady_state(p), -0.2, rel_tol=1e-14)
    p2 = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
    assert math.isclose(steady_state(p2), -3.0 / 14.0, rel_tol=1e-14)


def test_steady_state_agrees_with_long_integration():
    p = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
    trace = integrate_effective_bloch(p, 50.0, 1e-3)
    assert abs(trace.n[-1] - steady_state(p)) <= 1e-6


def test_eigenvalues_decoupled_limit():
    p = SystemParams(a=1.0, delta=10.0, omega0=0.0)
    m = eigenvalues(p)
    assert math.isclose(m.lam_plus.real, -1.0, rel_tol=1e-12)
    assert math.isclose(m.lam_minus.real, -p.gamma_eff, rel_tol=1e-12)
    assert not m.oscillatory


def test_eigenvalues_oscillatory_case():
    m = eigenvalues(SystemParams(a=1.0, delta=1.0, omega0=6.0))
    assert math.isclose(m.discriminant, -144.0, rel_tol=1e-12)
    assert math.isclose(m.frequency, 6.0, rel_tol=1e-12)
    assert m.oscillatory
    assert m.lam_plus == m.lam_minus.conjugate()


def test_eigenvalues_strong_incoherence_split():
    p = SystemParams(a=1.0, delta=1e3, omega0=1.0)
    m = eigenvalues(p)
    slow = -(p.a + 2.0 * p.zeta_bw21)
    assert abs(m.lam_plus.real - slow) / abs(slow) <= 1e-2
    assert abs(m.lam_minus.real + p.gamma_eff) / p.gamma_eff <= 1e-2


@given(a=rates, delta=nonneg, omega0=nonneg, gamma_dc=nonneg)
@settings(max_examples=200)
def test_trace_and_determinant_identities(a, delta, omega0, gamma_dc):
    p = SystemParams(a=a, delta=delta, omega0=omega0, gamma_dc=gamma_dc)
    m = eigenvalues(p)
    tr = m.lam_plus + m.lam_minus
    det = m.lam_plus * m.lam_minus
    scale = p.gamma_eff + p.a
    assert abs(tr - (-scale)) <= 1e-12 * scale
    want = p.gamma_eff * (p.a + 2.0 * p.zeta_bw21)
    # reconstructing det from the roots cancels near-degenerate digits, so
    # the honest scale is eps*trace^2, not eps*det
    assert abs(det - want) <= 1e-13 * max(want, scale * scale, 1.0)
    assert m.lam_plus.real < 0 and m.lam_minus.real < 0


@given(a=rates, delta=nonneg, omega0=nonneg, gamma_dc=nonneg)
@settings(max_examples=200)
def test_oscillation_flag_equivalences(a, delta, omega0, gamma_dc):
    p = SystemParams(a=a, delta=delta, omega0=omega0, gamma_dc=gamma_dc)
    m = eigenvalues(p)
    fl = thresholds(p)
    assert m.oscillatory == (m.discriminant < 0)
    assert m.oscillatory == (m.lam_plus.imag != 0)
    assert fl.oscillation == m.oscillatory


@given(a=rates, spread=st.floats(min_value=5.0, max_value=100.0),
       pump=st.floats(min_value=2.0, max_value=50.0),
       split=st.floats(min_value=0.1, max_value=1.0))
@settings(max_examples=200)
def test_deep_oscillations_are_underdamped(a, spread, pump, split):
    # linewidth plus dephasing at least 5x the decay, pump at least twice
    # the oscillation threshold: there the damping cannot exceed twice the
    # ring frequency
    total = spread * a
    delta = total * split
    gamma_dc = 0.5 * (total - delta)
    bound = (delta + 2.0 * gamma_dc - a) ** 2 / (16.0 * delta)
    omega0 = math.sqrt(pump * bound * delta)
    p = SystemParams(a=a, delta=delta, omega0=omega0, gamma_dc=gamma_dc)
    m = eigenvalues(p)
    assume(m.oscillatory)
    damping = -m.lam_plus.real
    assert damping <= 2.0 * m.frequency * (1.0 + 1e-9)


# ----------------------------------------------------------------------
# regime flags

def test_flags_quiet_regime():
    fl = thresholds(SystemParams(a=1.0, delta=10.0, omega0=2.0))
    assert not fl.oscillation
    assert fl.rate_eq_valid
    assert math.isclose(fl.oscillation_bound, 81.0 / 160.0, rel_tol=1e-15)


def test_flags_oscillatory_regime():
    fl = thresholds(SystemParams(a=1.0, delta=1.0, omega0=6.0))
    assert fl.oscillation
    assert not fl.rate_eq_valid
    assert not fl.ere_regime


def test_oscillation_bound_light_incoherence_limit():
    p = SystemParams(a=1.0, delta=1e6, omega0=1.0)
    fl = thresholds(p)
    assert math.isclose(fl.oscillation_bound, p.delta / 16.0, rel_tol=1e-5)


def test_flags_coherent_limit():
    fl = thresholds(SystemParams(a=1.0, delta=0.0, omega0=2.0))
    assert fl.coherent_limit
    assert math.isnan(fl.oscillation_bound)
    assert not fl.rate_eq_valid
    # the mode pair still classifies plain Rabi flopping as oscillatory
    assert fl.oscillation


@given(a=rates, delta=nonneg, omega0=nonneg, gamma_dc=nonneg)
@settings(max_examples=200)
def test_ere_regime_implies_rate_regime(a, delta, omega0, gamma_dc):
    fl = thresholds(SystemParams(a=a, delta=delta, omega0=omega0,
                                 gamma_dc=gamma_dc))
    if fl.ere_regime:
        assert fl.rate_eq_valid
    if fl.rate_eq_valid:
        assert not fl.oscillation


# ----------------------------------------------------------------------
# oscillation frequency extraction and reporting

def test_measured_frequency_damped_cosine():
    t = np.linspace(0.0, 5.0, 5001)
    x = np.exp(-t) * np.cos(6.0 * t)
    f = measured_oscillation_frequency(t, x)
    assert abs(f - 6.0) / 6.0 <= 1e-3


def test_measured_frequency_needs_repeated_peaks():
    t = np.linspace(0.0, 5.0, 5001)
    assert math.isnan(measured_oscillation_frequency(t, np.exp(-t)))


def test_measured_frequency_flat_tops():
    # a rise into a run of equal values is no maximum unless the run ends in
    # a fall: a monotone staircase has none, two flat tops 3 apart ring at 2pi/3
    t = np.arange(7.0)
    assert math.isnan(measured_oscillation_frequency(t, [0, 1, 1, 2, 2, 3, 3]))
    assert math.isnan(measured_oscillation_frequency(t, [0, 1, 1, 1, 2, 2, 2]))
    f = measured_oscillation_frequency(t, [0, 1, 1, 0, 1, 1, 0])
    assert f == 2.0 * math.pi / 3.0


def test_report_fields_and_ranges():
    p = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    r = build_report(p)
    assert math.isclose(r.zeta, 0.5, rel_tol=1e-15)
    assert math.isclose(r.frequency, 6.0, rel_tol=1e-12)
    assert r.oscillation and not r.rate_eq_valid
    text = r.to_text()
    assert "n_infinity" in text and "lam_plus" in text
    header = r.csv_header().split(",")
    row = r.csv_row().split(",")
    assert len(header) == len(row)


def test_report_coherent_limit_marks_undefined_quantities():
    r = build_report(SystemParams(a=1.0, delta=0.0, omega0=2.0))
    assert r.coherent_limit
    assert math.isnan(r.bw21)
    assert math.isnan(r.oscillation_bound)


@given(a=rates, delta=nonneg, omega0=nonneg, gamma_dc=nonneg)
@settings(max_examples=200)
def test_report_steady_state_range(a, delta, omega0, gamma_dc):
    r = build_report(SystemParams(a=a, delta=delta, omega0=omega0,
                                  gamma_dc=gamma_dc))
    assert -1.0 <= r.n_infinity < 0.0
    if omega0 == 0.0:
        assert r.n_infinity == -1.0
