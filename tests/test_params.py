import dataclasses
import inspect
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochrate
from blochrate import CoherentLimitError, SystemParams
from blochrate.params import grid_steps, time_grid


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


def test_grid_steps():
    assert grid_steps(1.0, 1e-3) == 1000
    assert grid_steps(0.0, 0.1) == 0
    with pytest.raises(ValueError):
        grid_steps(0.0, 0.1, positive=True)
    for t, dt in [(1.0, 0.0), (1.0, -0.1), (1.0, math.nan), (1.0, math.inf),
                  (math.inf, 0.1), (math.nan, 0.1), (-0.1, 0.1), (0.35, 0.1)]:
        with pytest.raises(ValueError):
            grid_steps(t, dt)


@pytest.mark.parametrize("t_end, dt", [(10.0, 1e-3), (10.0, 1e-4), (0.0, 0.1)])
def test_time_grid_is_arange_times_dt(t_end, dt):
    # every solver's t column: the products k*dt, bit for bit
    want = np.arange(grid_steps(t_end, dt) + 1) * dt
    assert time_grid(t_end, dt).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="t_end"):
        time_grid(t_end + 0.5 * dt, dt)


def test_public_surface_is_pinned():
    # adding or removing a public name is a deliberate edit of this list
    public = sorted(name for name, value in vars(blochrate).items()
                    if not name.startswith("_")
                    and not isinstance(value, types.ModuleType))
    assert public == [
        "AnalysisReport", "CoherentLimitError", "CollisionParams",
        "DecorrelationResult", "EnsembleTrace", "IntegratorError",
        "KineticTrace", "LorentzianSpectrum", "ModeSpectrum",
        "PhaseAutocorrelation", "RegimeFlags",
        "SpectrumModel", "SpectrumSupportError", "StepSizeError",
        "SystemParams", "TabulatedSpectrum", "TrajectoryTrace", "WkEstimate",
        "autocorrelation_kernel", "build_report", "decorrelation_residual",
        "eigenvalues", "from_phase_diffusion", "fwhm_of",
        "integrate_effective_bloch", "integrate_ere",
        "integrate_generalized_ere", "integrate_memory_kernel",
        "integrate_modified_ere", "load_tabulated",
        "measured_oscillation_frequency", "phase_autocorrelation",
        "run_ensemble", "run_trajectory", "simulate_phases",
        "spectral_density", "spectrum_from_autocorrelation",
        "spectrum_from_kernel", "steady_state", "thresholds", "wk_estimate",
        "zeta_numeric",
    ]


def test_public_signatures_are_pinned():
    # adding or removing a public argument is a deliberate edit of this table
    signatures = {
        name: " ".join(inspect.signature(value).parameters)
        for name, value in vars(blochrate).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or dataclasses.is_dataclass(value))
    }
    assert signatures == {
        "AnalysisReport": "a delta omega0 gamma_dc gamma_perp gamma_eff zeta bw21 "
                          "zeta_bw21 n_infinity lam_plus lam_minus discriminant "
                          "frequency oscillation rate_eq_valid ere_regime "
                          "coherent_limit oscillation_bound",
        "CollisionParams": "gamma_21 gamma_12",
        "DecorrelationResult": "t t_prime k_mean k_stderr c_mean c_stderr n_mean "
                               "n_stderr residual residual_stderr n_traj "
                               "holds_3sigma low_statistics",
        "EnsembleTrace": "t n_mean n_var n_stderr n_traj coherence_mean final_n "
                         "prefix_traces",
        "KineticTrace": "t n q",
        "LorentzianSpectrum": "peak fwhm center",
        "ModeSpectrum": "lam_plus lam_minus discriminant frequency oscillatory",
        "PhaseAutocorrelation": "tau mean stderr_re stderr_im n_traj",
        "RegimeFlags": "oscillation rate_eq_valid ere_regime coherent_limit "
                       "oscillation_bound",
        "SystemParams": "a delta omega0 gamma_dc",
        "TabulatedSpectrum": "omega values",
        "TrajectoryTrace": "t n sigma phi",
        "WkEstimate": "omega values stderr window n_batches truncation_estimate "
                      "bias_warning",
        "autocorrelation_kernel": "s tau",
        "build_report": "params",
        "decorrelation_residual": "params n_traj t t_prime_grid seed dt threads",
        "eigenvalues": "params",
        "from_phase_diffusion": "omega0 delta",
        "fwhm_of": "x y",
        "integrate_effective_bloch": "params t_end dt n0 q0",
        "integrate_ere": "params t_end dt n0",
        "integrate_generalized_ere": "params coll t_end dt n0",
        "integrate_memory_kernel": "spectrum params t_end dt n0",
        "integrate_modified_ere": "params t_end dt n0",
        "load_tabulated": "path",
        "measured_oscillation_frequency": "t x",
        "phase_autocorrelation": "delta n_traj tau_grid seed",
        "run_ensemble": "params n_traj t_end dt seed n0 sigma0 phi0 threads "
                        "prefixes",
        "run_trajectory": "params t_end dt seed index n0 sigma0 phi0 increments",
        "simulate_phases": "delta n_traj t_end dt seed",
        "spectral_density": "s omega",
        "spectrum_from_autocorrelation": "g tau omega_grid omega0",
        "spectrum_from_kernel": "kernel tau omega",
        "steady_state": "params",
        "thresholds": "params",
        "wk_estimate": "phi dt omega0 omega_grid max_lag",
        "zeta_numeric": "s gamma_perp",
    }
