"""End-to-end checks of the package's quantitative contract.

Run with ``pytest tests/test_acceptance.py -v`` to get one PASSED/FAILED
line per criterion; each test prints its measured numbers so the verbose
log doubles as an acceptance report. The stochastic checks pin their seeds,
so a pass is reproducible and a failure is a real regression.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import blochrate
from blochrate import (
    LorentzianSpectrum,
    SystemParams,
    decorrelation_residual,
    fwhm_of,
    integrate_effective_bloch,
    integrate_ere,
    integrate_memory_kernel,
    integrate_modified_ere,
    measured_oscillation_frequency,
    phase_autocorrelation,
    run_ensemble,
    simulate_phases,
    thresholds,
    wk_estimate,
    zeta_numeric,
)

REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))


def test_criterion_01_ensemble_mean_tracks_effective_bloch():
    t0 = time.perf_counter()
    trace = run_ensemble(REF, 10_000, 6.0, 1e-3, seed=20260814)
    kin = integrate_effective_bloch(REF, 6.0, 1e-3)
    diff = np.abs(trace.n_mean - kin.n)
    allow = np.maximum(3.0 * trace.n_stderr, 0.01)
    elapsed = time.perf_counter() - t0
    print(f"worst |diff|/allowance = {np.max(diff / allow):.3f}, "
          f"elapsed {elapsed:.1f}s")
    assert np.all(diff <= allow)
    assert elapsed < 60.0


def test_criterion_02_steady_state_formula_on_rate_grid():
    worst_b = worst_e = 0.0
    for delta in (10.0, 18.0, 32.0, 56.0, 100.0):
        for f in (0.1, 0.25, 0.4, 0.6, 0.8):
            p = SystemParams(a=1.0, delta=delta,
                             omega0=f * (delta - 1.0) / 4.0)
            assert thresholds(p).rate_eq_valid
            want = -1.0 / (1.0 + 2.0 * p.zeta_bw21)
            nb = integrate_effective_bloch(p, 50.0, 1e-3).n[-1]
            ne = integrate_ere(p, 50.0, 1e-3).n[-1]
            worst_b = max(worst_b, abs(nb - want))
            worst_e = max(worst_e, abs(ne - want))
    print(f"worst endpoint error: bloch {worst_b:.3g}, rate-eq {worst_e:.3g}")
    assert worst_b <= 1e-6
    assert worst_e <= 1e-6


def test_criterion_03_relaxation_oscillation_onset():
    quiet = SystemParams(a=1.0, delta=10.0, omega0=2.0)
    assert not thresholds(quiet).oscillation
    tq = integrate_effective_bloch(quiet, 15.0, 1e-3)
    assert math.isnan(measured_oscillation_frequency(tq.t, tq.n))

    ringing = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    assert thresholds(ringing).oscillation
    tr = integrate_effective_bloch(ringing, 15.0, 1e-3)
    freq = measured_oscillation_frequency(tr.t, tr.n)
    print(f"measured ring frequency {freq:.6f} (target 6.0)")
    assert abs(freq - 6.0) / 6.0 <= 0.02


def test_criterion_04_incoherence_fraction_quadrature():
    gp = 1.0
    worst = 0.0
    for ratio in np.logspace(-3.0, 3.0, 20):
        s = LorentzianSpectrum(peak=1.0, fwhm=ratio * gp)
        closed = SystemParams(a=2.0 * gp, delta=ratio * gp, omega0=0.0).zeta
        worst = max(worst, abs(zeta_numeric(s, gp) - closed))
    broad = zeta_numeric(LorentzianSpectrum(peak=1.0, fwhm=2e3 * gp), gp)
    narrow = zeta_numeric(LorentzianSpectrum(peak=1.0, fwhm=1e-3 * gp), gp)
    narrow_ref = 1e-3 * gp / (2.0 * gp)
    print(f"sweep max error {worst:.3g}; broad 1-zeta {1.0 - broad:.3g}; "
          f"narrow rel dev {abs(narrow - narrow_ref) / narrow_ref:.3g}")
    assert worst <= 1e-6
    assert abs(broad - 1.0) <= 1e-3
    assert abs(narrow - narrow_ref) / narrow_ref <= 1e-3


def test_criterion_05_memory_kernel_reduces_to_effective_bloch():
    t0 = time.perf_counter()
    tm = integrate_memory_kernel(None, REF, 10.0, 1e-4)
    tb = integrate_effective_bloch(REF, 10.0, 1e-4)
    worst = float(np.max(np.abs(tm.n - tb.n)))
    elapsed = time.perf_counter() - t0
    print(f"max deviation {worst:.3g}, elapsed {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 30.0


def test_criterion_06_field_statistics():
    t0 = time.perf_counter()
    delta = 2.0
    tau = np.linspace(0.0, 5.0, 41)[1:]      # tau*delta covers (0, 10]
    est = phase_autocorrelation(delta, 100_000, tau, seed=99)
    want = np.exp(-0.5 * delta * tau)
    dev_re = np.abs(est.mean.real - want)
    dev_im = np.abs(est.mean.imag)
    sigmas = max(np.max(dev_re / est.stderr_re), np.max(dev_im / est.stderr_im))

    _, phi = simulate_phases(delta, 4096, 40.0, 0.01, seed=5)
    wk = wk_estimate(phi, 0.01, omega0=2.0, omega_grid=np.linspace(-8, 8, 321),
                     max_lag=12.0)
    width = fwhm_of(wk.omega, wk.values)
    elapsed = time.perf_counter() - t0
    print(f"autocorrelation worst {sigmas:.2f} sigma; spectral FWHM {width:.3f} "
          f"(target {delta}); elapsed {elapsed:.1f}s")
    assert np.all(dev_re <= 3.0 * est.stderr_re)
    assert np.all(dev_im <= 3.0 * est.stderr_im)
    assert not wk.bias_warning
    assert abs(width - delta) / delta <= 0.05
    assert elapsed < 60.0


def test_criterion_07_decorrelation_residual():
    t0 = time.perf_counter()
    p = SystemParams(a=1.0, delta=10.0, omega0=2.0)
    res = decorrelation_residual(p, 100_000, 2.0, np.linspace(0.0, 2.0, 11),
                                 seed=7, dt=1e-3)
    elapsed = time.perf_counter() - t0
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.abs(res.residual) / res.residual_stderr
    print(f"worst residual {np.nanmax(ratio):.2f} sigma, elapsed {elapsed:.1f}s")
    assert res.holds_3sigma
    assert not res.low_statistics
    assert elapsed < 120.0


def test_criterion_08_short_time_exponents():
    def exponent(t, n):
        m = t > 0
        return float(np.polyfit(np.log(t[m]), np.log(n[m] + 1.0), 1)[0])

    e_rate = exponent(*((tr := integrate_ere(REF, 0.01, 1e-4)).t, tr.n))
    e_bloch = exponent(*((tr := integrate_effective_bloch(REF, 0.01, 1e-4)).t,
                         tr.n))
    e_mod = exponent(*((tr := integrate_modified_ere(REF, 0.01, 1e-4)).t, tr.n))
    print(f"exponents: rate-eq {e_rate:.4f}, bloch {e_bloch:.4f}, "
          f"modified {e_mod:.4f}")
    assert abs(e_rate - 1.0) <= 0.1
    assert abs(e_bloch - 2.0) <= 0.1
    assert abs(e_mod - 2.0) <= 0.1


def test_criterion_09_monte_carlo_error_scaling():
    t0 = time.perf_counter()
    p = SystemParams(a=1.0, delta=10.0, omega0=2.0)
    trace = run_ensemble(p, 10_000, 10.0, 2e-3, seed=11)
    sizes = np.array([100, 1_000, 10_000])
    stderr = np.array([np.std(trace.final_n[:m], ddof=1) / math.sqrt(m)
                       for m in sizes])
    slope = float(np.polyfit(np.log10(sizes), np.log10(stderr), 1)[0])
    elapsed = time.perf_counter() - t0
    print(f"stderr log-log slope {slope:.4f}, elapsed {elapsed:.1f}s")
    assert abs(slope + 0.5) <= 0.1
    assert elapsed < 60.0


def test_criterion_10_csv_byte_identity_across_threads(tmp_path):
    base = [sys.executable, "-m", "blochrate", "simulate",
            "--set", "model=sde", "--set", "delta=5", "--set", "omega0=2",
            "--set", "n_traj=20000", "--set", "t_end=1", "--set", "dt=0.001",
            "--seed", "321"]
    # the CLI runs from the package this test imported, installed or not
    src = str(Path(blochrate.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    blobs = []
    for threads in (1, 2, 4):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([*base, "--out", str(out),
                               "--threads", str(threads)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        blobs.append((out / "sde_trace.csv").read_bytes())
    print(f"{len(blobs[0])} bytes per file, identical across threads")
    assert blobs[0] == blobs[1] == blobs[2]
