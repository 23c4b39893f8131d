"""Golden regression test for the Wiener-Khintchine layer in ``spectrum``.

``tests/data/golden_wk.npz`` holds the outputs of ``golden_outputs`` as
computed by the per-omega trapezoid loops and the whole-array ``2*n_t``
padded FFT that preceded the batch-streamed estimator. The new code changes
the order of floating-point sums (padding length, batch-summed power spectra,
matrix products over omega), so every value is compared to GOLDEN_TOL
absolute; the largest golden value is about 2.3.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_golden_wk.py``.
"""

from pathlib import Path

import numpy as np

from blochrate import (simulate_phases, spectrum_from_autocorrelation,
                       spectrum_from_kernel, wk_estimate)

GOLDEN = Path(__file__).parent / "data" / "golden_wk.npz"
GOLDEN_TOL = 1e-12

FIELDS = ("values", "stderr", "window", "truncation_estimate")


def golden_outputs() -> dict:
    """Every golden array, keyed ``<call>.<field>``."""
    out = {}
    _, phi = simulate_phases(2.0, 64, 8.0, 0.01, seed=23)
    omega = np.linspace(-6.0, 6.0, 97)
    for name, max_lag in (("wk_lag3", 3.0), ("wk_full", None)):
        est = wk_estimate(phi, 0.01, 2.0, omega, max_lag=max_lag)
        out.update({f"{name}.{f}": np.asarray(getattr(est, f)) for f in FIELDS})

    # a complex autocorrelation on an uneven grid: a shifted, damped line
    tau = np.concatenate([np.linspace(0.0, 2.0, 81), np.linspace(2.1, 9.0, 70)])
    g = np.exp((-0.7 + 1.3j) * tau) + 0.2 * np.exp(-2.0 * tau)
    out["autocorr.values"] = spectrum_from_autocorrelation(g, tau, omega, 1.5,
                                                           b=0.8)
    out["kernel.values"] = spectrum_from_kernel(g.real, tau, omega, omega21=0.4)
    return out


def test_golden_wk():
    want = np.load(GOLDEN)
    got = golden_outputs()
    assert set(got) == set(want.files)
    worst = 0.0
    for key, value in got.items():
        ref = want[key]
        assert value.shape == ref.shape, key
        dev = float(np.max(np.abs(value - ref)))
        assert dev <= GOLDEN_TOL, (key, dev)
        worst = max(worst, dev)
    print(f"worst deviation from golden: {worst:.3e}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **golden_outputs())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
