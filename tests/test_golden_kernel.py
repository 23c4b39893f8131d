"""Golden regression test for the tabulated autocorrelation kernel.

``tests/data/golden_kernel.npz`` holds the outputs of ``golden_outputs`` as
computed by the per-interval sin/cos formula that preceded the
slope-weighted cosine differences and the grid phasors. The new code rounds
differently (fewer terms, and cos/sin from products of complex exponentials
on a uniform lag grid), so every value is compared to GOLDEN_TOL absolute;
the kernel peaks at about 5.5.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_golden_kernel.py``.
"""

from pathlib import Path

import numpy as np

from blochrate import autocorrelation_kernel, integrate_memory_kernel, spectrum
from test_kinetics import REF, ref_table

GOLDEN = Path(__file__).parent / "data" / "golden_kernel.npz"
GOLDEN_TOL = 1e-13


def golden_outputs() -> dict:
    """Every golden array, keyed by the call that made it."""
    tab = ref_table()
    rows = spectrum._KERNEL_CHUNK // len(tab.omega)
    # the lag grids the memory-kernel solver passes, and the off-grid lags
    # of the chunking test: tau=0 and 1e-9 take the small-tau branch
    off_grid = np.concatenate([[0.0, 1e-9], np.linspace(1e-3, 20.0, 3 * rows + 7)])
    return {
        "kernel.dt1e-3": autocorrelation_kernel(tab, np.arange(10001) * 1e-3),
        "kernel.dt1e-4": autocorrelation_kernel(tab, np.arange(20001) * 1e-4),
        "kernel.off_grid": autocorrelation_kernel(tab, off_grid),
        "memory_kernel.n": integrate_memory_kernel(tab, REF, 10.0, 1e-3).n,
    }


def test_golden_kernel():
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
