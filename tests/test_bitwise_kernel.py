"""Bitwise pin of the tabulated kernel on the solver's lag grid.

``test_golden_kernel.py`` lets the kernel move by 1e-13, and the
``simulate`` md5 in ``test_bitwise_kinetics.py`` covers only a 241-node
table over 2001 lags, so a reordered sum that moves a value by 1e-15 could
pass both. This file pins ``autocorrelation_kernel`` on ``ref_table()``
(1201 nodes, so ``_KERNEL_CHUNK // 1201 = 218`` lags a chunk) bit for bit,
by ``np.array_equal`` and equal sign bits, on three grids tau = k * h:

- ``dt1e-3``: 10 001 lags, 45 full chunks and a tail of 191;
- ``dt1e-4``: 20 001 lags, 91 full chunks and a tail of 163;
- ``small``: 1001 lags at h = 1e-9, whose first chunk opens with four
  small-tau rows (tau * max|s| < 1e-4, trapezoid quadrature) ahead of the
  closed form's rows.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_bitwise_kernel.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from blochrate import autocorrelation_kernel
from test_kinetics import ref_table

PINNED = Path(__file__).parent / "data" / "bitwise_kernel.npz"
CASES = {                       # name: (lags, h)
    "dt1e-3": (10001, 1e-3),
    "dt1e-4": (20001, 1e-4),
    "small": (1001, 1e-9),
}


def grid_kernel(case: str) -> np.ndarray:
    n, h = CASES[case]
    return autocorrelation_kernel(ref_table(), np.arange(n) * h)


@pytest.mark.parametrize("case", sorted(CASES))
def test_grid_kernel_is_bit_identical(case):
    want = np.load(PINNED)[case]
    got = grid_kernel(case)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED, **{case: grid_kernel(case) for case in sorted(CASES)})
    print(f"wrote {PINNED} ({PINNED.stat().st_size} bytes)")
