"""Bitwise pin of the Wiener-Khintchine batch autocorrelation in ``spectrum``.

``test_golden_wk.py`` lets the estimator move by 1e-12, so a change that
only rounds differently passes it. This file pins
``spectrum._batch_autocorrelation`` bit for bit instead: a change that claims
bit identity (another buffer layout, rows taken a few at a time, squares
formed in place) must leave it passing. The cases are sized against the
FFT length L = next_fast_len(n_t + k_max) and the row budget
``_KERNEL_CHUNK // L`` that bounds a pass:

- ``long``: 300 x 4001 at every lag (L = 8019, 32 rows a pass, last pass
  of 12 rows);
- ``window``: 256 x 4001 at 1200 lags, one batch of the field-stats
  workload (L = 5250, 49 rows a pass, last pass of 11 rows);
- ``exact``: 245 x 4001 at 1200 lags, five full passes and no tail;
- ``few``: 7 x 4001 at 1200 lags, fewer rows than one pass;
- ``short``: 1000 x 101 at every lag (L = 210, 1248 rows a pass), the
  whole batch in one pass;
- ``short_tail``: 1250 x 101 at every lag, one full pass and a tail of 2.

Phases are Brownian paths from ``np.random.default_rng``, with the step
spread of delta = 2 at dt = 0.01. Regenerate (only after a deliberate
change of the numbers) with ``PYTHONPATH=src python tests/test_bitwise_wk.py``.
"""

from pathlib import Path

import numpy as np
import pytest

from blochrate import spectrum

PINNED = Path(__file__).parent / "data" / "bitwise_wk.npz"
CASES = {                       # name: (n_rows, n_t, k_max, seed)
    "long": (300, 4001, 4000, 1),
    "window": (256, 4001, 1200, 2),
    "exact": (245, 4001, 1200, 3),
    "few": (7, 4001, 1200, 4),
    "short": (1000, 101, 100, 5),
    "short_tail": (1250, 101, 100, 6),
}


def phases(n_rows: int, n_t: int, seed: int) -> np.ndarray:
    steps = np.random.default_rng(seed).normal(0.0, np.sqrt(2.0 * 0.01),
                                               (n_rows, n_t - 1))
    phi = np.zeros((n_rows, n_t))
    np.cumsum(steps, axis=1, out=phi[:, 1:])
    return phi


def batch_autocorrelation(case: str) -> np.ndarray:
    n_rows, n_t, k_max, seed = CASES[case]
    return spectrum._batch_autocorrelation(phases(n_rows, n_t, seed), k_max)


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_autocorrelation_is_bit_identical(case):
    want = np.load(PINNED)[case]
    got = batch_autocorrelation(case)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(float), want.view(float))
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED, **{case: batch_autocorrelation(case)
                                   for case in sorted(CASES)})
    print(f"wrote {PINNED} ({PINNED.stat().st_size} bytes)")
