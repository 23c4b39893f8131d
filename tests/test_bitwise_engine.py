"""Bitwise pin of the stochastic engine in ``fieldsim``.

``test_golden.py`` lets everything that passes through the step kernel move
by GOLDEN_TOL, so a change that only rounds differently passes it. This file
pins the engine bit for bit instead, on this platform's libm: a change that
claims bit identity (a new memory layout, workspaces, another spelling of
the same transcendental) must leave it passing.

- the ``simulate model=sde`` CSV, by md5, at ``--threads`` 1 and 2, with
  blocks, noise chunks and noise tiles shrunk so that 40 trajectories span
  three blocks, five chunks and tiles with a short tail;
- ``run_trajectory`` n, sigma and phi, by ``np.array_equal`` and by equal
  sign bits (a signed zero is not a rounding difference), on a stream path,
  on explicit increments holding +0.0 and -0.0, and with the drive off;
- every array of ``decorrelation_residual``;
- by md5 of the array bytes, ``phase_autocorrelation`` with more lags than
  ``NOISE_CHUNK`` over three blocks, and ``decorrelation_residual`` with 50
  t' points, so that a lag- or snapshot-chunked reduction must keep the bits;
- by md5, ``run_ensemble`` at its own block and chunk sizes over one full
  block and a short one, so that how a wide block's noise is cut into
  chunks must keep the bits.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_bitwise_engine.py``; then update SDE_CSV_MD5
from its printout.
"""

import hashlib
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import blochrate.fieldsim as fs
from blochrate import SystemParams, decorrelation_residual, run_trajectory
from blochrate.cli import main

PINNED = Path(__file__).parent / "data" / "bitwise_engine.npz"
SDE_CSV_MD5 = "6af284bf983b05f969594f4873327064"
SDE_ARGS = ["--set", "model=sde", "--set", "delta=5", "--set", "omega0=4",
            "--set", "n_traj=40", "--set", "t_end=0.3", "--set", "dt=1e-3",
            "--seed", "77"]

REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
DARK = SystemParams(a=1.0, delta=5.0, omega0=0.0)


@contextmanager
def _small(block_traj=16, noise_chunk=64, noise_tile=400):
    saved = fs.BLOCK_TRAJ, fs.NOISE_CHUNK, fs.NOISE_TILE
    fs.BLOCK_TRAJ, fs.NOISE_CHUNK, fs.NOISE_TILE = block_traj, noise_chunk, noise_tile
    try:
        yield
    finally:
        fs.BLOCK_TRAJ, fs.NOISE_CHUNK, fs.NOISE_TILE = saved


def sde_csv_md5(out_dir: Path, threads: int) -> str:
    with _small():
        code = main(["simulate", *SDE_ARGS, "--threads", str(threads),
                     "--out", str(out_dir)])
    assert code == 0
    return hashlib.md5((out_dir / "sde_trace.csv").read_bytes()).hexdigest()


def pinned_outputs() -> dict:
    """Every pinned array, keyed ``<call>.<field>``."""
    out = {}
    with _small():
        trj = run_trajectory(REF, 0.3, 1e-3, seed=31, index=5, n0=-0.6,
                             sigma0=0.1 - 0.2j, phi0=0.4)
    out.update({"traj_stream.n": trj.n, "traj_stream.sigma": trj.sigma,
                "traj_stream.phi": trj.phi})

    # zero increments of both signs: the step's phase factor of a zero
    # increment must keep the sign the complex exp gives it
    z = np.tile([0.0, -0.0, 0.5, -1.25, 0.0, 2.0, -0.0, -0.3], 25)
    with _small():
        trj = run_trajectory(REF, 0.2, 1e-3, seed=0, increments=z,
                             n0=0.2, sigma0=complex(0.25, -0.0))
    out.update({"traj_zeros.n": trj.n, "traj_zeros.sigma": trj.sigma,
                "traj_zeros.phi": trj.phi})

    trj = run_trajectory(DARK, 0.2, 1e-3, seed=4, index=2, n0=0.5)
    out.update({"traj_dark.n": trj.n, "traj_dark.sigma": trj.sigma,
                "traj_dark.phi": trj.phi})

    with _small():
        res = decorrelation_residual(REF, 40, 0.3, np.array([0.0, 0.1, 0.3]),
                                     seed=5, dt=1e-3, threads=2)
    out.update({f"decorr.{name}": getattr(res, name)
                for name in ("k_mean", "k_stderr", "c_mean", "c_stderr",
                             "n_mean", "n_stderr", "residual",
                             "residual_stderr")})
    return out


def _signbits(x):
    x = np.asarray(x)
    if np.iscomplexobj(x):
        return np.signbit(x.real), np.signbit(x.imag)
    return (np.signbit(x),)


# md5 of each output array's bytes, with _small()'s blocks and chunks
LAGS_MD5 = {"mean": "38ec35be1094c367148ee190a5327c35",
            "stderr_re": "a0f275100513b42cb64ad06250bb0e6a",
            "stderr_im": "cddfe48e0269e08e004d3208901b99e6"}
SNAPSHOTS_MD5 = {"k_mean": "8177b888ef90965d7f0d92095700d4ea",
                 "k_stderr": "06fc2e2b9e6fc5b2fb5f27293ec36340",
                 "c_mean": "1018a4aa3a566629d59768b4685d3896",
                 "c_stderr": "c7a534c9d17c5f675afd1217eb959e21",
                 "n_mean": "d961a7ae29246a9098c240f2d0e3902b",
                 "n_stderr": "757fb5bdaa0767c45d37bb2ecb6c26ab",
                 "residual": "948af63492a6c7d0dbc5229020317621",
                 "residual_stderr": "06fc2e2b9e6fc5b2fb5f27293ec36340"}


def _md5s(result, names) -> dict:
    return {name: hashlib.md5(np.ascontiguousarray(getattr(result, name)).tobytes())
            .hexdigest() for name in names}


def test_phase_autocorrelation_past_one_noise_chunk_is_pinned():
    # 150 lags are three chunks of 64, and 40 trajectories three blocks of 16
    with _small():
        est = fs.phase_autocorrelation(2.0, 40, np.arange(150) * 0.01, seed=9)
    assert _md5s(est, LAGS_MD5) == LAGS_MD5


def test_decorrelation_with_many_snapshots_is_pinned():
    with _small():
        res = decorrelation_residual(REF, 40, 0.3, np.arange(50) * 6e-3,
                                     seed=5, dt=1e-3, threads=2)
    assert _md5s(res, SNAPSHOTS_MD5) == SNAPSHOTS_MD5


@pytest.mark.parametrize("columns", [1, 2, 7])
def test_column_blocks_keep_the_pins(monkeypatch, columns):
    # lags and t' points reduced a few columns at a time, a lone last column
    # included (7 columns leave one of 64 lags and one of 50 t' points)
    monkeypatch.setattr(fs, "_reduce_columns", lambda width: columns)
    test_phase_autocorrelation_past_one_noise_chunk_is_pinned()
    test_decorrelation_with_many_snapshots_is_pinned()


def test_width_derived_chunks_keep_the_csv(tmp_path, monkeypatch):
    # 9-step noise chunks at width 16 and 18-step ones at width 8
    monkeypatch.setattr(fs, "NOISE_VALUES", 16 * 9)
    assert sde_csv_md5(tmp_path, 2) == SDE_CSV_MD5


# md5 of each run_ensemble array over 8200 trajectories and 600 steps, at the
# module's own sizes: one 8192-wide block and a block of 8
WIDE_MD5 = {"n_mean": "5f6e56aade61c4d375c8be56c7595c48",
            "n_var": "abb115e62183c0eaaf0c4eb2b2dafa84",
            "coherence_mean": "5cc57cb92ee43dd2302ce52d0cb56897",
            "final_n": "da0288675ac9475933f1388ef5537a51"}


@pytest.mark.parametrize("threads", [1, 2])
def test_wide_block_ensemble_is_pinned(threads):
    trace = fs.run_ensemble(REF, 8200, 0.6, 1e-3, seed=61, threads=threads)
    assert _md5s(trace, WIDE_MD5) == WIDE_MD5


@pytest.mark.parametrize("threads", [1, 2])
def test_sde_csv_md5(tmp_path, threads):
    assert sde_csv_md5(tmp_path, threads) == SDE_CSV_MD5


def test_engine_arrays_are_bit_identical():
    want = np.load(PINNED)
    got = pinned_outputs()
    assert set(got) == set(want.files)
    for key, value in got.items():
        ref = want[key]
        assert value.dtype == ref.dtype and value.shape == ref.shape, key
        assert np.array_equal(value, ref), key
        for a, b in zip(_signbits(value), _signbits(ref)):
            assert np.array_equal(a, b), f"{key}: sign of a zero moved"


if __name__ == "__main__":
    import tempfile

    PINNED.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED, **pinned_outputs())
    print(f"wrote {PINNED} ({PINNED.stat().st_size} bytes)")
    with tempfile.TemporaryDirectory() as tmp:
        print("SDE_CSV_MD5 =", {t: sde_csv_md5(Path(tmp), t) for t in (1, 2)})
