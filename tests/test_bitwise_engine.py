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
  t' points, so that a lag- or snapshot-chunked reduction must keep the bits.

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
SDE_CSV_MD5 = "ddaf1c366f331908de5311a77c38a3ea"
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
LAGS_MD5 = {"mean": "0846ae55de6ebed6ff37c33b0a001cc5",
            "stderr_re": "2b0378063768c7aa2f0ac0f5b70a80a5",
            "stderr_im": "ccdac341c6b2948cf9ae608e3f770f66"}
SNAPSHOTS_MD5 = {"k_mean": "afffac7294c48587e20af926a76ae73a",
                 "k_stderr": "c62f5afafbb23000caeee06eb6610e72",
                 "c_mean": "5d6f6a9ad64f8cc145ba82f67eabf40d",
                 "c_stderr": "ede506e9e929eb60be0bd7cf84d39398",
                 "n_mean": "40420073479e6e7352097247a1c74457",
                 "n_stderr": "1e12053961f71559e78f094d3ea64175",
                 "residual": "abc80727c2aaf261a2c3e20cb8bbf7f3",
                 "residual_stderr": "c62f5afafbb23000caeee06eb6610e72"}


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
