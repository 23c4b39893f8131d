"""Bitwise pin of the deterministic solvers and the trace CSV writer.

A change that claims to move no bit (another loop shape for the Lorentzian
history recursion, a streamed or block-formatted CSV writer) must leave this
file passing:

- ``integrate_memory_kernel(None, REF, 1.0, 1e-4).n``, by ``np.array_equal``
  and by equal sign bits, against ``data/bitwise_kinetics.npz``;
- the md5 of the ``simulate`` CSV for ``model=memory-kernel`` on the
  Lorentzian line (10 001 rows) and on a seed-jittered 241-node table of it,
  and for ``model=effective-bloch`` (6001 rows).

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_bitwise_kinetics.py``; then update
CSV_MD5 from its printout.
"""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from blochrate import (LorentzianSpectrum, SystemParams, integrate_memory_kernel,
                       spectral_density)
from blochrate.cli import main

PINNED = Path(__file__).parent / "data" / "bitwise_kinetics.npz"
REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
BASE = ["simulate", "--set", "delta=5", "--set", f"omega0={REF.omega0!r}",
        "--seed", "17"]
CASES = {
    "memory-kernel": ["--set", "model=memory-kernel", "--set", "t_end=1",
                      "--set", "dt=1e-4"],
    "memory-kernel-table": ["--set", "model=memory-kernel", "--set", "t_end=2",
                            "--set", "dt=1e-3"],
    "effective-bloch": ["--set", "model=effective-bloch", "--set", "t_end=6",
                        "--set", "dt=1e-3"],
}
CSV_MD5 = {
    "memory-kernel": "292c1e94f45bfb6fd29d4342dd194ec6",
    "memory-kernel-table": "31fab8f17905ff79a5a130e92ae07723",
    "effective-bloch": "17a6e24311249a1b27554111ee675495",
}


def jittered_table(path: Path, seed: int = 3) -> Path:
    """REF's Lorentzian on 241 nodes, uniform to |omega| = 10 then geometric
    to 3e4, every interior node moved by up to a quarter of its spacing."""
    half = np.concatenate([np.linspace(0.0, 10.0, 81),
                           np.geomspace(10.0, 3e4, 41)[1:]])
    omega = np.concatenate([-half[:0:-1], half])
    gaps = np.diff(omega)
    jitter = np.random.default_rng(seed).uniform(-0.25, 0.25, len(omega) - 2)
    omega[1:-1] += jitter * np.minimum(gaps[:-1], gaps[1:])
    values = spectral_density(LorentzianSpectrum(peak=2.2, fwhm=5.0), omega)
    np.savetxt(path, np.column_stack([omega, values]), fmt="%.17g")
    return path


def csv_md5(out_dir: Path, case: str) -> str:
    args = [*BASE, *CASES[case], "--out", str(out_dir), "--set", "out=x.csv"]
    if case == "memory-kernel-table":
        table = jittered_table(out_dir / "table.txt")
        args += ["--set", f"spectrum_path={table}"]
    assert main(args) == 0
    return hashlib.md5((out_dir / "x.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_csv_md5(tmp_path, case):
    assert csv_md5(tmp_path, case) == CSV_MD5[case]


def test_lorentzian_memory_kernel_is_bit_identical():
    want = np.load(PINNED)["memory_kernel_n"]
    got = integrate_memory_kernel(None, REF, 1.0, 1e-4).n
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


if __name__ == "__main__":
    import tempfile

    PINNED.parent.mkdir(exist_ok=True)
    np.savez_compressed(PINNED, memory_kernel_n=integrate_memory_kernel(
        None, REF, 1.0, 1e-4).n)
    print(f"wrote {PINNED} ({PINNED.stat().st_size} bytes)")
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = csv_md5(Path(tmp), case)
    print("CSV_MD5 =", digests)
