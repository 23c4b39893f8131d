"""Bitwise pin of the deterministic solvers and the trace CSV writer.

A change that claims to move no bit (a streamed or block-formatted CSV
writer, another loop shape for the direct history sum) must leave this file
passing:

- ``integrate_memory_kernel(None, REF, 1.0, 1e-4).n`` within 1e-12 of
  ``data/bitwise_kinetics.npz``, which holds the Lorentzian line solved one
  step at a time (the blocked solve of that line rounds differently by
  about 1e-14);
- the md5 of the ``simulate`` CSV for ``model=memory-kernel`` on the
  Lorentzian line (10 001 rows) and on a seed-jittered 241-node table of it,
  and for ``model=effective-bloch`` (6001 rows);
- the md5 of ``integrate_memory_kernel(None, DARK, 5.0, 1e-3, n0=n0).n``
  with no drive (no kernel, so no history sum) for n0 = -1 and 0;
- the md5 of ``integrate_memory_kernel(ref_table(), REF, 100.0, 1e-2, n0=n0).n``
  for n0 = -1 and 0.5, where the kernel's window (about 950 steps) is shorter
  than the run, so the direct history sum starts past n[0];
- the step a diverging solve names, for a kernel of the wrong sign.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_bitwise_kinetics.py``; then update
CSV_MD5, DARK_MD5 and WINDOW_MD5 from its printout.
"""

import hashlib
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from blochrate import (LorentzianSpectrum, StepSizeError, SystemParams,
                       autocorrelation_kernel, from_phase_diffusion,
                       integrate_memory_kernel, kinetics, spectral_density)
from blochrate.cli import main
from test_kinetics import ref_table

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
    "memory-kernel": "5171aeff8da5b4eae80e6bf94c650d39",
    "memory-kernel-table": "31fab8f17905ff79a5a130e92ae07723",
    "effective-bloch": "17a6e24311249a1b27554111ee675495",
}

DARK = SystemParams(a=1.0, delta=5.0, omega0=0.0)
DARK_MD5 = {
    -1.0: "c149148abe441c9d0f12fb31e6703aaf",
    0.0: "bccc37e9a593c986560a26d4162b4b20",
}
WINDOW_MD5 = {
    -1.0: "7b1cb6f43db8348d9a32dfed845636be",
    0.5: "3af33d11e45d5f5071a431df62ba4101",
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


def test_lorentzian_memory_kernel_holds_its_pin():
    want = np.load(PINNED)["memory_kernel_n"]
    got = integrate_memory_kernel(None, REF, 1.0, 1e-4).n
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("n0", sorted(DARK_MD5))
def test_undriven_memory_kernel_is_bit_identical(n0):
    n = integrate_memory_kernel(None, DARK, 5.0, 1e-3, n0=n0).n
    assert hashlib.md5(n.tobytes()).hexdigest() == DARK_MD5[n0]


def truncated_window_n(n0: float) -> np.ndarray:
    return integrate_memory_kernel(ref_table(), REF, 100.0, 1e-2, n0=n0).n


@pytest.mark.parametrize("n0", sorted(WINDOW_MD5))
def test_truncated_window_memory_kernel_is_bit_identical(n0):
    assert hashlib.md5(truncated_window_n(n0).tobytes()).hexdigest() == WINDOW_MD5[n0]


def test_divergence_names_its_step(monkeypatch):
    # the -1e6 kernel of test_kinetics' divergence test through the direct sum
    # (an anonymous spectrum); that test holds the Lorentzian path to the same step
    line = from_phase_diffusion(REF.omega0, REF.delta)
    monkeypatch.setattr(kinetics, "autocorrelation_kernel",
                        lambda _, tau: -1e6 * autocorrelation_kernel(line, tau))
    with pytest.raises(StepSizeError) as diverged, \
            np.errstate(over="ignore", invalid="ignore"):
        integrate_memory_kernel(SimpleNamespace(), REF, 1.0, 1e-3)
    assert str(diverged.value) == "memory-kernel: diverged at step 209"


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
    print("DARK_MD5 =", {n0: hashlib.md5(integrate_memory_kernel(
        None, DARK, 5.0, 1e-3, n0=n0).n.tobytes()).hexdigest() for n0 in sorted(DARK_MD5)})
    print("WINDOW_MD5 =", {n0: hashlib.md5(truncated_window_n(n0).tobytes()).hexdigest()
                           for n0 in sorted(WINDOW_MD5)})
