"""Golden regression test for the stochastic engine in ``fieldsim``.

``tests/data/golden_fieldsim.npz`` holds the outputs of the calls in
``golden_outputs`` as computed by the fixed-point implicit-midpoint engine
that preceded the closed-form step, with libm cos and sin in Box-Muller and
in every phase factor. Everything that passes through the step kernel must
match to GOLDEN_TOL. Phase-only outputs (every ``phi``, the bare field
correlation and the phase helpers) never touch the step kernel and must
match to PHASE_TOL: they once matched bit for bit, but the normals' cosine
and the phase helpers' cos and sin now come from the half-angle tan
(``spectrum._phasor``), within 4e-16 of libm's, so a normal moves by a few
ulps and a phase path, which sums hundreds of them, by about 1e-15 (the
largest at the change was 1.1e-15, traj_stream.phi). PHASE_TOL = 1e-14
leaves ten times that and still fails anything but rounding: a wrong
normal, a lost step or a misplaced factor of two moves a phase by 1e-3 or
more. The file is kept as it was, as the proof that only rounding moved.

Several calls shrink BLOCK_TRAJ and NOISE_CHUNK so that a few trajectories
span several blocks and noise chunks. Streams are counter based, so single
trajectories do not depend on either constant; ensemble reductions do depend
on BLOCK_TRAJ (it fixes the merge order), so the sizes are part of each call.

Regenerate (only after a deliberate change of the numbers) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import blochrate.fieldsim as fs
from blochrate import (SystemParams, decorrelation_residual,
                       phase_autocorrelation, run_ensemble, run_trajectory,
                       simulate_phases)

GOLDEN = Path(__file__).parent / "data" / "golden_fieldsim.npz"
GOLDEN_TOL = 1e-12
PHASE_TOL = 1e-14

REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))
RINGING = SystemParams(a=1.0, delta=1.0, omega0=6.0)       # fig2b


@contextmanager
def _small_blocks(block_traj, noise_chunk):
    saved = fs.BLOCK_TRAJ, fs.NOISE_CHUNK
    fs.BLOCK_TRAJ, fs.NOISE_CHUNK = block_traj, noise_chunk
    try:
        yield
    finally:
        fs.BLOCK_TRAJ, fs.NOISE_CHUNK = saved


def golden_outputs() -> dict:
    """Every golden array, keyed ``<call>.<field>``."""
    out = {}

    tr = run_ensemble(REF, 8, 0.3, 1e-3, seed=31)
    out.update({"ens_one.n_mean": tr.n_mean, "ens_one.n_var": tr.n_var,
                "ens_one.n_stderr": tr.n_stderr,
                "ens_one.coherence": tr.coherence_mean,
                "ens_one.final_n": tr.final_n})

    with _small_blocks(16, 64):
        tr = run_ensemble(RINGING, 40, 0.2, 1e-3, seed=17, threads=2)
    out.update({"ens_blocks.n_mean": tr.n_mean, "ens_blocks.n_var": tr.n_var,
                "ens_blocks.n_stderr": tr.n_stderr,
                "ens_blocks.coherence": tr.coherence_mean,
                "ens_blocks.final_n": tr.final_n})

    trj = run_trajectory(REF, 0.3, 1e-3, seed=31, index=5, sigma0=0.1 + 0.2j)
    out.update({"traj_stream.n": trj.n, "traj_stream.sigma": trj.sigma,
                "traj_stream.phi": trj.phi})

    # stream (777, 0) drawn from a fresh Philox, outside the package's cursor
    key = np.array([777, 0], dtype=np.uint64)
    z = fs._box_muller(np.random.Generator(np.random.Philox(key=key)).random(400))
    with _small_blocks(16, 64):
        trj = run_trajectory(RINGING, 0.2, 1e-3, seed=0, increments=z)
    out.update({"traj_incr.n": trj.n, "traj_incr.sigma": trj.sigma,
                "traj_incr.phi": trj.phi})

    with _small_blocks(16, 64):
        res = decorrelation_residual(REF, 40, 0.5, np.array([0.0, 0.25, 0.5]),
                                     seed=5, dt=1e-2, threads=2)
    out.update({f"decorr.{name}": getattr(res, name)
                for name in ("k_mean", "k_stderr", "c_mean", "c_stderr",
                             "n_mean", "n_stderr", "residual",
                             "residual_stderr")})

    with _small_blocks(2, 64):
        _, phi = simulate_phases(2.0, 5, 2.0, 1e-2, seed=13)
    out["phases.phi"] = phi

    with _small_blocks(16, 64):
        est = phase_autocorrelation(2.0, 40, np.linspace(0.0, 5.0, 150),
                                    seed=42)
    out.update({"autocorr.mean": est.mean, "autocorr.stderr_re": est.stderr_re,
                "autocorr.stderr_im": est.stderr_im})
    return out


# outputs that never pass through the step kernel: compared to PHASE_TOL
PHASE = {"traj_stream.phi", "traj_incr.phi", "decorr.c_mean", "decorr.c_stderr",
         "phases.phi", "autocorr.mean", "autocorr.stderr_re",
         "autocorr.stderr_im"}


def test_golden_fieldsim():
    want = np.load(GOLDEN)
    got = golden_outputs()
    assert set(got) == set(want.files)
    dev = {}
    for key, value in got.items():
        ref = want[key]
        assert value.shape == ref.shape, key
        if key in PHASE:
            assert np.max(np.abs(value - ref)) <= PHASE_TOL, key
        else:
            dev[key] = float(np.max(np.abs(value - ref)))
    worst = max(dev, key=lambda key: (math.isnan(dev[key]), dev[key]))  # NaN ranks worst
    report = (f"worst step-kernel deviation from golden: {dev[worst]:.3e} "
              f"({worst}; tolerance {GOLDEN_TOL:g})")
    print(report)
    assert dev[worst] <= GOLDEN_TOL, report


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **golden_outputs())
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
