import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blochrate.fieldsim as fs
from blochrate import (
    IntegratorError,
    SystemParams,
    decorrelation_residual,
    phase_autocorrelation,
    run_ensemble,
    run_trajectory,
    simulate_phases,
)
from blochrate.fieldsim import RngStream, _midpoint_step

REF = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0))


def stream_normals(seed, index, count):
    """The first ``count`` normals of stream (seed, index), from a fresh Philox."""
    key = np.array([seed, index], dtype=np.uint64)
    return fs._box_muller(
        np.random.Generator(np.random.Philox(key=key)).random(2 * count))


# ----------------------------------------------------------------------
# random streams

def test_stream_reproducible_and_split_by_index():
    a = RngStream(12345, 7).normals(64)
    b = RngStream(12345, 7).normals(64)
    c = RngStream(12345, 8).normals(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_chunking_does_not_change_draws():
    whole = RngStream(5, 1).normals(10)
    s = RngStream(5, 1)
    parts = np.concatenate([s.normals(4), s.normals(6)])
    assert np.array_equal(whole, parts)


def test_box_muller_frozen_values():
    # cosine branch on (1 - u[2j], u[2j+1]): sqrt(-2 ln 0.5) cos(2 pi 0.25) ~ 0,
    # ln 1 = 0, and sqrt(-2 ln 0.5) cos(0) = sqrt(2 ln 2)
    z = fs._box_muller(np.array([0.5, 0.25, 0.0, 0.125, 0.5, 0.0]))
    assert abs(z[0]) < 1e-15
    assert z[1] == 0.0
    assert math.isclose(z[2], 1.1774100225154747, rel_tol=0, abs_tol=1e-15)


def test_stream_seed_range():
    assert np.array_equal(RngStream(2**64 - 1, 0).normals(4),
                          RngStream(2**64 - 1, 0).normals(4))
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            RngStream(bad, 0)
        with pytest.raises(ValueError):
            run_ensemble(REF, n_traj=2, t_end=0.01, dt=1e-3, seed=bad)
    # the trajectory index is the other half of the key and has the same range
    last = run_trajectory(REF, 0.01, 1e-3, seed=3, index=2**64 - 1)
    assert np.array_equal(last.phi, run_trajectory(REF, 0.01, 1e-3, seed=3,
                                                   index=2**64 - 1).phi)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match="index"):
            RngStream(0, bad)
        with pytest.raises(ValueError, match="index"):
            run_trajectory(REF, 0.01, 1e-3, seed=3, index=bad)


@pytest.mark.parametrize("seed, index", [(21, 0), (21, 7), (2**64 - 1, 2**64 - 1)])
def test_seek_matches_a_fresh_philox(seed, index):
    # the one definition of "stream (seed, i) at position p", checked against
    # a generator built from the key and advanced by drawing
    fresh = np.random.Generator(
        np.random.Philox(key=np.array([seed, index], dtype=np.uint64))).random(40)
    cursor = fs._PhiloxCursor(seed)
    for position in range(9):
        got = cursor.seek(index, position).random(40 - position)
        assert np.array_equal(got, fresh[position:]), position


def test_stream_moments():
    z = RngStream(2024, 0).normals(1_000_000)
    assert abs(z.mean()) < 4e-3
    assert abs(z.var(ddof=1) - 1.0) < 1e-2


@pytest.mark.parametrize("lo, hi, n_steps", [
    (3, 4, 2500),        # width 1, several chunks
    (0, 7, 1500),        # width 7, a full chunk and a tail
    (10, 1010, 40),      # many short streams over several tiles
])
def test_block_noise_matches_streams(lo, hi, n_steps):
    want = np.array([stream_normals(21, i, n_steps) for i in range(lo, hi)])
    got = np.concatenate(list(fs._normals(21, lo, hi, n_steps)), axis=1)
    assert np.array_equal(got, want)


def test_block_noise_chunk_tail(monkeypatch):
    monkeypatch.setattr(fs, "NOISE_TILE", 300)      # a short last tile in every chunk
    # an odd chunk takes 66 uniforms, so every other chunk resumes its streams
    # two words into a 4-word Philox block; the last case takes the largest
    # seed and indices
    for chunk, seed, lo, hi in [(64, 8, 0, 5), (33, 8, 0, 5),
                                (33, 2**64 - 1, 2**64 - 5, 2**64)]:
        monkeypatch.setattr(fs, "NOISE_CHUNK", chunk)
        chunks = list(fs._normals(seed, lo, hi, 150))
        assert [c.shape for c in chunks] == [(5, min(chunk, 150 - c))
                                             for c in range(0, 150, chunk)]
        want = np.array([stream_normals(seed, i, 150) for i in range(lo, hi)])
        assert np.array_equal(np.concatenate(chunks, axis=1), want)


@pytest.mark.parametrize("width, n_steps", [(1000, 40), (50, 2500)])
def test_block_noise_builds_one_generator(monkeypatch, width, n_steps):
    # streams are re-pointed, not rebuilt: no generator (and no OS entropy)
    # per trajectory, in one chunk or in several
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for _ in fs._normals(21, 0, width, n_steps):
        pass
    assert len(built) <= 1


# ----------------------------------------------------------------------
# single-trajectory integration

def test_zero_drive_trajectory_is_exact_decay():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    tr = run_trajectory(p, 5.0, 1e-3, seed=3, n0=0.0, sigma0=0.3)
    assert np.max(np.abs(tr.n - (-1.0 + np.exp(-tr.t)))) <= 1e-6
    assert np.max(np.abs(np.abs(tr.sigma) - 0.3 * np.exp(-0.5 * tr.t))) <= 1e-6


def test_noiseless_resonant_step_is_rabi_flopping():
    # undamped, monochromatic: outside SystemParams validation, so drive the
    # stepping kernel directly with zero noise
    omega0, dt, n_steps = 2.0, 1e-3, 3000
    n = np.array([-1.0])
    sigma = np.array([0j])
    phi = np.array([0.0])
    z = np.zeros(1)
    radius = []
    for k in range(n_steps):
        n, sigma, phi = _midpoint_step(n, sigma, phi, z, 0.0, 0.0, 0.0,
                                       omega0, dt)
        radius.append(n[0] ** 2 + 4.0 * abs(sigma[0]) ** 2)
    t_end = n_steps * dt
    assert abs(n[0] - (-math.cos(omega0 * t_end))) <= 1e-4
    # implicit midpoint preserves the Bloch-sphere radius to the solver tol
    assert max(abs(r - 1.0) for r in radius) <= 1e-11


@given(delta=st.floats(min_value=0.5, max_value=20.0),
       omega0=st.floats(min_value=0.0, max_value=4.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_trajectory_stays_near_bloch_sphere(delta, omega0, seed):
    p = SystemParams(a=1.0, delta=delta, omega0=omega0)
    dt = 1e-3
    tr = run_trajectory(p, 1.0, dt, seed=seed)
    assert np.max(np.abs(tr.n)) <= 1.0 + 10.0 * dt
    assert np.max(np.abs(tr.sigma)) <= 0.5 + 10.0 * dt


def test_strong_convergence_under_noise_refinement():
    # the same Wiener path sampled at dt, dt/2, dt/4: halving dt should
    # roughly halve the pathwise error (phase is exact, midpoint is the
    # deterministic part), so successive differences shrink about 2x
    z_fine = stream_normals(777, 0, 2000)             # dt = 5e-4
    z_mid = (z_fine[0::2] + z_fine[1::2]) / math.sqrt(2.0)
    z_coarse = (z_mid[0::2] + z_mid[1::2]) / math.sqrt(2.0)
    n_f = run_trajectory(REF, 1.0, 5e-4, seed=0, increments=z_fine).n
    n_m = run_trajectory(REF, 1.0, 1e-3, seed=0, increments=z_mid).n
    n_c = run_trajectory(REF, 1.0, 2e-3, seed=0, increments=z_coarse).n
    d1 = np.max(np.abs(n_c - n_m[::2]))
    d2 = np.max(np.abs(n_m - n_f[::2]))
    assert d1 < 2e-2
    assert 1.3 <= d1 / d2 <= 3.0


def test_increments_shape_checked():
    with pytest.raises(ValueError):
        run_trajectory(REF, 1.0, 1e-3, seed=0, increments=np.zeros(999))
    with pytest.raises(ValueError):
        run_trajectory(REF, 1e-3, 0.0, seed=0)


def test_integrator_error_on_coarse_step():
    p = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    with pytest.raises(IntegratorError):
        run_trajectory(p, 1.0, 0.5, seed=0)


def test_step_guard_bound():
    # dt*omega0 = 0.06 is refused before any step; 0.05 is the largest legal
    p = SystemParams(a=1.0, delta=1.0, omega0=6.0)
    with pytest.raises(IntegratorError, match="0.05"):
        run_ensemble(p, n_traj=4, t_end=1.0, dt=0.01, seed=0)
    with pytest.raises(IntegratorError):
        decorrelation_residual(p, 4, 1.0, np.array([0.5]), seed=0, dt=0.01)
    dt = 0.05 / 6.0
    tr = run_trajectory(p, 60 * dt, dt, seed=0)
    assert np.max(np.abs(tr.n)) <= 1.0


# ----------------------------------------------------------------------
# ensembles

def test_ensemble_deterministic_and_matches_single_runs():
    kw = dict(n_traj=8, t_end=0.3, dt=1e-3, seed=31)
    tr1 = run_ensemble(REF, **kw, keep_final=True)
    tr2 = run_ensemble(REF, **kw, keep_final=True)
    assert np.array_equal(tr1.n_mean, tr2.n_mean)
    assert np.array_equal(tr1.n_var, tr2.n_var)
    solo = run_trajectory(REF, 0.3, 1e-3, seed=31, index=5)
    assert tr1.final_n[5] == solo.n[-1]
    assert run_ensemble(REF, n_traj=8, t_end=0.3, dt=1e-3, seed=32).n_mean[5] \
        != tr1.n_mean[5]


def test_ensemble_zero_drive_has_zero_spread():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    tr = run_ensemble(p, n_traj=32, t_end=2.0, dt=1e-3, seed=4, n0=0.0)
    assert np.all(tr.n_stderr == 0.0)
    assert np.max(np.abs(tr.n_mean - (-1.0 + np.exp(-tr.t)))) <= 1e-6


def test_ensemble_stderr_definition():
    tr = run_ensemble(REF, n_traj=64, t_end=0.5, dt=1e-3, seed=8,
                      keep_final=True)
    var = np.var(tr.final_n, ddof=1)
    assert math.isclose(tr.n_var[-1], var, rel_tol=1e-12)
    assert math.isclose(tr.n_stderr[-1], math.sqrt(var / 64), rel_tol=1e-12)


def test_ensemble_coherence_channel():
    tr = run_ensemble(REF, n_traj=16, t_end=0.2, dt=1e-3, seed=2,
                      sigma0=0.3, with_coherence=True)
    assert tr.coherence_mean.shape == tr.t.shape
    assert tr.coherence_mean.dtype.kind == "c"
    assert tr.coherence_mean[0] == 0.3 + 0j


def test_ensemble_thread_count_invariance(monkeypatch):
    # shrink the block size so 40 trajectories span several blocks
    import blochrate.fieldsim as fs
    monkeypatch.setattr(fs, "BLOCK_TRAJ", 16)
    kw = dict(n_traj=40, t_end=0.2, dt=1e-3, seed=17)
    t1 = run_ensemble(REF, **kw, with_coherence=True)
    t3 = run_ensemble(REF, **kw, with_coherence=True, threads=3)
    assert np.array_equal(t1.n_mean, t3.n_mean)
    assert np.array_equal(t1.n_var, t3.n_var)
    assert np.array_equal(t1.coherence_mean, t3.coherence_mean)


def test_ensemble_input_validation():
    with pytest.raises(ValueError):
        run_ensemble(REF, n_traj=0, t_end=1.0, dt=1e-3, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(REF, n_traj=4, t_end=1.0, dt=0.3, seed=0)
    with pytest.raises(ValueError):
        run_ensemble(REF, n_traj=4, t_end=math.inf, dt=1e-3, seed=0)


# ----------------------------------------------------------------------
# phase statistics

def test_simulate_phases_variance_grows_linearly():
    t, phi = simulate_phases(2.0, 4096, 1.0, 1e-2, seed=13)
    assert phi.shape == (4096, 101)
    assert np.all(phi[:, 0] == 0.0)
    assert abs(np.var(phi[:, -1], ddof=1) / 2.0 - 1.0) <= 0.07
    _, phi2 = simulate_phases(2.0, 4096, 1.0, 1e-2, seed=13)
    assert np.array_equal(phi, phi2)


def test_phase_autocorrelation_matches_lorentzian_decay():
    tau = np.array([0.0, 0.5, 1.0])
    est = phase_autocorrelation(2.0, 2000, tau, seed=42)
    assert est.mean[0] == 1.0 + 0j
    assert est.stderr_re[0] == 0.0
    want = np.exp(-tau)                     # exp(-delta*tau/2)
    dev = np.abs(est.mean.real[1:] - want[1:])
    assert np.all(dev <= 3.0 * est.stderr_re[1:])


def test_phase_autocorrelation_zero_diffusion():
    est = phase_autocorrelation(0.0, 50, np.array([0.5, 1.0]), seed=1)
    assert np.all(est.mean == 1.0 + 0j)


def test_phase_autocorrelation_grid_validation():
    for bad in [np.array([]), np.array([-1.0, 0.5]), np.array([0.5, 0.5])]:
        with pytest.raises(ValueError):
            phase_autocorrelation(1.0, 10, bad, seed=0)
    for delta, n_traj in [(-1.0, 10), (1.0, 0)]:
        with pytest.raises(ValueError):
            phase_autocorrelation(delta, n_traj, np.array([0.5]), seed=0)


def test_simulate_phases_input_validation():
    for delta, n_traj, dt in [(-1.0, 4, 0.1), (1.0, 0, 0.1), (1.0, 4, 0.0)]:
        with pytest.raises(ValueError):
            simulate_phases(delta, n_traj, 1.0, dt, seed=0)


# ----------------------------------------------------------------------
# decorrelation diagnostic

def test_decorrelation_zero_drive_is_identically_zero():
    p = SystemParams(a=1.0, delta=5.0, omega0=0.0)
    res = decorrelation_residual(p, 64, 1.0, np.array([0.25, 0.5, 1.0]),
                                 seed=3, dt=1e-2)
    assert np.all(res.k_mean == 0.0)
    assert np.all(res.c_mean == 0.0)
    assert np.all(res.residual == 0.0)
    assert res.holds_3sigma
    assert res.low_statistics


def test_decorrelation_exact_zero_at_equal_times():
    res = decorrelation_residual(REF, 128, 0.5, np.array([0.25, 0.5]),
                                 seed=5, dt=1e-2)
    assert res.residual[-1] == 0.0
    assert not res.low_statistics


def test_decorrelation_grid_validation():
    with pytest.raises(ValueError):
        decorrelation_residual(REF, 16, 0.4, np.array([0.25, 0.5]),
                               seed=0, dt=1e-2)
    with pytest.raises(ValueError):
        decorrelation_residual(REF, 16, 1.0, np.array([0.5, 0.25]),
                               seed=0, dt=1e-2)
    with pytest.raises(ValueError):
        decorrelation_residual(REF, 16, 1.0, np.array([0.5]), seed=0, dt=0.0)
