import math
import tracemalloc

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
    chunks = []
    for z in fs._normals(21, lo, hi, n_steps):
        # one row per step, each read contiguously by the step kernel
        assert all(row.flags.c_contiguous for row in z)
        chunks.append(z.copy())     # a chunk is valid until the next is drawn
    assert np.array_equal(np.concatenate(chunks).T, want)


def test_block_noise_chunk_tail(monkeypatch):
    monkeypatch.setattr(fs, "NOISE_TILE", 300)      # a short last tile in every chunk
    # an odd chunk takes 66 uniforms, so every other chunk resumes its streams
    # two words into a 4-word Philox block; the last case takes the largest
    # seed and indices
    for chunk, seed, lo, hi in [(64, 8, 0, 5), (33, 8, 0, 5),
                                (33, 2**64 - 1, 2**64 - 5, 2**64)]:
        monkeypatch.setattr(fs, "NOISE_CHUNK", chunk)
        chunks = [z.copy() for z in fs._normals(seed, lo, hi, 150)]
        assert [c.shape for c in chunks] == [(min(chunk, 150 - c), 5)
                                             for c in range(0, 150, chunk)]
        want = np.array([stream_normals(seed, i, 150) for i in range(lo, hi)])
        assert np.array_equal(np.concatenate(chunks).T, want)


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
    # stepping kernel directly with zero noise. From the ground state the
    # rotating-frame coherence is u(t) = (i/2) sin(omega0 t) while
    # n(t) = -cos(omega0 t); the step never reads the phase itself.
    omega0, dt, n_steps = 2.0, 1e-3, 3000
    n = np.array([-1.0])
    u = np.array([0j])
    phi = np.array([0.7])
    z = np.zeros(1)
    ws = fs._StepWorkspace(1, 0.0, 0.0, 0.0, omega0, dt)
    radius = []
    for k in range(n_steps):
        _midpoint_step(n, u, phi, z, ws)
        radius.append(n[0] ** 2 + 4.0 * abs(u[0]) ** 2)
    t_end = n_steps * dt
    assert phi[0] == 0.7
    assert abs(n[0] - (-math.cos(omega0 * t_end))) <= 1e-4
    assert abs(u[0] - 0.5j * math.sin(omega0 * t_end)) <= 1e-4
    # implicit midpoint preserves the Bloch-sphere radius to the solver tol
    assert max(abs(r - 1.0) for r in radius) <= 1e-11


def lab_frame_step(n, sigma, phi, z, a, gamma_perp, delta, omega0, dt):
    """Reference: the closed-form midpoint step of the lab-frame sigma.

    The step evaluates e^{i phi_mid} of the whole phase; the package steps
    u = sigma*e^{i phi} instead, which is the same map with another rounding.
    """
    dphi = math.sqrt(delta * dt) * z
    e_mid = np.exp(1j * (phi + 0.5 * dphi))
    k = 2.0 + dt * gamma_perp
    w = omega0 * dt
    n_m = ((2.0 * n - dt * a + (4.0 * w / k) * (sigma * e_mid).imag)
           / (2.0 + dt * a + w * w / k))
    s_m = (2.0 * sigma - (0.5j * w) * np.conj(e_mid) * n_m) / k
    return 2.0 * n_m - n, 2.0 * s_m - sigma, phi + dphi


def cexp_step(n, u, phi, z, a, gamma_perp, delta, omega0, dt):
    """Reference: the rotating-frame step as plain expressions.

    One complex exp of dphi/2 and fresh arrays for every intermediate; the
    package evaluates the same expressions in place, with cos and sin in
    place of the exp, and must agree bit for bit.
    """
    dphi = math.sqrt(delta * dt) * z
    r = np.exp(0.5j * dphi)
    ur = u * r
    k = 2.0 + dt * gamma_perp
    w = omega0 * dt
    n_m = ((2.0 * n - dt * a + (4.0 * w / k) * ur.imag)
           / (2.0 + dt * a + w * w / k))
    v = (2.0 * ur - (0.5j * w) * n_m) / k
    return 2.0 * n_m - n, (2.0 * v - ur) * r, phi + dphi


def assert_bits_equal(got, want, what):
    assert np.array_equal(got, want), what
    parts = (np.real, np.imag) if np.iscomplexobj(want) else (np.real,)
    for part in parts:
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(want))), \
            f"{what}: the sign of a zero differs"


@pytest.mark.parametrize("width", [1, 3, 7])
@pytest.mark.parametrize("p, n0, sigma0, phi0", [
    (SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0), gamma_dc=0.25),
     0.2, 0.1 - 0.3j, 1.3),
    # coherent and undriven: every increment is a signed zero and u stays
    # zero, so what is compared is mostly the signs of zeros
    (SystemParams(a=1.0, delta=0.0, omega0=0.0), 0.5, 0j, 2.0),
])
def test_step_matches_cexp_oracle(monkeypatch, width, p, n0, sigma0, phi0):
    # 150 steps in chunks of 64 (two full chunks and a tail) and tiles of 3
    # trajectories, so width 7 crosses two tile boundaries
    monkeypatch.setattr(fs, "NOISE_CHUNK", 64)
    monkeypatch.setattr(fs, "NOISE_TILE", 400)
    seed, dt, n_steps = 9, 1e-3, 150
    z = np.array([stream_normals(seed, i, n_steps) for i in range(width)])
    n = np.full(width, n0)
    u = np.full(width, complex(sigma0) * np.exp(1j * phi0))
    phi = np.full(width, phi0)
    want = {"n": [n], "u": [u], "phi": [phi]}
    for j in range(n_steps):
        n, u, phi = cexp_step(n, u, phi, z[:, j], p.a, p.gamma_perp, p.delta,
                              p.omega0, dt)
        want["n"].append(n)
        want["u"].append(u)
        want["phi"].append(phi)
    (got,) = fs._run_blocks(p, seed, 0, width, n_steps, dt, n0, sigma0, phi0,
                            snap_steps=range(n_steps + 1))
    for key, rows in want.items():
        assert_bits_equal(got[f"snap_{key}"], np.array(rows).T, key)


def test_cexp_is_cos_and_sin():
    # the assumption behind the step's phase factor: for every finite h,
    # libm's exp(0 + ih) is (cos h, sin(h + 0.0)) bit for bit, evaluated as
    # the step evaluates it, into the real and imaginary parts of one array
    tiny = np.finfo(float).smallest_subnormal
    edge = np.array([0.0, -0.0, tiny, -tiny, 1e3 * tiny, -7e-310,
                     np.finfo(float).tiny, 1e-300, 1e-8, math.pi, 1e22,
                     1e100, 1e300, -1e300, np.finfo(float).max])
    rng = np.random.default_rng(5)
    h = np.concatenate([edge, rng.standard_normal(200_000) * 4.0,
                        rng.uniform(-1.0, 1.0, 50_000)
                        * 10.0 ** rng.uniform(-300.0, 300.0, 50_000)])
    half = h + 0.0
    r = np.empty(len(h), dtype=complex)
    np.cos(half, out=r.real)
    np.sin(half, out=r.imag)
    want = np.exp(1j * h)
    same = want.view(np.uint64) == r.view(np.uint64)
    assert same.all(), ("libm's cexp(0 + ih) is not (cos h, sin h) bit for bit "
                        f"at h = {h[~same.reshape(-1, 2).all(axis=1)][:5]}; "
                        "the step's phase factor no longer equals the complex exp")
    # the + 0.0 is what keeps a -0 increment's sine at +0, as the exp has it,
    # and the step's phase factor (left in its workspace) is that exp; with
    # sqrt(delta*dt) = 1 the increment is z itself
    assert np.signbit(np.sin(-0.0)) and not np.signbit(np.exp(1j * h[1:2]).imag[0])
    z = edge[:-1]
    ws = fs._StepWorkspace(len(z), 1.0, 0.5, 4.0, 0.0, 0.25)
    n, u, phi = np.zeros(len(z)), np.zeros(len(z), dtype=complex), np.zeros(len(z))
    _midpoint_step(n, u, phi, z, ws)
    assert_bits_equal(ws.r, np.exp(0.5j * z), "the step's phase factor")


@pytest.mark.parametrize("width", [1, 3])
def test_rotating_frame_matches_lab_frame_oracle(width):
    # the same normals through the lab-frame step, over two noise chunks,
    # from a complex sigma0 at a nonzero phase
    seed, dt, n_steps = 9, 1e-3, 1200
    p = SystemParams(a=1.0, delta=5.0, omega0=math.sqrt(11.0), gamma_dc=0.25)
    n0, sigma0, phi0 = 0.2, 0.1 - 0.3j, 1.3
    n = np.full(width, n0)
    sigma = np.full(width, sigma0)
    phi = np.full(width, phi0)
    hist = {"n": [n], "sigma": [sigma], "phi": [phi]}
    for z in fs._normals(seed, 0, width, n_steps):
        for z_step in z:
            n, sigma, phi = lab_frame_step(n, sigma, phi, z_step, p.a,
                                           p.gamma_perp, p.delta, p.omega0, dt)
            hist["n"].append(n)
            hist["sigma"].append(sigma)
            hist["phi"].append(phi)
    want = {key: np.array(rows) for key, rows in hist.items()}   # (steps+1, width)

    t_end = n_steps * dt
    tr = run_ensemble(p, width, t_end, dt, seed, n0=n0, sigma0=sigma0,
                      phi0=phi0, with_coherence=True)
    coherence = (want["sigma"] * np.exp(1j * want["phi"])).mean(axis=1)
    assert np.max(np.abs(tr.n_mean - want["n"].mean(axis=1))) <= 1e-13
    assert np.max(np.abs(tr.coherence_mean - coherence)) <= 1e-13
    for i in range(width):
        solo = run_trajectory(p, t_end, dt, seed, i, n0=n0, sigma0=sigma0,
                              phi0=phi0)
        assert np.array_equal(solo.phi, want["phi"][:, i])
        assert np.max(np.abs(solo.n - want["n"][:, i])) <= 1e-13
        assert np.max(np.abs(solo.sigma - want["sigma"][:, i])) <= 1e-13


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


@pytest.mark.parametrize("state", [
    dict(n0=2.0), dict(n0=-1.5), dict(n0=math.nan), dict(sigma0=math.nan),
    dict(sigma0=0.6j), dict(sigma0=complex(0.1, math.inf)),
    dict(phi0=math.inf), dict(phi0=math.nan),
])
def test_initial_state_refused_before_any_step(monkeypatch, state):
    # each of these used to run every step and then raise IntegratorError
    # ("reduce dt"); now no block runs
    def ran(*args, **kwargs):
        raise AssertionError("a block ran before the initial state was checked")

    monkeypatch.setattr(fs, "_run_block", ran)
    with pytest.raises(ValueError, match="initial state"):
        run_ensemble(REF, 4, 0.01, 1e-3, seed=0, **state)
    with pytest.raises(ValueError, match="initial state"):
        run_trajectory(REF, 0.01, 1e-3, seed=0, **state)


def test_initial_state_bounds_are_inclusive():
    for state in (dict(n0=1.0), dict(n0=0.0, sigma0=0.5j), dict(n0=-1.0, phi0=-3.0)):
        tr = run_trajectory(REF, 0.01, 1e-3, seed=0, **state)
        assert np.all(np.isfinite(tr.n))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_increments_refused(monkeypatch, bad):
    monkeypatch.setattr(fs, "_run_block", None)       # no block may run
    z = np.zeros(10)
    z[3] = bad
    with pytest.raises(ValueError, match="increments"):
        run_trajectory(REF, 0.01, 1e-3, seed=0, increments=z)


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


def test_step_loop_takes_no_exp_and_one_workspace_per_block(monkeypatch):
    # the only exp is the initial state's, once per block; the steps take
    # cos and sin into a workspace allocated once per block, and the
    # coherence channel reads u and evaluates no transcendental
    calls, widths = [], []
    exp, workspace = np.exp, fs._StepWorkspace

    def counting_exp(x, *args, **kwargs):
        calls.append(np.size(x))
        return exp(x, *args, **kwargs)

    def counting_workspace(width, *rates):
        widths.append(width)
        return workspace(width, *rates)

    monkeypatch.setattr(np, "exp", counting_exp)
    monkeypatch.setattr(fs, "_StepWorkspace", counting_workspace)
    monkeypatch.setattr(fs, "BLOCK_TRAJ", 4)
    run_ensemble(REF, n_traj=10, t_end=0.05, dt=1e-3, seed=2, with_coherence=True)
    assert calls == [1, 1, 1]
    assert widths == [4, 4, 2]
    # and a step allocates no array of the block's width (numpy's casting
    # buffers are bounded by its buffer size, 8192 elements, at any width)
    width = 1 << 16
    ws = workspace(width, REF.a, REF.gamma_perp, REF.delta, REF.omega0, 1e-3)
    n, u, phi, z = np.full(width, -1.0), np.zeros(width, complex), np.zeros(width), np.ones(width)
    tracemalloc.start()
    try:
        for _ in range(3):
            fs._midpoint_step(n, u, phi, z, ws)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * width


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


@pytest.mark.parametrize("threads", [1, 3])
def test_prefix_traces_match_separate_runs(monkeypatch, threads):
    # 20 trajectories in blocks of 8: the sizes fall inside the first block,
    # on its edge, inside the second block and inside the third, and 200
    # steps end on a partly filled buffer
    monkeypatch.setattr(fs, "BLOCK_TRAJ", 8)
    kw = dict(t_end=0.2, dt=1e-3, seed=19, with_coherence=True, threads=threads)
    sizes = (1, 5, 8, 13, 17)
    full = run_ensemble(REF, 20, **kw, prefixes=sizes)
    assert [tr.n_traj for tr in full.prefix_traces] == list(sizes)
    for size, got in zip(sizes, full.prefix_traces):
        want = run_ensemble(REF, size, **kw)
        for field in ("n_mean", "n_var", "n_stderr", "coherence_mean"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), \
                (size, field)
    alone = run_ensemble(REF, 20, **kw)
    assert alone.prefix_traces is None
    assert np.array_equal(full.n_var, alone.n_var)
    assert np.array_equal(full.coherence_mean, alone.coherence_mean)
    for bad in (0, 20, 21, -1, 2.5):
        with pytest.raises(ValueError, match="prefix"):
            run_ensemble(REF, 20, **kw, prefixes=(bad,))


@pytest.mark.parametrize("rows", [1, 7])
def test_buffer_rows_do_not_change_statistics(monkeypatch, rows):
    # moments are reduced row by row, so how many steps the buffer holds
    # between reductions cannot change a bit
    kw = dict(n_traj=12, t_end=0.15, dt=1e-3, seed=6, with_coherence=True,
              prefixes=(5,))
    want = run_ensemble(REF, **kw)
    monkeypatch.setattr(fs, "_buffer_rows", lambda width: rows)
    got = run_ensemble(REF, **kw)
    for a, b in [(got, want), (got.prefix_traces[0], want.prefix_traces[0])]:
        assert np.array_equal(a.n_mean, b.n_mean)
        assert np.array_equal(a.n_var, b.n_var)
        assert np.array_equal(a.coherence_mean, b.coherence_mean)
    # a block's buffers (n and u) stay within 1.5 MB at any width
    assert max(fs._buffer_rows(w) * w for w in range(1, fs.BLOCK_TRAJ + 1)) <= 1 << 16


def test_ensemble_input_validation():
    with pytest.raises(ValueError):
        run_ensemble(REF, n_traj=0, t_end=1.0, dt=1e-3, seed=0)
    # n_traj is checked before any run, in every entry point that takes one
    for bad in (0, 2.5):
        with pytest.raises(ValueError, match="n_traj"):
            run_ensemble(REF, n_traj=bad, t_end=0.01, dt=1e-3, seed=0)
        with pytest.raises(ValueError, match="n_traj"):
            decorrelation_residual(REF, bad, 0.01, np.array([0.005]), seed=0,
                                   dt=1e-3)
        with pytest.raises(ValueError, match="n_traj"):
            simulate_phases(1.0, bad, 0.1, 0.01, seed=0)
        with pytest.raises(ValueError, match="n_traj"):
            phase_autocorrelation(1.0, bad, np.array([0.5]), seed=0)
    # threads as the CLI validates it, in both entry points of the engine
    for bad in (0, -3, 2.5):
        with pytest.raises(ValueError, match="threads"):
            run_ensemble(REF, n_traj=4, t_end=0.01, dt=1e-3, seed=0, threads=bad)
        with pytest.raises(ValueError, match="threads"):
            decorrelation_residual(REF, 4, 0.01, np.array([0.005]), seed=0,
                                   dt=1e-3, threads=bad)
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
    for bad in [np.array([]), np.array([-1.0, 0.5]), np.array([0.5, 0.5]),
                np.array([0.5, np.inf]), np.array([0.5, np.nan])]:
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
