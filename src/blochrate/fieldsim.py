"""Stochastic trajectories of single atoms in phase-diffusing light.

The field seen by every atom is Omega(t) = Omega0 * exp(-i*phi(t)) with phi a
Wiener process of diffusion coefficient delta (the spectrum's FWHM). One
trajectory integrates

    dn/dt     = -a*(n+1) - i*Omega0*(sigma*e^{i phi} - conj(sigma)*e^{-i phi})
    dsigma/dt = -gamma_perp*sigma - (i/2)*Omega0*n*e^{-i phi}
    dphi      = sqrt(delta) dW

Noise enters only through phi, which is exactly integrable: each step draws
phi += sqrt(delta*dt)*z with z standard normal, and (n, sigma) advance with a
deterministic implicit-midpoint step evaluated at the mid-step phase
phi + dphi/2. At fixed phase the system is linear in (n, sigma), so the
implicit step has a closed form (a Cayley map, which keeps the undamped
Bloch radius n**2 + 4|sigma|**2 to rounding). With k = 2 + dt*gamma_perp and
e = e^{i phi_mid}:

    n_m     = (2n - dt*a + (4*Omega0*dt/k)*Im(sigma*e)) / (2 + dt*a + dt**2*Omega0**2/k)
    sigma_m = (2*sigma - (i/2)*Omega0*dt*conj(e)*n_m) / k
    n1 = 2*n_m - n,  sigma1 = 2*sigma_m - sigma

A step guard refuses dt*max(a, gamma_perp, Omega0) > MAX_STEP_RATE before any
step runs, and every noise chunk ends with a Bloch-sphere bound check.

Reproducibility contract: trajectory i draws from a Philox stream keyed by
(seed, i); normals are produced by the Box-Muller cosine branch, one uniform
pair per normal, in fixed chunks of NOISE_CHUNK steps. Philox is counter
based, so a stream is nothing but its key and a counter position: one
generator is re-pointed from stream to stream by setting both, never rebuilt
per trajectory. Within a chunk each stream fills its own row of a block of
uniforms, and the whole block is then transformed at once; the transform is
elementwise, so a stream's normals do not depend on the block around it or
on how its draws are split into chunks. Ensemble statistics are
reduced per fixed-size trajectory block and the blocks are merged pairwise in
index order, so results are bit-identical for any worker count. Every entry
point integrates through the same block engine, so trajectory i is the same
trajectory everywhere.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .params import SystemParams, check_seed, grid_steps

BLOCK_TRAJ = 8192      # trajectories integrated together; independent of --threads
NOISE_CHUNK = 1024     # steps drawn per stream call; fixed so noise is batch independent
NOISE_TILE = 1 << 16   # uniforms transformed together; bounds the noise temporaries
MAX_STEP_RATE = 0.05   # largest dt*max(a, gamma_perp, omega0) the step guard allows


class IntegratorError(RuntimeError):
    """A step is too coarse for the rates or a trajectory became unphysical."""


class _PhiloxCursor:
    """One Philox generator that is pointed at any stream (seed, i) in turn.

    Stream (seed, i) is the Philox generator keyed by (seed, i) with its
    counter at 0. Philox turns each counter value into a block of four 64-bit
    words and each uniform takes one word, so after p uniforms the stream's
    counter reads p // 4 with p % 4 words of the next block used. ``seek``
    writes exactly that state, which makes re-pointing a state write instead
    of a new generator (whose constructor would also draw OS entropy).
    """

    def __init__(self, seed: int):
        self._key = [check_seed(seed), 0]
        self._counter = [0, 0, 0, 0]
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": self._counter, "key": self._key},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        self._bitgen = np.random.Philox(0)     # a fixed seed: no OS entropy
        self._gen = np.random.Generator(self._bitgen)

    def seek(self, index: int, position: int = 0) -> np.random.Generator:
        """Point at uniform ``position`` of stream (seed, index); return the generator."""
        self._key[1] = index
        self._counter[0] = position // 4
        self._bitgen.state = self._state
        if position % 4:
            self._bitgen.random_raw(position % 4, output=False)
        return self._gen


class RngStream:
    """Counter-based random stream for one trajectory.

    Output is a pure function of (seed, index, position): the stream is the
    Philox generator keyed by the pair (see _PhiloxCursor), and every normal
    consumes exactly one uniform pair (Box-Muller, cosine branch), so the
    j-th normal is the same no matter how draws are chunked into calls. The
    seed and the index must lie in [0, 2**64).

    Not exported: the package draws noise through _normals. It stays only
    because perfbench/tracing.py patches RngStream.__init__ by name.
    """

    def __init__(self, seed: int, index: int = 0):
        self.seed = check_seed(seed)
        self.index = check_seed(index, "index")
        self._gen = _PhiloxCursor(self.seed).seek(self.index)

    def normals(self, count: int) -> np.ndarray:
        return _box_muller(self._gen.random(2 * count))


def _box_muller(u):
    """Box-Muller cosine branch over the last axis of uniforms in [0, 1).

    Each pair (u[2j], u[2j+1]) gives sqrt(-2 ln(1 - u[2j])) * cos(2 pi u[2j+1]);
    1 - u maps [0, 1) onto (0, 1], so the log stays finite and no domain check
    is needed. Elementwise, so any block of rows gives each row's normals bit
    for bit.
    """
    r = np.sqrt(-2.0 * np.log(1.0 - u[..., 0::2]))
    return r * np.cos((2.0 * math.pi) * u[..., 1::2])


def _normals(seed, lo, hi, n_steps, increments=None):
    """Standard normals for steps 0..n_steps-1 of trajectories [lo, hi).

    Yields arrays of shape (hi - lo, <= NOISE_CHUNK) in step order, so no
    more than one chunk is ever held. One Philox generator serves every
    stream: for each row of a tile of at most NOISE_TILE uniforms it is
    pointed at stream (seed, i) where the chunk starts, two uniforms per
    step, and fills the row; each tile goes through one _box_muller call.
    ``increments`` (explicit normals, one per step, for a single trajectory)
    is sliced in the same chunks in place of the streams.
    """
    if increments is not None:
        for c in range(0, n_steps, NOISE_CHUNK):
            yield increments[None, c:c + NOISE_CHUNK]
        return
    width = hi - lo
    cursor = _PhiloxCursor(seed)
    for c in range(0, n_steps, NOISE_CHUNK):
        clen = min(NOISE_CHUNK, n_steps - c)
        rows = min(width, max(1, NOISE_TILE // (2 * clen)))
        u = np.empty((rows, 2 * clen))
        z = np.empty((width, clen))
        for r in range(0, width, rows):
            tile = u[:min(rows, width - r)]
            for i, row in enumerate(tile, lo + r):
                cursor.seek(i, 2 * c).random(out=row)
            z[r:r + len(tile)] = _box_muller(tile)
        yield z


@dataclass
class EnsembleTrace:
    """Per-time statistics of n over an ensemble.

    n_var is the unbiased sample variance across trajectories and
    n_stderr = sqrt(n_var / n_traj). coherence_mean, when requested, is the
    ensemble mean of sigma*e^{i phi} at each grid time. final_n, when
    requested, holds every trajectory's n(t_end) in trajectory-index order.
    """

    t: np.ndarray
    n_mean: np.ndarray
    n_var: np.ndarray
    n_stderr: np.ndarray
    n_traj: int
    coherence_mean: np.ndarray | None = None
    final_n: np.ndarray | None = None


# ----------------------------------------------------------------------
# core stepping kernel (vectorized over trajectories) and its step guard

def _midpoint_step(n, sigma, phi, z, a, gamma_perp, delta, omega0, dt):
    """One closed-form implicit-midpoint step of every trajectory in the arrays.

    Returns (n, sigma, phi). Purely elementwise, so each trajectory's
    arithmetic is independent of its neighbours in the block.
    """
    dphi = math.sqrt(delta * dt) * z
    e_mid = np.exp(1j * (phi + 0.5 * dphi))
    k = 2.0 + dt * gamma_perp
    w = omega0 * dt
    n_m = ((2.0 * n - dt * a + (4.0 * w / k) * (sigma * e_mid).imag)
           / (2.0 + dt * a + w * w / k))
    s_m = (2.0 * sigma - (0.5j * w) * np.conj(e_mid) * n_m) / k
    return 2.0 * n_m - n, 2.0 * s_m - sigma, phi + dphi


def _check_step(params: SystemParams, dt: float) -> None:
    # the closed form cannot fail, so a step too coarse for the fastest rate
    # is refused up front rather than left to the Bloch-sphere check
    rate = max(params.a, params.gamma_perp, params.omega0)
    if dt * rate > MAX_STEP_RATE * (1.0 + 1e-12):
        raise IntegratorError(
            f"dt={dt:g} too coarse for rate {rate:g}: the midpoint step needs "
            f"dt*max(a, gamma_perp, omega0) <= {MAX_STEP_RATE:g}, "
            f"i.e. dt <= {MAX_STEP_RATE / rate:.3g}"
        )


# ----------------------------------------------------------------------
# streaming statistics: per-block direct moments, Chan merge across blocks

def _merge_moments(left, right):
    """Combine two (count, mean, m2) moment triples (vectorized over time)."""
    c1, m1, s1 = left
    c2, m2, s2 = right
    c = c1 + c2
    d = m2 - m1
    mean = m1 + d * (c2 / c)
    m2c = s1 + s2 + d * d * (c1 * c2 / c)
    return c, mean, m2c


def _tree_merge(items):
    """Pairwise merge in fixed order; result independent of worker count."""
    items = list(items)
    if not items:
        raise ValueError("nothing to merge")
    while len(items) > 1:
        nxt = []
        for i in range(0, len(items) - 1, 2):
            nxt.append(_merge_moments(items[i], items[i + 1]))
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def _block_moments(values: np.ndarray):
    """Exact (count, mean, m2) of one block along axis 0."""
    mean = values.mean(axis=0)
    return len(values), mean, ((values - mean) ** 2).sum(axis=0)


def _var_stderr(count, m2):
    var = m2 / (count - 1) if count > 1 else np.zeros_like(m2)
    return var, np.sqrt(var / count)


# ----------------------------------------------------------------------
# block integration

def _run_block(params, seed, idx_lo, idx_hi, n_steps, dt, n0, sigma0, phi0,
               want_coherence, snap_steps, increments):
    """Integrate trajectories [idx_lo, idx_hi) and reduce them on the fly.

    Returns per-block moment triple for n(t), optional coherence sums,
    snapshot arrays of (n, sigma, phi) at the requested step indices (one
    column per index, none when none are requested), and the final (n, phi)
    of every trajectory.
    """
    a, gperp = params.a, params.gamma_perp
    delta, omega0 = params.delta, params.omega0
    width = idx_hi - idx_lo

    n = np.full(width, float(n0))
    sigma = np.full(width, complex(sigma0), dtype=complex)
    phi = np.full(width, float(phi0))

    mean = np.empty(n_steps + 1)
    m2 = np.empty(n_steps + 1)
    coh = np.empty(n_steps + 1, dtype=complex) if want_coherence else None
    snap_lookup = {s: j for j, s in enumerate(snap_steps)}
    snap_n = np.empty((width, len(snap_steps)))
    snap_sigma = np.empty((width, len(snap_steps)), dtype=complex)
    snap_phi = np.empty((width, len(snap_steps)))

    bound_n = 1.0 + 10.0 * dt
    bound_s = 0.5 + 10.0 * dt

    def record(k):
        _, mean[k], m2[k] = _block_moments(n)  # count == width by construction
        if coh is not None:
            coh[k] = (sigma * np.exp(1j * phi)).sum()
        j = snap_lookup.get(k)
        if j is not None:
            snap_n[:, j] = n
            snap_sigma[:, j] = sigma
            snap_phi[:, j] = phi

    record(0)
    step = 0
    for z in _normals(seed, idx_lo, idx_hi, n_steps, increments):
        for z_step in z.T:
            step += 1
            n, sigma, phi = _midpoint_step(n, sigma, phi, z_step, a, gperp,
                                           delta, omega0, dt)
            record(step)
        # sanity bounds once per chunk; the comparison is written so NaN fails it
        max_n = float(np.max(np.abs(n)))
        max_s = float(np.max(np.abs(sigma)))
        if not (max_n <= bound_n and max_s <= bound_s):
            raise IntegratorError(
                f"trajectory left the Bloch sphere by step {step} "
                f"(max|n|={max_n:.6g}, max|sigma|={max_s:.6g}); reduce dt"
            )

    return {
        "moments": (width, mean, m2),
        "coh_sum": coh,
        "snap_n": snap_n,
        "snap_sigma": snap_sigma,
        "snap_phi": snap_phi,
        "final_n": n,
        "final_phi": phi,
    }


def _run_blocks(params, seed, lo, hi, n_steps, dt, n0=-1.0, sigma0=0j,
                phi0=0.0, want_coherence=False, snap_steps=(),
                increments=None, threads=1):
    """Run trajectories [lo, hi) in blocks (possibly on a thread pool), in fixed order.

    The step guard runs here, once, after the callers have validated the grid.
    """
    if hi <= lo:
        raise ValueError("n_traj must be >= 1")
    _check_step(params, dt)
    spans = [(s, min(s + BLOCK_TRAJ, hi)) for s in range(lo, hi, BLOCK_TRAJ)]

    def job(span):
        return _run_block(params, seed, *span, n_steps, dt, n0, sigma0, phi0,
                          want_coherence, tuple(snap_steps), increments)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, spans))   # collected in block order
    else:
        results = [job(s) for s in spans]
    return results


def run_ensemble(params: SystemParams, n_traj: int, t_end: float, dt: float,
                 seed: int, *, n0: float = -1.0, sigma0: complex = 0j,
                 phi0: float = 0.0, threads: int = 1,
                 with_coherence: bool = False,
                 keep_final: bool = False) -> EnsembleTrace:
    """Ensemble statistics of n(t) over ``n_traj`` independent trajectories.

    Default initial condition is the cold ground state n=-1, sigma=0, phi=0.
    Deterministic: the same (params, n_traj, t_end, dt, seed) give the same
    trace bit for bit, for any ``threads``.
    """
    n_steps = grid_steps(t_end, dt, positive=True)
    results = _run_blocks(params, seed, 0, n_traj, n_steps, dt, n0, sigma0, phi0,
                          want_coherence=with_coherence, threads=threads)

    count, mean, m2 = _tree_merge([r["moments"] for r in results])
    if not np.all(np.isfinite(mean)):
        raise IntegratorError("ensemble mean is not finite")
    var, stderr = _var_stderr(count, m2)

    coherence = None
    if with_coherence:
        total = np.zeros(n_steps + 1, dtype=complex)
        for r in results:            # fixed block order
            total += r["coh_sum"]
        coherence = total / count

    final = np.concatenate([r["final_n"] for r in results]) if keep_final else None
    t = np.arange(n_steps + 1) * dt
    return EnsembleTrace(t=t, n_mean=mean, n_var=var, n_stderr=stderr,
                         n_traj=count, coherence_mean=coherence, final_n=final)


@dataclass
class TrajectoryTrace:
    t: np.ndarray
    n: np.ndarray
    sigma: np.ndarray
    phi: np.ndarray


def run_trajectory(params: SystemParams, t_end: float, dt: float, seed: int,
                   index: int = 0, *, n0: float = -1.0, sigma0: complex = 0j,
                   phi0: float = 0.0,
                   increments: np.ndarray | None = None) -> TrajectoryTrace:
    """Full history of a single trajectory.

    Runs the ensemble engine at width 1 with a snapshot at every step, so
    trajectory ``index`` here is the exact trajectory that run_ensemble folds
    into its statistics. One step is ``t_end=dt``. ``increments`` substitutes
    an explicit array of standard normals (one per step) for the stream,
    which lets tests refine a noise path: the coarse path over dt is
    recovered from the fine path over dt/2 by summing adjacent increments.
    """
    index = check_seed(index, "index")
    n_steps = grid_steps(t_end, dt)
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ValueError(f"increments must have shape ({n_steps},)")
    (r,) = _run_blocks(params, seed, index, index + 1, n_steps, dt, n0,
                       sigma0, phi0, snap_steps=range(n_steps + 1),
                       increments=increments)
    t = np.arange(n_steps + 1) * dt
    return TrajectoryTrace(t=t, n=r["snap_n"][0], sigma=r["snap_sigma"][0],
                           phi=r["snap_phi"][0])


# ----------------------------------------------------------------------
# phase-only helpers (the phase decouples from (n, sigma))

def _check_phase_args(delta: float, n_traj: int) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")


def _wiener_paths(seed, lo, hi, scale, out):
    """Fill ``out`` (hi - lo, steps) with the running sums of scale[j] * z_j.

    Chunks are summed in order with the previous chunk's last phase as the
    first summand, so each row equals one cumsum over the whole row.
    """
    c = 0
    for z in _normals(seed, lo, hi, out.shape[1]):
        clen = z.shape[1]
        incr = scale[c:c + clen] * z
        if c:
            incr[:, 0] += out[:, c - 1]
        np.cumsum(incr, axis=1, out=out[:, c:c + clen])
        c += clen


def simulate_phases(delta: float, n_traj: int, t_end: float, dt: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Wiener phase paths phi(t) for ``n_traj`` trajectories, shape (N, steps+1).

    Uses the same streams as run_ensemble, so these are the phases the full
    simulation would see.
    """
    _check_phase_args(delta, n_traj)
    n_steps = grid_steps(t_end, dt)
    scale = np.full(n_steps, math.sqrt(delta * dt))
    phi = np.empty((n_traj, n_steps + 1))
    phi[:, 0] = 0.0
    # paths go in groups of one noise tile, so noise memory stays one tile
    rows = max(1, NOISE_TILE // (2 * NOISE_CHUNK))
    for lo in range(0, n_traj, rows):
        hi = min(lo + rows, n_traj)
        _wiener_paths(seed, lo, hi, scale, phi[lo:hi, 1:])
    t = np.arange(n_steps + 1) * dt
    return t, phi


@dataclass
class PhaseAutocorrelation:
    tau: np.ndarray
    mean: np.ndarray          # complex ensemble mean of e^{i[phi(tau)-phi(0)]}
    stderr_re: np.ndarray
    stderr_im: np.ndarray
    n_traj: int


def phase_autocorrelation(delta: float, n_traj: int, tau_grid,
                          seed: int) -> PhaseAutocorrelation:
    """Estimate <e^{i[phi(t+tau)-phi(t)]}> on the given non-negative tau grid.

    Wiener increments are stationary, so the grid is sampled exactly (no dt):
    each trajectory draws the increments between consecutive tau points.
    The expected value is exp(-delta*|tau|/2).
    """
    _check_phase_args(delta, n_traj)
    tau = np.asarray(tau_grid, dtype=float)
    if tau.ndim != 1 or len(tau) == 0:
        raise ValueError("tau_grid must be a non-empty 1-d array")
    if np.any(tau < 0) or np.any(np.diff(tau) <= 0):
        raise ValueError("tau_grid must be non-negative and strictly increasing")

    scale = np.sqrt(delta * np.diff(np.concatenate([[0.0], tau])))
    parts = []
    for lo in range(0, n_traj, BLOCK_TRAJ):
        hi = min(lo + BLOCK_TRAJ, n_traj)
        phases = np.empty((hi - lo, len(tau)))
        _wiener_paths(seed, lo, hi, scale, phases)
        parts.append((_block_moments(np.cos(phases)),
                      _block_moments(np.sin(phases))))

    count, mean_re, m2_re = _tree_merge([p[0] for p in parts])
    _, mean_im, m2_im = _tree_merge([p[1] for p in parts])
    _, se_re = _var_stderr(count, m2_re)
    _, se_im = _var_stderr(count, m2_im)
    return PhaseAutocorrelation(tau=tau, mean=mean_re + 1j * mean_im,
                                stderr_re=se_re, stderr_im=se_im, n_traj=count)


# ----------------------------------------------------------------------
# decorrelation diagnostic

@dataclass
class DecorrelationResult:
    """Two-time correlation test at fixed observation time t.

    k_mean estimates K(t,t') = Re<Omega(t)Omega*(t')n(t')>, c_mean estimates
    the bare field autocorrelation C(t,t'), n_mean the mean inversion at t'.
    residual = k_mean - c_mean*n_mean; residual_stderr is the K estimator's
    standard error, which sets the verdict scale. Estimators are accumulated
    on the unit-modulus phase factors and scaled by Omega0**2 afterwards, so
    residual(t'=t) is exactly zero.
    """

    t: float
    t_prime: np.ndarray
    k_mean: np.ndarray
    k_stderr: np.ndarray
    c_mean: np.ndarray
    c_stderr: np.ndarray
    n_mean: np.ndarray
    n_stderr: np.ndarray
    residual: np.ndarray
    residual_stderr: np.ndarray
    n_traj: int
    holds_3sigma: bool
    low_statistics: bool


def decorrelation_residual(params: SystemParams, n_traj: int, t: float,
                           t_prime_grid, seed: int, *, dt: float,
                           threads: int = 1) -> DecorrelationResult:
    """Measure the factorization error K(t,t') - C(t,t')*n_mean(t').

    t and every t' must sit on the dt grid, with t >= max(t'). The verdict
    holds_3sigma is max|residual| <= 3*residual_stderr over the grid.
    """
    t_prime = np.asarray(t_prime_grid, dtype=float)
    if t_prime.ndim != 1 or len(t_prime) == 0:
        raise ValueError("t_prime_grid must be a non-empty 1-d array")
    if np.any(np.diff(t_prime) <= 0):
        raise ValueError("t_prime_grid must be strictly increasing")
    if t < t_prime[-1]:
        raise ValueError("observation time t must be >= max(t_prime_grid)")

    n_steps = grid_steps(t, dt, "t")
    snap_steps = [grid_steps(tp, dt, "t_prime") for tp in t_prime]
    results = _run_blocks(params, seed, 0, n_traj, n_steps, dt,
                          snap_steps=snap_steps, threads=threads)

    k_parts, c_parts, n_parts = [], [], []
    for r in results:
        u = np.exp(-1j * (r["final_phi"][:, None] - r["snap_phi"]))
        k_parts.append(_block_moments((u * r["snap_n"]).real))
        c_parts.append(_block_moments(u.real))
        n_parts.append(_block_moments(r["snap_n"]))

    count, k_mean, k_m2 = _tree_merge(k_parts)
    _, c_mean, c_m2 = _tree_merge(c_parts)
    _, n_mean, n_m2 = _tree_merge(n_parts)
    _, k_se = _var_stderr(count, k_m2)
    _, c_se = _var_stderr(count, c_m2)
    _, n_se = _var_stderr(count, n_m2)

    w2 = params.omega0 ** 2
    residual = w2 * (k_mean - c_mean * n_mean)
    residual_se = w2 * k_se
    holds = bool(np.all(np.abs(residual) <= 3.0 * residual_se))
    return DecorrelationResult(
        t=t, t_prime=t_prime,
        k_mean=w2 * k_mean, k_stderr=w2 * k_se,
        c_mean=w2 * c_mean, c_stderr=w2 * c_se,
        n_mean=n_mean, n_stderr=n_se,
        residual=residual, residual_stderr=residual_se,
        n_traj=count, holds_3sigma=holds,
        low_statistics=count < 100,
    )
