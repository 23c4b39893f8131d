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
Bloch radius n**2 + 4|sigma|**2 to rounding).

The phase enters only through e^{i phi}, so the engine carries the coherence
in the frame that turns with the field phase, u = sigma*e^{i phi} (whose
ensemble mean <u> every ensemble reports, with |u| = |sigma|), and the step
needs e^{i phi} only over the step itself. With r = e^{i dphi/2},
k = 2 + dt*gamma_perp and w = Omega0*dt, one step of (n, u) is

    n_m = (2n - dt*a + (4w/k)*Im(u*r)) / (2 + dt*a + w**2/k)
    v   = (2*u*r - (i/2)*w*n_m) / k
    n1 = 2*n_m - n,  u1 = (2v - u*r)*r

which is the lab-frame step of sigma multiplied through by e^{i phi_mid}
(v = sigma_m*e^{i phi_mid}); sigma = u*e^{-i phi} is formed only where a
caller asks for sigma (run_trajectory).

The step runs in place: each block allocates one workspace, and every
intermediate is written into it with ``out=``, by the same ufunc on the same
operands in the same order as the expressions above, so the workspace
changes no bit. r is evaluated as cos and sin of half = 0.5*dphi + 0.0 into
its real and imaginary parts. That equals the complex exp of 0.5j*dphi bit
for bit: the complex product hands the exp the argument (+-0) + i*half, and
libm's cexp(+-0 + ih) is (cos h, sin h). The + 0.0 is the product's own
addition, which turns a -0 increment into +0, so a zero increment's sine is
+0 as the exp has it, not sin(-0) = -0. A test checks the libm assumption.

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
on how its draws are split into chunks. A chunk is handed to the step as a
(steps, width) array, one contiguous row of normals per step; each tile of
streams is transposed into it as it is transformed. Ensemble statistics are
reduced per fixed-size trajectory block and the blocks are merged pairwise in
index order, so results are bit-identical for any worker count. Every entry
point integrates through the same block engine, so trajectory i is the same
trajectory everywhere.

Buffered reduction: every ensemble reports <u> and the final n. In the
blocks of run_ensemble (the only caller that reads per-step moments), each
step writes n and u into its row of a C-contiguous (rows, width) buffer, and
every ``rows`` steps the buffer is reduced along its contiguous axis. Numpy's
pairwise sum over one contiguous row rounds exactly as over a 1-d array of
that row, so the per-step moments do not depend on ``rows``; ``rows`` comes
from the width alone (_buffer_rows), which bounds a block's buffers at
1.5 MB.

Prefix ensembles: trajectory i is keyed by (seed, i), so the m-trajectory
ensemble is the first m columns of any larger one. One flush also reduces
the leading columns x[:, :m] of the block that a requested size m cuts (a
column slice of the same rows, so again bit for bit the reduction a block of
width m would make); the blocks before it contribute their full reductions.
Those pieces go through the same pairwise merge and the same block-order
coherence sum as a separate run of m trajectories, so run_ensemble's
``prefixes`` give traces bit-identical to separate runs of those sizes.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .params import (SystemParams, _check_initial_state, _check_lags, check_seed,
                     grid_steps, time_grid)

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


def _box_muller(u, out=None, work=None):
    """Box-Muller cosine branch over the last axis of uniforms in [0, 1).

    Each pair (u[2j], u[2j+1]) gives sqrt(-2 ln(1 - u[2j])) * cos(2 pi u[2j+1]);
    1 - u maps [0, 1) onto (0, 1], so the log stays finite and no domain check
    is needed. Elementwise, so any block of rows gives each row's normals bit
    for bit. ``work`` (shape (2, *normals' shape), C-contiguous; allocated
    when not given) holds the radius and the cosine, and ``out`` (any view
    of the normals' shape) takes their product, so a caller can store the
    normals transposed with no extra pass. Each operation is the ufunc,
    operand order and dtype of the expression above, so the buffers change
    no bit.
    """
    if work is None:
        work = np.empty((2, *u.shape[:-1], u.shape[-1] // 2))
    radius, cosine = work
    np.subtract(1.0, u[..., 0::2], out=radius)
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(2.0 * math.pi, u[..., 1::2], out=cosine)
    np.cos(cosine, out=cosine)
    return np.multiply(radius, cosine, out=out)


def _normals(seed, lo, hi, n_steps, increments=None):
    """Standard normals for steps 0..n_steps-1 of trajectories [lo, hi).

    Yields arrays of shape (<= NOISE_CHUNK, hi - lo) in step order, a chunk
    at a time, with one C-contiguous row per step, so the step kernel reads
    each step's normals contiguously. One Philox
    generator serves every stream: for each row of a tile of at most
    NOISE_TILE uniforms it is pointed at stream (seed, i) where the chunk
    starts, two uniforms per step, and fills the row; each tile goes through
    one _box_muller call, whose buffers are allocated once per chunk and
    whose last product is written transposed into the tile's columns of the
    chunk. Transposing tile by tile keeps the copy in cache (a transpose of
    the whole chunk would cost more than the row layout saves), and the
    chunk's rows are padded by one cache line so that a power-of-two width
    does not put every row of a tile's column strip in the same cache sets.
    ``increments`` (explicit normals, one per step, for a single trajectory)
    is sliced in the same chunks in place of the streams.

    Every chunk is drawn into one buffer, so noise memory is one chunk
    however many chunks a run takes: a yielded chunk is valid only until
    the next one is drawn, and a caller that keeps chunks must copy them.
    """
    if increments is not None:
        for c in range(0, n_steps, NOISE_CHUNK):
            yield increments[c:c + NOISE_CHUNK, None]
        return
    width = hi - lo
    cursor = _PhiloxCursor(seed)
    buffer = np.empty((min(NOISE_CHUNK, n_steps), width + 8))[:, :width]
    for c in range(0, n_steps, NOISE_CHUNK):
        clen = min(NOISE_CHUNK, n_steps - c)
        rows = min(width, max(1, NOISE_TILE // (2 * clen)))
        u = np.empty((rows, 2 * clen))
        work = np.empty((2, rows, clen))
        z = buffer[:clen]
        for r in range(0, width, rows):
            m = min(rows, width - r)
            for i, row in enumerate(u[:m], lo + r):
                cursor.seek(i, 2 * c).random(out=row)
            _box_muller(u[:m], z[:, r:r + m].T, work[:, :m])
        yield z


@dataclass
class EnsembleTrace:
    """Per-time statistics of n over an ensemble.

    n_var is the unbiased sample variance across trajectories and
    n_stderr = sqrt(n_var / n_traj). Every ensemble also reports
    coherence_mean, the ensemble mean <u> of u = sigma*e^{i phi} at each grid
    time, and final_n, every trajectory's n(t_end) in trajectory-index
    order. prefix_traces holds one trace per requested prefix size, in the
    order asked, each equal in every field to a separate run of that many
    trajectories.
    """

    t: np.ndarray
    n_mean: np.ndarray
    n_var: np.ndarray
    n_stderr: np.ndarray
    n_traj: int
    coherence_mean: np.ndarray
    final_n: np.ndarray
    prefix_traces: tuple[EnsembleTrace, ...] = ()


# ----------------------------------------------------------------------
# core stepping kernel (vectorized over trajectories) and its step guard

_TWO, _HALF, _ZERO = np.array(2.0), np.array(0.5), np.array(0.0)


class _StepWorkspace:
    """The constants and scratch arrays of _midpoint_step for one block.

    The step's scalars are held as 0-d float64 and complex128 arrays: a ufunc
    converts a Python scalar on every call, which at narrow widths costs more
    than the arithmetic, and a 0-d array of the same dtype selects the same
    loop, so the bits do not change.
    """

    def __init__(self, width, a, gamma_perp, delta, omega0, dt):
        k = 2.0 + dt * gamma_perp
        w = omega0 * dt
        self.scale = np.array(math.sqrt(delta * dt))
        self.decay = np.array(dt * a)
        self.drive = np.array(4.0 * w / k)
        self.denom = np.array(2.0 + dt * a + w * w / k)
        self.pump = np.array(0.5j * w)
        self.k = np.array(k)
        self.dphi, self.half, self.n_m = (np.empty(width) for _ in range(3))
        self.r, self.ur, self.v, self.pw = (np.empty(width, dtype=complex)
                                            for _ in range(4))


def _midpoint_step(n, u, phi, z, ws):
    """One closed-form implicit-midpoint step of every trajectory, in place.

    Advances (n, u, phi) with u = sigma*e^{i phi}, the coherence in the frame
    of the field phase, by the step of the module docstring for the rates
    that ``ws`` (a _StepWorkspace of their width) was built with. Every
    intermediate goes through ``ws``, so a step allocates nothing. Purely
    elementwise, so each trajectory's arithmetic is independent of its
    neighbours in the block.

    r = e^{i dphi/2} is cos and sin of half = 0.5*dphi + 0.0, written into
    r's real and imaginary parts: bit for bit the complex exp of 0.5j*dphi,
    signed zeros included, because libm's cexp(+-0 + ih) is (cos h, sin h)
    and the ``+ 0.0`` is the complex product's own addition (see the module
    docstring). Every other operation is the ufunc, operand order and dtype
    of the plain expressions of the step, only with ``out=``.
    """
    dphi, half, n_m, r, ur, v, pw = (ws.dphi, ws.half, ws.n_m, ws.r, ws.ur,
                                     ws.v, ws.pw)
    np.multiply(ws.scale, z, out=dphi)
    np.multiply(_HALF, dphi, out=half)
    np.add(half, _ZERO, out=half)
    np.cos(half, out=r.real)
    np.sin(half, out=r.imag)
    np.multiply(u, r, out=ur)
    # n_m = (2n - dt*a + (4w/k)*Im(ur)) / (2 + dt*a + w**2/k)
    np.multiply(_TWO, n, out=n_m)
    np.subtract(n_m, ws.decay, out=n_m)
    np.multiply(ws.drive, ur.imag, out=half)
    np.add(n_m, half, out=n_m)
    np.divide(n_m, ws.denom, out=n_m)
    # v = (2ur - (i/2)w*n_m) / k
    np.multiply(_TWO, ur, out=v)
    np.multiply(ws.pump, n_m, out=pw)
    np.subtract(v, pw, out=v)
    np.divide(v, ws.k, out=v)
    # n1 = 2n_m - n, u1 = (2v - ur)*r, phi1 = phi + dphi
    np.multiply(_TWO, n_m, out=half)
    np.subtract(half, n, out=n)
    np.multiply(_TWO, v, out=v)
    np.subtract(v, ur, out=v)
    np.multiply(v, r, out=u)
    np.add(phi, dphi, out=phi)


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


def _block_moments(values: np.ndarray, axis: int = 0):
    """Exact (count, mean, m2) of one block along ``axis``."""
    mean = values.mean(axis=axis, keepdims=True)
    return (values.shape[axis], mean.squeeze(axis),
            ((values - mean) ** 2).sum(axis=axis))


def _var_stderr(count, m2):
    var = m2 / (count - 1) if count > 1 else np.zeros_like(m2)
    return var, np.sqrt(var / count)


# ----------------------------------------------------------------------
# block integration

def _check_count(value, name: str = "n_traj") -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _buffer_rows(width: int) -> int:
    """Steps a block buffers between reductions: 2**16 values, 1 to 64 rows."""
    return min(64, max(1, (1 << 16) // width))


def _run_block(params, seed, idx_lo, idx_hi, n_steps, dt, n0, sigma0, phi0,
               snap_steps, increments, prefix_widths=()):
    """Integrate trajectories [idx_lo, idx_hi) and reduce them on the fly.

    With ``snap_steps`` (step indices in non-decreasing order), the block
    keeps snapshot arrays of (n, u, phi) at those steps, one column per
    index (u = sigma*e^{i phi}). Without them it reduces every step: steps are
    buffered and reduced ``_buffer_rows(width)`` at a time (see the module
    docstring), and the block's leading ``prefix_widths`` columns are reduced
    alongside the whole block into moment triples for n(t) and coherence
    sums, both keyed by the reduced width. Returns the block's span, the
    moments and coherence sums (empty with snapshots), the snapshot arrays
    and the final (n, phi) of every trajectory.
    """
    a, gperp = params.a, params.gamma_perp
    delta, omega0 = params.delta, params.omega0
    width = idx_hi - idx_lo

    n = np.full(width, float(n0))
    u = np.full(width, complex(sigma0) * np.exp(1j * float(phi0)))
    phi = np.full(width, float(phi0))

    snap_n = np.empty((width, len(snap_steps)))
    snap_u = np.empty((width, len(snap_steps)), dtype=complex)
    snap_phi = np.empty((width, len(snap_steps)))
    moments, coh = {}, {}
    if snap_steps:
        # a cursor over the ascending steps: column j is due at step `due`
        pending = enumerate(snap_steps)
        j, due = next(pending)

        def store(k):
            nonlocal j, due
            while k == due:
                snap_n[:, j] = n
                snap_u[:, j] = u
                snap_phi[:, j] = phi
                j, due = next(pending, (None, None))
    else:
        rows, filled = _buffer_rows(width), 0
        n_buf = np.empty((rows, width))
        u_buf = np.empty((rows, width), dtype=complex)
        for m in sorted({*prefix_widths, width}):
            moments[m] = (m, np.empty(n_steps + 1), np.empty(n_steps + 1))
            coh[m] = np.empty(n_steps + 1, dtype=complex)

        def store(k):
            nonlocal filled
            # buffer row `filled` holds step k; a full buffer (or the last
            # step) is reduced row-wise into steps k - filled .. k
            n_buf[filled] = n
            u_buf[filled] = u
            filled += 1
            if filled == rows or k == n_steps:
                span = slice(k + 1 - filled, k + 1)
                for m, (_, mean, m2) in moments.items():
                    _, mean[span], m2[span] = _block_moments(n_buf[:filled, :m],
                                                             axis=1)
                    coh[m][span] = u_buf[:filled, :m].sum(axis=1)
                filled = 0

    bound_n = 1.0 + 10.0 * dt
    bound_s = 0.5 + 10.0 * dt
    ws = _StepWorkspace(width, a, gperp, delta, omega0, dt)
    store(0)
    step = 0
    for z in _normals(seed, idx_lo, idx_hi, n_steps, increments):
        for z_step in z:
            step += 1
            _midpoint_step(n, u, phi, z_step, ws)
            store(step)
        # sanity bounds once per chunk; the comparison is written so NaN fails it
        max_n = float(np.max(np.abs(n)))
        max_s = float(np.max(np.abs(u)))      # |u| = |sigma|
        if not (max_n <= bound_n and max_s <= bound_s):
            raise IntegratorError(
                f"trajectory left the Bloch sphere by step {step} "
                f"(max|n|={max_n:.6g}, max|sigma|={max_s:.6g}); reduce dt"
            )

    return {
        "span": (idx_lo, idx_hi),
        "moments": moments,
        "coh_sum": coh,
        "snap_n": snap_n,
        "snap_u": snap_u,
        "snap_phi": snap_phi,
        "final_n": n,
        "final_phi": phi,
    }


def _run_blocks(params, seed, lo, hi, n_steps, dt, n0=-1.0, sigma0=0j,
                phi0=0.0, snap_steps=(), increments=None, threads=1, prefixes=()):
    """Run trajectories [lo, hi) in blocks (possibly on a thread pool), in fixed order.

    Blocks reduce per-step moments only when no ``snap_steps`` are asked
    for: run_ensemble reads moments, and the callers that read snapshots
    skip the buffer and its flushes. ``prefixes`` are ensemble sizes counted
    from ``lo``; each block also reduces the leading columns that one of
    them cuts it at. Every argument is checked (the initial state must be
    finite with |n0| <= 1 and |sigma0| <= 1/2), and the step guard runs,
    before any block runs.
    """
    _check_count(hi - lo)
    _check_count(threads, "threads")
    _check_initial_state(n0=n0, sigma0=sigma0, phi0=phi0)
    for size in prefixes:
        if not isinstance(size, numbers.Integral) or not 1 <= size < hi - lo:
            raise ValueError(f"prefix sizes must be integers in [1, n_traj), "
                             f"got {size!r}")
    _check_step(params, dt)
    spans = [(s, min(s + BLOCK_TRAJ, hi)) for s in range(lo, hi, BLOCK_TRAJ)]

    def job(span):
        cuts = [lo + size - span[0] for size in prefixes
                if span[0] < lo + size < span[1]]
        return _run_block(params, seed, *span, n_steps, dt, n0, sigma0, phi0,
                          snap_steps, increments, cuts)

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(job, spans))   # collected in block order
    else:
        results = [job(s) for s in spans]
    return results


def _ensemble_trace(results, size, t, final_n) -> EnsembleTrace:
    """Statistics of trajectories [0, size) from run_ensemble's block results.

    Each block before ``size`` gives its full reduction and the block that
    ``size`` cuts gives its prefix, merged in the order a separate run of
    ``size`` trajectories merges its blocks; ``final_n`` is every
    trajectory's n(t_end), of which the trace keeps the first ``size``.
    """
    parts = [(r, min(size, r["span"][1]) - r["span"][0])
             for r in results if r["span"][0] < size]
    count, mean, m2 = _tree_merge([r["moments"][m] for r, m in parts])
    if not np.all(np.isfinite(mean)):
        raise IntegratorError("ensemble mean is not finite")
    var, stderr = _var_stderr(count, m2)
    coherence = np.zeros(len(t), dtype=complex)
    for r, m in parts:           # fixed block order
        coherence += r["coh_sum"][m]
    return EnsembleTrace(t=t, n_mean=mean, n_var=var, n_stderr=stderr,
                         n_traj=count, coherence_mean=coherence / count,
                         final_n=final_n[:size])


def run_ensemble(params: SystemParams, n_traj: int, t_end: float, dt: float,
                 seed: int, *, n0: float = -1.0, sigma0: complex = 0j,
                 phi0: float = 0.0, threads: int = 1,
                 prefixes: tuple[int, ...] = ()) -> EnsembleTrace:
    """Ensemble statistics of n(t) over ``n_traj`` independent trajectories.

    Default initial condition is the cold ground state n=-1, sigma=0, phi=0;
    a non-finite state, |n0| > 1 or |sigma0| > 1/2 is refused with
    ValueError before any step. Deterministic: the same (params, n_traj,
    t_end, dt, seed) give the same trace bit for bit, for any ``threads``.
    ``prefixes`` (sizes in [1, n_traj)) adds ``prefix_traces``: the traces
    of trajectories [0, m) for each size m, bit-identical to separate runs
    of m trajectories, from this one run.
    """
    t = time_grid(t_end, dt, positive=True)
    results = _run_blocks(params, seed, 0, n_traj, len(t) - 1, dt, n0, sigma0, phi0,
                          threads=threads, prefixes=prefixes)
    final_n = np.concatenate([r["final_n"] for r in results])
    trace = _ensemble_trace(results, n_traj, t, final_n)
    trace.prefix_traces = tuple(_ensemble_trace(results, m, t, final_n)
                                for m in prefixes)
    return trace


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
    The initial state is checked as in run_ensemble, and the increments must
    be finite.
    """
    index = check_seed(index, "index")
    t = time_grid(t_end, dt)
    n_steps = len(t) - 1
    if increments is not None:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ValueError(f"increments must have shape ({n_steps},)")
        if not np.all(np.isfinite(increments)):
            raise ValueError("increments must be finite")
    (r,) = _run_blocks(params, seed, index, index + 1, n_steps, dt, n0,
                       sigma0, phi0, snap_steps=range(n_steps + 1),
                       increments=increments)
    phi = r["snap_phi"][0]
    return TrajectoryTrace(t=t, n=r["snap_n"][0],
                           sigma=r["snap_u"][0] * np.exp(-1j * phi), phi=phi)


# ----------------------------------------------------------------------
# phase-only helpers (the phase decouples from (n, sigma))

def _check_phase_args(delta: float, n_traj: int) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    _check_count(n_traj)


def _wiener_paths(seed, lo, hi, scale, out):
    """Fill ``out`` (hi - lo, steps) with the running sums of scale[j] * z_j.

    Chunks are summed in order with the previous chunk's last phase as the
    first summand, so each row equals one cumsum over the whole row.
    """
    c = 0
    for z in _normals(seed, lo, hi, out.shape[1]):
        clen = len(z)
        incr = np.multiply(scale[c:c + clen, None], z, out=z)
        if c:
            incr[0] += out[:, c - 1]
        np.cumsum(incr, axis=0, out=out[:, c:c + clen].T)
        c += clen


def simulate_phases(delta: float, n_traj: int, t_end: float, dt: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Wiener phase paths phi(t) for ``n_traj`` trajectories, shape (N, steps+1).

    Uses the same streams as run_ensemble, so these are the phases the full
    simulation would see.
    """
    _check_phase_args(delta, n_traj)
    t = time_grid(t_end, dt)
    scale = np.full(len(t) - 1, math.sqrt(delta * dt))
    phi = np.empty((n_traj, len(t)))
    phi[:, 0] = 0.0
    # paths go in groups of one noise tile, so noise memory stays one tile
    rows = max(1, NOISE_TILE // (2 * NOISE_CHUNK))
    for lo in range(0, n_traj, rows):
        hi = min(lo + rows, n_traj)
        _wiener_paths(seed, lo, hi, scale, phi[lo:hi, 1:])
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
    _check_lags(tau, "tau_grid")

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
    _check_lags(t_prime, "t_prime_grid")
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
