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
caller asks for sigma (run_trajectory). The step evaluates it with its
constants folded, D = 2 + dt*a + w**2/k:

    n_m = (2/D)*n - dt*a/D + (4w/(k*D))*Im(u*r)
    u1  = (((2 - dt*gamma_perp)/k)*u*r - i*(w/k)*n_m)*r

since 2v - u*r = ((2 - dt*gamma_perp)/k)*u*r - i*(w/k)*n_m, whose last term
is subtracted from the imaginary part alone: no division and no complex
product beyond the two by r.

The step runs in place: each block allocates one workspace, and every
intermediate is written into it with ``out=``. r comes from one vectorised
tan by the half-angle identity (spectrum._phasor): with t = tan(q),
q = 0.25*dphi + 0.0 and w' = 2/(1 + t**2), Re r = w' - 1 and Im r = t*w',
within 3.5e-16 of the complex exp of 0.5j*dphi. numpy runs libm's cos and
sin one value at a time, and they cost about twice the tan and its passes.
The + 0.0 turns a -0 increment into +0, so a zero increment's r is (1, +0)
as the exp has it. Box-Muller's cosine and the phase helpers' e^{i phi}
come from the same helper, so no stochastic path calls libm's cos or sin.

A step guard refuses dt*max(a, gamma_perp, Omega0) > MAX_STEP_RATE before any
step runs, and every noise chunk ends with a Bloch-sphere bound check.

Reproducibility contract: trajectory i draws from a Philox stream keyed by
(seed, i); normals are produced by the Box-Muller cosine branch, one uniform
pair per normal. Philox is counter based, so a stream is nothing but its key
and a counter position: one generator is re-pointed from stream to stream by
setting both, never rebuilt per trajectory, and a chunk of draws starts by
seeking each stream to its position. A block draws its noise in chunks of
_chunk_steps(width) steps: NOISE_CHUNK steps, or fewer where the block is so
wide that a chunk would pass NOISE_VALUES normals. Within a chunk each stream
fills its own row of a block of uniforms, and the whole block is then
transformed at once; the transform is elementwise, so a stream's normals do
not depend on the block around it, and since every chunk seeks, not on how
its draws are split into chunks either. The step loop takes a chunk
step-major, a (steps, width) array with one contiguous row per step
(_normals); the phase helpers take stream-major rows, one per trajectory,
filled in place by _fill_normals. Ensemble statistics are
reduced per fixed-size trajectory block and the blocks are merged pairwise in
index order, so results are bit-identical for any number of worker processes
(_run_blocks). One generator, _states, steps the blocks of every entry
point, so trajectory i is the same trajectory everywhere.

Buffered reduction: every ensemble reports <u> and the final n. In
_moment_block, run_ensemble's block job (the only one that reads per-step
moments), step k writes n and u into row k % rows of a C-contiguous
(rows, width) buffer, and every ``rows`` steps the buffer is reduced along
its contiguous axis. Numpy's pairwise sum over one contiguous row rounds
exactly as over a 1-d array of that row, so the per-step moments do not
depend on ``rows``; ``rows`` comes from the width alone (_buffer_rows), which
bounds a block's buffers at 1.5 MB.

Prefix ensembles: trajectory i is keyed by (seed, i), so the m-trajectory
ensemble is the first m columns of any larger one. Each flush of
_moment_block also reduces the leading columns x[:, :m] of the block that a
requested size m cuts (a column slice of the same rows, so again bit for bit
the reduction a block of width m would make); the blocks before it
contribute their full reductions. Those pieces go through the same pairwise
merge and the same block-order coherence sum as a separate run of m
trajectories, so run_ensemble's ``prefixes`` give traces bit-identical to
separate runs of those sizes.

Column reductions: phase_autocorrelation and decorrelation_residual reduce
(trajectories, points) arrays along the trajectory axis, and do so
_reduce_columns(width) points at a time, so their temporaries do not grow
with the number of lags or t' points. Numpy sums each column of a 2-d array
row by row, whatever the columns beside it, so a column block reduces as
the whole array does; a lone column it sums pairwise instead, so a lone
last column is reduced beside a copy of itself (_column_moments).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .params import (SystemParams, _check_initial_state, _check_lags, check_seed,
                     grid_steps, time_grid)
from .spectrum import _phasor

BLOCK_TRAJ = 8192      # trajectories integrated together; independent of --threads
SNAPSHOT_VALUES = 1 << 22  # most (n, phi) snapshots a decorrelation block keeps
NOISE_CHUNK = 1024     # most steps drawn per stream call (any cut draws the same normals)
NOISE_VALUES = 1 << 22 # most normals in one chunk; bounds a wide block's noise
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

    Not exported: the package draws noise through _fill_normals. It stays
    only because perfbench/tracing.py patches RngStream.__init__ by name.
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
    for bit. The cosine comes from tan(pi u[2j+1]) by the half-angle
    identity (spectrum._phasor; pi*u is exactly half of 2*pi*u), within
    4e-16 of libm's cos at about 4 ns a value against libm's 18-20 ns
    (2-core x86 host). ``work`` (shape (2, *normals' shape), C-contiguous;
    allocated when not given) holds the radius and the cosine, and ``out``
    (any view of the normals' shape) takes their product, so a caller can
    store the normals transposed with no extra pass; the buffers change no
    bit.
    """
    if work is None:
        work = np.empty((2, *u.shape[:-1], u.shape[-1] // 2))
    radius, cosine = work
    np.subtract(1.0, u[..., 0::2], out=radius)
    np.log(radius, out=radius)
    np.multiply(-2.0, radius, out=radius)
    np.sqrt(radius, out=radius)
    np.multiply(math.pi, u[..., 1::2], out=cosine)     # the half angle
    _phasor(cosine, cosine)
    return np.multiply(radius, cosine, out=out)


def _normals(seed, lo, hi, n_steps, increments=None):
    """Standard normals for steps 0..n_steps-1 of trajectories [lo, hi).

    Yields arrays of shape (<= _chunk_steps(hi - lo), hi - lo) in step
    order, a chunk at a time, with one C-contiguous row per step, so the
    step kernel (_states, the one caller) reads each step's normals
    contiguously. One Philox generator serves every stream, and
    _fill_normals draws each chunk, handed the chunk transposed: for each
    row of a tile of at most NOISE_TILE uniforms the generator is pointed at
    stream (seed, i) where the chunk starts, two uniforms per step, and
    fills the row; each tile goes through one _box_muller call, whose
    buffers are allocated once per chunk and whose last product is written
    transposed into the tile's columns of the chunk. Transposing tile by
    tile keeps the copy in cache (a transpose of the whole chunk would cost
    more than the row layout saves), and the chunk's rows are padded by one
    cache line so that a power-of-two width does not put every row of a
    tile's column strip in the same cache sets.
    ``increments`` (explicit normals, one per step, for a single trajectory)
    is sliced in the same chunks in place of the streams.

    Every chunk is drawn into one buffer, so noise memory is one chunk
    however many chunks a run takes: a yielded chunk is valid only until
    the next one is drawn, and a caller that keeps chunks must copy them.
    A chunk holds at most NOISE_VALUES normals (32 MB) plus one cache line a
    row, at any width; each stream costs one seek per chunk.
    """
    width = hi - lo
    steps = _chunk_steps(width)
    if increments is not None:
        for c in range(0, n_steps, steps):
            yield increments[c:c + steps, None]
        return
    cursor = _PhiloxCursor(seed)
    buffer = np.empty((min(steps, n_steps), width + 8))[:, :width]
    for c in range(0, n_steps, steps):
        clen = min(steps, n_steps - c)
        z = buffer[:clen]
        _fill_normals(cursor, lo, c, z.T)
        yield z


def _fill_normals(cursor, lo, start, z):
    """Write normals start .. start+steps-1 of streams lo, lo+1, ... into z.

    z is any (streams, steps) view. Streams go a tile of at most NOISE_TILE
    uniforms at a time (at least one stream): each stream is sought to
    uniform 2 * start of stream (seed, i) and fills its row of the tile, and
    the tile goes through one _box_muller call, whose product is written
    straight into the tile's rows of z. The tile and the Box-Muller buffers
    are allocated once per call.
    """
    width, steps = z.shape
    rows = min(width, max(1, NOISE_TILE // (2 * steps)))
    u = np.empty((rows, 2 * steps))
    work = np.empty((2, rows, steps))
    for r in range(0, width, rows):
        m = min(rows, width - r)
        for i, row in enumerate(u[:m], lo + r):
            cursor.seek(i, 2 * start).random(out=row)
        _box_muller(u[:m], z[r:r + m], work[:, :m])


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

_TWO, _QUARTER, _ZERO = np.array(2.0), np.array(0.25), np.array(0.0)


class _StepWorkspace:
    """The constants and scratch arrays of _midpoint_step for one block.

    The step's scalars are held as 0-d float64 arrays: a ufunc converts a
    Python scalar on every call, which at narrow widths costs more than the
    arithmetic, and a 0-d array of the same dtype selects the same loop, so
    the bits do not change.
    """

    def __init__(self, width, a, gamma_perp, delta, omega0, dt):
        k = 2.0 + dt * gamma_perp
        w = omega0 * dt
        self.scale = np.array(math.sqrt(delta * dt))
        denom = 2.0 + dt * a + w * w / k
        self.lead = np.array(2.0 / denom)
        self.decay = np.array(dt * a / denom)
        self.drive = np.array(4.0 * w / k / denom)
        self.keep = np.array((2.0 - dt * gamma_perp) / k)
        self.kick = np.array(w / k)
        self.dphi, self.half, self.n_m = (np.empty(width) for _ in range(3))
        self.r, self.ur = (np.empty(width, dtype=complex) for _ in range(2))


def _midpoint_step(n, u, phi, z, ws):
    """One closed-form implicit-midpoint step of every trajectory, in place.

    Advances (n, u, phi) with u = sigma*e^{i phi}, the coherence in the frame
    of the field phase, by the step of the module docstring for the rates
    that ``ws`` (a _StepWorkspace of their width) was built with. Every
    intermediate goes through ``ws``, so a step allocates nothing. Purely
    elementwise, so each trajectory's arithmetic is independent of its
    neighbours in the block.

    r = e^{i dphi/2} comes from t = tan(0.25*dphi + 0.0) by the half-angle
    identity, written into r's real and imaginary parts with ``half`` as
    the tan's scratch; a zero increment of either sign gives r = (1, +0)
    (see the module docstring). Every other operation is the ufunc, operand
    order and dtype of the folded expressions of the module docstring, only
    with ``out=``.
    """
    dphi, half, n_m, r, ur = ws.dphi, ws.half, ws.n_m, ws.r, ws.ur
    np.multiply(ws.scale, z, out=dphi)
    np.multiply(_QUARTER, dphi, out=half)
    np.add(half, _ZERO, out=half)
    _phasor(half, r.real, r.imag)
    np.multiply(u, r, out=ur)
    # n_m = (2/D)*n - dt*a/D + (4w/(k*D))*Im(ur)
    np.multiply(ws.lead, n, out=n_m)
    np.subtract(n_m, ws.decay, out=n_m)
    np.multiply(ws.drive, ur.imag, out=half)
    np.add(n_m, half, out=n_m)
    # 2v - ur = ((2 - dt*gamma_perp)/k)*ur - i*(w/k)*n_m, formed in ur
    np.multiply(ws.keep, ur, out=ur)
    np.multiply(ws.kick, n_m, out=half)
    np.subtract(ur.imag, half, out=ur.imag)
    # n1 = 2n_m - n, u1 = (2v - ur)*r, phi1 = phi + dphi
    np.multiply(_TWO, n_m, out=half)
    np.subtract(half, n, out=n)
    np.multiply(ur, r, out=u)
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


def _column_moments(values: np.ndarray, alone: bool):
    """_block_moments of a column block, bit for bit as the whole array's columns.

    ``alone`` says the whole array has this one column; otherwise a lone
    column is reduced beside a copy of itself (see the module docstring).
    """
    if values.shape[1] > 1 or alone:
        return _block_moments(values)
    count, mean, m2 = _block_moments(np.repeat(values, 2, axis=1))
    return count, mean[:1], m2[:1]


def _var_stderr(count, m2):
    var = m2 / (count - 1) if count > 1 else np.zeros_like(m2)
    return var, np.sqrt(var / count)


# ----------------------------------------------------------------------
# block integration: one stepping generator, one block job per caller

def _check_count(value, name: str = "n_traj") -> None:
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _buffer_rows(width: int) -> int:
    """Steps a block buffers between reductions: 2**16 values, 1 to 64 rows."""
    return min(64, max(1, (1 << 16) // width))


def _chunk_steps(width: int) -> int:
    """Steps a block draws per noise chunk: NOISE_VALUES normals, 1 to NOISE_CHUNK steps."""
    return min(NOISE_CHUNK, max(1, NOISE_VALUES // width))


def _reduce_columns(width: int) -> int:
    """Columns a block reduces at a time: 2**17 values, at least 1 column."""
    return max(1, (1 << 17) // width)


def _states(params, seed, lo, hi, n_steps, dt, n0=-1.0, sigma0=0j, phi0=0.0,
            increments=None):
    """Yield (k, n, u, phi) of trajectories [lo, hi) after each step k = 0 .. n_steps.

    The arrays are updated in place. The Bloch-sphere check runs once per
    noise chunk, when the step after the chunk's last is asked for, so a
    consumer must run the generator to its end.
    """
    width = hi - lo
    n = np.full(width, float(n0))
    u = np.full(width, complex(sigma0) * np.exp(1j * float(phi0)))
    phi = np.full(width, float(phi0))
    ws = _StepWorkspace(width, params.a, params.gamma_perp, params.delta,
                        params.omega0, dt)
    yield 0, n, u, phi
    step = 0
    for z in _normals(seed, lo, hi, n_steps, increments):
        for z_step in z:
            step += 1
            _midpoint_step(n, u, phi, z_step, ws)
            yield step, n, u, phi
        # sanity bounds once per chunk; the comparison is written so NaN fails it
        max_n = float(np.max(np.abs(n)))
        max_s = float(np.max(np.abs(u)))      # |u| = |sigma|
        if not (max_n <= 1.0 + 10.0 * dt and max_s <= 0.5 + 10.0 * dt):
            raise IntegratorError(
                f"trajectory left the Bloch sphere by step {step} "
                f"(max|n|={max_n:.6g}, max|sigma|={max_s:.6g}); reduce dt"
            )


def _moment_block(params, seed, n_steps, dt, state, prefixes, lo, hi):
    """run_ensemble's block job: per-step sums over trajectories [lo, hi), final n.

    ``state`` is (n0, sigma0, phi0). Returns {m: ((m, mean, m2) of n, sum of
    u)} over the leading m columns, for m = hi - lo and for each m - lo of
    the ``prefixes`` that cut the block (see the module docstring).
    """
    width = hi - lo
    rows = _buffer_rows(width)
    n_buf = np.empty((rows, width))
    u_buf = np.empty((rows, width), dtype=complex)
    cuts = [m - lo for m in prefixes if lo < m < hi]
    sums = {m: ((m, np.empty(n_steps + 1), np.empty(n_steps + 1)),
                np.empty(n_steps + 1, dtype=complex)) for m in {*cuts, width}}
    for k, n, u, _ in _states(params, seed, lo, hi, n_steps, dt, *state):
        # buffer row k % rows holds step k; a full buffer (or the last step)
        # is reduced row-wise into the steps it holds
        row = k % rows
        n_buf[row] = n
        u_buf[row] = u
        if row == rows - 1 or k == n_steps:
            span = slice(k - row, k + 1)
            for m, ((_, mean, m2), coh) in sums.items():
                _, mean[span], m2[span] = _block_moments(n_buf[:row + 1, :m],
                                                         axis=1)
                coh[span] = u_buf[:row + 1, :m].sum(axis=1)
    return sums, n


def _snapshot_block(params, seed, n_steps, dt, state, lo, hi):
    """run_trajectory's block job: (n, u, phi) of [lo, hi) at every step, a column each.

    ``state`` is (n0, sigma0, phi0, increments).
    """
    snaps = tuple(np.empty((hi - lo, n_steps + 1), dtype=dtype)
                  for dtype in (float, complex, float))
    for k, *values in _states(params, seed, lo, hi, n_steps, dt, *state):
        for snap, value in zip(snaps, values):
            snap[:, k] = value
    return snaps


def _decorrelation_block(params, seed, n_steps, dt, snap_steps, lo, hi):
    """decorrelation_residual's block job: (count, mean, m2) of K, C and n at each t'.

    ``snap_steps`` are the t' steps and then step t. The block keeps n and
    phi at those steps only (16 B per trajectory and step), and reduces
    them a bounded column block at a time once phi(t) is known, so only
    running blocks hold snapshots.
    """
    width = hi - lo
    snap_n = np.empty((width, len(snap_steps)))
    snap_phi = np.empty((width, len(snap_steps)))
    # a cursor over the non-decreasing steps: column j is due at step `due`
    pending = enumerate(snap_steps)
    j, due = next(pending)
    for k, n, _, phi in _states(params, seed, lo, hi, n_steps, dt):
        while k == due:
            snap_n[:, j] = n
            snap_phi[:, j] = phi
            j, due = next(pending, (None, None))
    points = len(snap_steps) - 1
    moments = np.empty((3, 2, points))       # K, C, n: mean and m2
    cols = _reduce_columns(width)
    for j in range(0, points, cols):
        span = slice(j, min(j + cols, points))
        n = snap_n[:, span]
        # Re e^{-i(phi(t) - phi(t'))}, from the half angle of the difference
        cos = np.subtract(snap_phi[:, span], snap_phi[:, -1:])
        np.multiply(cos, 0.5, out=cos)
        _phasor(cos, cos)
        for (mean, m2), values in zip(moments, (cos * n, cos, n)):
            _, mean[span], m2[span] = _column_moments(values, points == 1)
        del cos             # freed before the next column block's
    return tuple((width, mean, m2) for mean, m2 in moments)


def _run_blocks(params, lo, hi, dt, job, *, width, n0=-1.0, sigma0=0j,
                phi0=0.0, threads=1):
    """``job(s, e)`` of each block [s, e) of [lo, hi), in block order.

    Blocks hold ``width`` trajectories, the last one the rest.

    Every argument is checked (the initial state must be finite with
    |n0| <= 1 and |sigma0| <= 1/2), and the step guard runs, before any job.
    When min(threads, blocks) > 1 the blocks run on that many worker
    processes, forked for this call and shut down before it returns: ``job``
    must then pickle (a functools.partial of a module-level block job), it
    sees the module as it was at the fork, and its exceptions reach the
    caller with their type and message. Otherwise, or where fork is not
    available, the blocks run here one after another.
    """
    _check_count(hi - lo)
    _check_count(threads, "threads")
    _check_initial_state(n0=n0, sigma0=sigma0, phi0=phi0)
    _check_step(params, dt)
    starts = range(lo, hi, width)
    ends = [min(s + width, hi) for s in starts]
    workers = min(threads, len(starts))
    if workers > 1:
        # imported here: import blochrate and one-worker runs do not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                return list(pool.map(job, starts, ends))   # collected in block order
    return list(map(job, starts, ends))


def _ensemble_trace(blocks, size, t, final_n) -> EnsembleTrace:
    """Statistics of trajectories [0, size) from run_ensemble's block sums.

    Each block before ``size`` gives its full reduction and the block that
    ``size`` cuts gives its prefix, merged in the order a separate run of
    ``size`` trajectories merges its blocks; the trace keeps the first
    ``size`` of every trajectory's final n.
    """
    parts = [sums[min(size - lo, BLOCK_TRAJ)]
             for lo, sums in zip(range(0, size, BLOCK_TRAJ), blocks)]
    count, mean, m2 = _tree_merge([moments for moments, _ in parts])
    if not np.all(np.isfinite(mean)):
        raise IntegratorError("ensemble mean is not finite")
    var, stderr = _var_stderr(count, m2)
    coherence = np.zeros(len(t), dtype=complex)
    for _, coh in parts:           # fixed block order
        coherence += coh
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
    t_end, dt, seed) give the same trace bit for bit, for any ``threads``,
    the most worker processes the trajectory blocks run on (_run_blocks).
    ``prefixes`` (sizes in [1, n_traj)) adds ``prefix_traces``: the traces
    of trajectories [0, m) for each size m, bit-identical to separate runs
    of m trajectories, from this one run.
    """
    t = time_grid(t_end, dt, positive=True)
    n_steps = len(t) - 1
    _check_count(n_traj)          # before the prefixes a bad count puts out of range
    for size in prefixes:
        if not isinstance(size, numbers.Integral) or not 1 <= size < n_traj:
            raise ValueError(f"prefix sizes must be integers in [1, n_traj), "
                             f"got {size!r}")

    job = partial(_moment_block, params, seed, n_steps, dt, (n0, sigma0, phi0),
                  tuple(prefixes))
    sums, finals = zip(*_run_blocks(params, 0, n_traj, dt, job, width=BLOCK_TRAJ,
                                    n0=n0, sigma0=sigma0, phi0=phi0,
                                    threads=threads))
    final_n = np.concatenate(finals)
    trace = _ensemble_trace(sums, n_traj, t, final_n)
    trace.prefix_traces = tuple(_ensemble_trace(sums, m, t, final_n)
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

    job = partial(_snapshot_block, params, seed, n_steps, dt,
                  (n0, sigma0, phi0, increments))
    ((n, u, phi),) = _run_blocks(params, index, index + 1, dt, job, width=1,
                                 n0=n0, sigma0=sigma0, phi0=phi0)
    turn = np.empty(len(t), dtype=complex)          # e^{-i phi}
    _phasor(np.multiply(phi[0], -0.5), turn.real, turn.imag)
    return TrajectoryTrace(t=t, n=n[0], sigma=np.multiply(u[0], turn, out=turn),
                           phi=phi[0])


# ----------------------------------------------------------------------
# phase-only helpers (the phase decouples from (n, sigma))

def _check_phase_args(delta: float, n_traj: int) -> None:
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be finite and >= 0, got {delta!r}")
    _check_count(n_traj)


def simulate_phases(delta: float, n_traj: int, t_end: float, dt: float,
                    seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Wiener phase paths phi(t) for ``n_traj`` trajectories, shape (N, steps+1).

    Uses the same streams as run_ensemble, so row i is bit for bit the phi
    of run_trajectory(index=i), the phases the full simulation would see.
    Paths go a tile at a time, and _fill_normals draws each span of at most
    NOISE_TILE // 2 steps of a tile's paths straight into their rows of phi,
    so a tile and a span fill one noise tile of uniforms (8 paths of 4000
    steps at once); the rows are then scaled by sqrt(delta*dt) and summed in
    place. Each step is the engine's phi + sqrt(delta*dt)*z in the same
    order, and the normals do not depend on how streams and steps are cut,
    so no cut changes a bit. Beyond phi, memory is one tile's uniforms and
    Box-Muller buffers.
    """
    _check_phase_args(delta, n_traj)
    t = time_grid(t_end, dt)
    n_steps = len(t) - 1
    phi = np.empty((n_traj, len(t)))
    phi[:, 0] = 0.0
    span = max(1, min(n_steps, NOISE_TILE // 2))
    rows = max(1, NOISE_TILE // (2 * span))
    cursor = _PhiloxCursor(seed)
    for lo in range(0, n_traj, rows):
        paths = phi[lo:lo + rows, 1:]
        for c in range(0, n_steps, span):
            _fill_normals(cursor, lo, c, paths[:, c:c + span])
        np.multiply(math.sqrt(delta * dt), paths, out=paths)
        np.cumsum(paths, axis=1, out=paths)
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
    The expected value is exp(-delta*|tau|/2). As in simulate_phases the
    phases are stream-major: one cursor serves the call, and a block fills
    spans of _chunk_steps(width) lags (at most NOISE_VALUES normals) into
    one reused (trajectories, lags) buffer, scales and sums each row in
    place, carrying the last phase across spans, and reduces each span a
    bounded column block at a time, so memory does not grow with the
    number of lags; a column block's cos and sin come from one tan of its
    half phases (spectrum._phasor).
    """
    _check_phase_args(delta, n_traj)
    tau = np.asarray(tau_grid, dtype=float)
    _check_lags(tau, "tau_grid")

    scale = np.sqrt(delta * np.diff(np.concatenate([[0.0], tau])))
    cursor = _PhiloxCursor(seed)
    parts = []
    for lo in range(0, n_traj, BLOCK_TRAJ):
        hi = min(lo + BLOCK_TRAJ, n_traj)
        steps = _chunk_steps(hi - lo)
        buffer = np.empty((hi - lo, min(steps, len(tau))))
        moments = np.empty((2, 2, len(tau)))    # cos, sin: mean and m2
        cols = _reduce_columns(hi - lo)
        for c in range(0, len(tau), steps):
            phases = buffer[:, :min(steps, len(tau) - c)]
            _fill_normals(cursor, lo, c, phases)
            np.multiply(scale[c:c + steps], phases, out=phases)
            if c:
                phases[:, 0] += last
            np.cumsum(phases, axis=1, out=phases)
            last = phases[:, -1].copy()     # the next span overwrites it
            for j in range(0, phases.shape[1], cols):
                half = np.multiply(phases[:, j:j + cols], 0.5)
                span = slice(c + j, c + j + half.shape[1])
                cos = np.empty_like(half)
                _phasor(half, cos, half)        # half becomes the sine
                for (mean, m2), values in zip(moments, (cos, half)):
                    _, mean[span], m2[span] = _column_moments(values,
                                                              len(tau) == 1)
                del half, cos, values   # freed before the next column block's
        parts.append(tuple((hi - lo, mean, m2) for mean, m2 in moments))

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
    holds_3sigma is max|residual| <= 3*residual_stderr over the grid. The
    trajectory blocks run on at most ``threads`` worker processes
    (_run_blocks), and the result is bit-identical for any ``threads``. A
    running block keeps n and phi at every t' (16 B per trajectory and t'),
    and holds fewer than BLOCK_TRAJ trajectories where that would pass
    SNAPSHOT_VALUES snapshots (64 MB).
    """
    t_prime = np.asarray(t_prime_grid, dtype=float)
    _check_lags(t_prime, "t_prime_grid")
    if t < t_prime[-1]:
        raise ValueError("observation time t must be >= max(t_prime_grid)")

    n_steps = grid_steps(t, dt, "t")
    # the t' steps, then step t itself, whose phase column is the final phase
    snap_steps = [grid_steps(tp, dt, "t_prime") for tp in t_prime] + [n_steps]

    # a running block keeps n and phi at every snapshot step, 16 B each: a
    # block narrower than BLOCK_TRAJ keeps at most SNAPSHOT_VALUES (64 MB).
    # The width follows from the job alone, so the merge order, and with it
    # every bit of the result, does not depend on ``threads``
    width = min(BLOCK_TRAJ, max(1, SNAPSHOT_VALUES // len(snap_steps)))
    job = partial(_decorrelation_block, params, seed, n_steps, dt, snap_steps)
    k_parts, c_parts, n_parts = zip(*_run_blocks(params, 0, n_traj, dt, job,
                                                 width=width, threads=threads))
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
