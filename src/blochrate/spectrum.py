"""Spectral density models of the driving light and their transforms.

Atomic rates feel the light only through the product B*W(omega) (Einstein B
coefficient times spectral energy density), which has units of 1/time. All
functions here therefore work with that product: a model's ``peak`` value is
B*W at the line center, and a caller holding a physical B divides by it.

Simulation units put the atomic transition at omega21 = 0, so frequencies are
offsets from the transition, and a detuned line is a spectrum whose
``center`` is not 0.

Two model families are supported: an analytic Lorentzian (the spectrum of
phase-diffused light) and a tabulated spectrum read from two-column text.
The module also provides both directions of the autocorrelation transform
pair

    I(tau)  = (1/pi) * Int W(omega) cos(omega tau) domega
    W(omega) = Int_0^inf I(tau) cos(omega tau) dtau

and a Wiener-Khintchine estimator that recovers B*W from simulated field
phase trajectories.

The estimator forms e^{i phi} of every phase sample from one vectorised tan
by the half-angle identity (_phasor), not from libm cos and sin, which numpy
runs one value at a time: at criterion 6's size (4096 paths of 4001 steps)
those took 0.32 s of the estimate's 0.57 s, and the half-angle form takes
0.12 s of 0.36 s. Its values are within 3.5e-16 of a long-double cos and
sin (libm's: 5.6e-17). fieldsim shares the helper at every stochastic trig
site: Box-Muller's cosine, the step kernel's e^{i dphi/2} and the phase
helpers' e^{i phi}. The deterministic transforms keep libm cos and sin:
autocorrelation_kernel and _trapezoid_transform are pinned bit for bit and
spend little of their time in trig (the WK transform of criterion 6 takes
about 15 ms in all).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.fft import fft, rfft

from .params import _check_lags

__all__ = [
    "LorentzianSpectrum", "TabulatedSpectrum", "SpectrumModel",
    "SpectrumSupportError", "from_phase_diffusion", "load_tabulated",
    "spectral_density",
    "autocorrelation_kernel", "spectrum_from_kernel",
    "spectrum_from_autocorrelation", "wk_estimate", "WkEstimate", "fwhm_of",
]


# element budget of one tau chunk in autocorrelation_kernel (2 MB per float array)
_KERNEL_CHUNK = 1 << 18

# the half-angle phasor's constants, as 0-d arrays: a ufunc converts a Python
# scalar on every call, which costs more than the arithmetic at narrow widths
_ONE, _TWO = np.array(1.0), np.array(2.0)


class SpectrumSupportError(ValueError):
    """A tabulated spectrum's grid cannot support the requested operation."""


@dataclass(frozen=True)
class LorentzianSpectrum:
    """Lorentzian line: W(omega) = peak * (fwhm/2)^2 / ((omega-center)^2 + (fwhm/2)^2)."""

    peak: float
    fwhm: float
    center: float = 0.0

    def __post_init__(self):
        if not (self.peak > 0 and math.isfinite(self.peak)):
            raise ValueError("peak must be positive and finite")
        if not (self.fwhm > 0 and math.isfinite(self.fwhm)):
            raise ValueError("fwhm must be positive and finite")
        half = 0.5 * float(self.fwhm)
        if half * half < np.finfo(float).tiny:
            # spectral_density's (fwhm/2)**2 would underflow: 0/0 at the centre
            raise ValueError(f"fwhm={self.fwhm!r} too small: (fwhm/2)**2 underflows")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")


@dataclass(frozen=True)
class TabulatedSpectrum:
    """Sampled spectrum, linearly interpolated, zero outside the table."""

    omega: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if omega.ndim != 1 or omega.shape != values.shape or len(omega) < 2:
            raise ValueError("omega and values must be equal-length 1-d arrays (>= 2 points)")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if np.any(~np.isfinite(omega)) or np.any(~np.isfinite(values)):
            raise ValueError("table entries must be finite")
        if np.any(values < 0):
            raise ValueError("spectral density must be non-negative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "values", values)


SpectrumModel = LorentzianSpectrum | TabulatedSpectrum


def from_phase_diffusion(omega0: float, delta: float) -> LorentzianSpectrum:
    """Spectrum of a phase-diffusing field of Rabi frequency omega0.

    Phase diffusion at rate delta gives a Lorentzian of FWHM delta on the
    atomic line with peak W(0) = omega0**2 / delta; a line detuned by D is
    ``LorentzianSpectrum(omega0**2 / delta, delta, center=D)``.
    """
    if delta <= 0:
        raise ValueError("phase diffusion spectrum requires delta > 0")
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    return LorentzianSpectrum(peak=omega0 ** 2 / delta, fwhm=delta)


def load_tabulated(path) -> TabulatedSpectrum:
    """Read a two-column (omega, W) text table; '#' starts a comment."""
    with warnings.catch_warnings():     # a file with no rows is refused below
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        data = np.loadtxt(path, comments="#", ndmin=2)
    if len(data) == 0:
        raise ValueError(f"{path}: no rows of (omega, W)")
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (omega, W), got {data.shape[1]}")
    return TabulatedSpectrum(omega=data[:, 0], values=data[:, 1])


def spectral_density(s: SpectrumModel, omega):
    """W(omega); vectorized. Tabulated models interpolate linearly, zero outside."""
    omega = np.asarray(omega, dtype=float)
    if isinstance(s, LorentzianSpectrum):
        hw2 = (0.5 * s.fwhm) ** 2
        out = s.peak * hw2 / ((omega - s.center) ** 2 + hw2)
    else:
        out = np.interp(omega, s.omega, s.values, left=0.0, right=0.0)
    return float(out) if out.ndim == 0 else out


def fwhm_of(x, y) -> float:
    """Full width at half maximum of a sampled peak, by linear interpolation.

    Returns nan when either half-maximum crossing is missing.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = int(np.argmax(y))
    half = y[k] / 2.0
    left = right = math.nan
    for i in range(k, 0, -1):
        if y[i - 1] <= half <= y[i]:
            frac = (half - y[i - 1]) / (y[i] - y[i - 1])
            left = x[i - 1] + frac * (x[i] - x[i - 1])
            break
    for i in range(k, len(y) - 1):
        if y[i] >= half >= y[i + 1]:
            frac = (y[i] - half) / (y[i] - y[i + 1])
            right = x[i] + frac * (x[i + 1] - x[i])
            break
    return right - left


# ----------------------------------------------------------------------
# autocorrelation transform pair

def autocorrelation_kernel(s: SpectrumModel, tau):
    """Field autocorrelation kernel I(tau) = (1/pi) Int W cos(w tau) dw.

    Lorentzians use the closed form
    (fwhm*peak/2) * exp(-fwhm*|tau|/2) * cos(center tau); tabulated spectra
    integrate the linear interpolant exactly, which keeps the result accurate
    for tau out to many coherence times. With nodes s_0..s_N, values w_j and
    interval slopes slope_j, that integral is

        pi*I(tau) = [w_N sin(s_N tau) - w_0 sin(s_0 tau)] / tau
                    + Sum_j slope_j [cos(s_{j+1} tau) - cos(s_j tau)] / tau**2

    (the sin terms of interior nodes cancel). The per-interval cosine
    differences are kept: summing the slope jumps against one cosine per node
    instead cancels to O(tau**2), and on a 1201-node table it was about 30
    times less accurate at tau = 1e-3 and 1e-4. Below tau*max|s| = 1e-4 the
    closed form loses digits to cancellation, and trapezoid quadrature of
    W*cos, already exact to ~1e-9 there, is used.

    The table must decay at its edges, otherwise the truncated tail mass would
    poison the kernel and a SpectrumSupportError is raised. Tabulated tau
    values are evaluated in chunks of about _KERNEL_CHUNK (lag, node) pairs,
    and a chunk's rows in blocks of a quarter of that, so what is held at a
    time is fixed whatever the length of tau (and so of a solver's t_end):
    on the lag grid, one chunk of phasors e^{i s k tau[1]} (4 MB of complex)
    and two block buffers, one for the phasor products (or, off the grid,
    the cosines) and one for the slope-weighted cosine differences. On a
    1201-node table over 10 001 lags the tracemalloc peak is 6.0 MB; with
    whole-chunk temporaries for those products and differences it was
    14.9 MB.

    On the lag grid a solver passes, tau exactly np.arange(n) * tau[1] with
    tau[1] > 0, the phasors e^{i s tau} of a chunk starting at t_lo are the
    chunk-independent e^{i s k tau[1]} times one row e^{i s t_lo}, so a chunk
    costs one complex product instead of a cos per (lag, node). On a
    1201-node Lorentzian table (kernel peak 5.5) the result differs from
    evaluating each lag on its own by at most 1.3e-15 at tau[1] = 1e-3 and
    1.5e-14 at 1e-4. Any other tau is evaluated lag by lag, and each value is
    then bit for bit what a scalar call returns. Both paths round alike
    otherwise: on that table they are within 1.5e-12 of a long-double
    evaluation of the same integral for tau >= 1e-3, an error that grows as
    tau**-2 towards the switch-over to quadrature (4e-11 at tau = 1e-4).
    """
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)
    if not np.all(np.isfinite(tau)):
        raise ValueError("tau must be finite")

    if isinstance(s, LorentzianSpectrum):
        # formed in place, with the factors of
        # 0.5*fwhm*peak * exp(-0.5*fwhm*|tau|) * cos(center*tau)
        out = np.abs(tau)
        out *= -0.5 * s.fwhm
        np.exp(out, out=out)
        out *= 0.5 * s.fwhm * s.peak
        phase = np.multiply(s.center, tau)
        out *= np.cos(phase, out=phase)
        return float(out[0]) if scalar else out

    peak = float(np.max(s.values))
    edge = max(s.values[0], s.values[-1])
    if peak <= 0:
        raise ValueError("spectrum is identically zero")
    if edge > 1e-8 * peak:
        raise SpectrumSupportError(
            "tabulated spectrum does not decay at its edges "
            f"(edge/peak = {edge / peak:.2e}); extend the table before "
            "transforming it"
        )

    sgrid = s.omega
    w = s.values
    slope = np.diff(w) / np.diff(sgrid)
    flat = tau.reshape(-1)
    out = np.empty_like(flat)

    smax = float(np.max(np.abs(sgrid))) or 1.0
    small = np.abs(flat) * smax < 1e-4
    # tau rows go in chunks of about _KERNEL_CHUNK elements, and a chunk's
    # closed-form rows in blocks of a quarter of that, whose two buffers
    # (about 1.5 MB) stay in a core's L2 cache; each row is reduced on its
    # own, so neither cut changes a bit of the result
    nodes = len(sgrid)
    rows = max(1, _KERNEL_CHUNK // nodes)
    block = max(1, rows // 4)
    h = flat[1] if len(flat) > 1 else 0.0
    on_grid = h > 0 and np.array_equal(flat, np.arange(len(flat)) * h)
    if on_grid:
        # e^{i s k h} for the first chunk's rows, built in place: cexp(0 + ix)
        # is (cos x, sin x) bit for bit
        base = np.empty((min(rows, len(flat)), nodes), dtype=complex)
        np.multiply.outer(flat[:len(base)], sgrid, out=base.real)
        np.sin(base.real, out=base.imag)
        np.cos(base.real, out=base.real)
    # a block's phasors (grid) or cosines (off the grid), and its slope-weighted
    # cosine differences
    buf = np.empty((block, nodes), dtype=complex if on_grid else float)
    steps = np.empty((block, nodes - 1))
    for lo in range(0, len(flat), rows):
        part = slice(lo, lo + rows)
        chunk, sm, dest = flat[part], small[part], out[part]
        keep = slice(None)
        if np.any(sm):
            ts = chunk[sm][:, None]
            dest[sm] = np.trapezoid(w * np.cos(sgrid * ts), sgrid, axis=1) / math.pi
            # tau rises from 0 on the grid, so there the small rows lead
            keep = slice(len(ts), None) if on_grid else ~sm
        tb = chunk[keep]
        sums = np.empty(len(tb))       # per row: Sum_j slope_j * cosine difference
        if on_grid:
            lead, row = base[keep], np.exp(1j * chunk[0] * sgrid)
            sin = np.empty((len(tb), 2))
        else:
            sin = np.sin(np.multiply.outer(tb, sgrid[[0, -1]]))
        for j in range(0, len(tb), block):
            m = min(block, len(tb) - j)
            if on_grid:
                # e^{i s (t_lo + k h)} = e^{i s k h} * e^{i s t_lo}
                phasor = np.multiply(lead[j:j + m], row, out=buf[:m])
                cos = phasor.real
                sin[j:j + m, 0] = phasor.imag[:, 0]
                sin[j:j + m, 1] = phasor.imag[:, -1]
            else:
                cos = np.multiply.outer(tb[j:j + m], sgrid, out=buf[:m])
                np.cos(cos, out=cos)
            diff = np.subtract(cos[:, 1:], cos[:, :-1], out=steps[:m])
            diff *= slope
            diff.sum(axis=1, out=sums[j:j + m])
        # the docstring's edge sines plus slope-weighted cosine differences
        dest[keep] = ((w[-1] * sin[:, 1] - w[0] * sin[:, 0]) / tb
                      + sums / tb ** 2) / math.pi
    out = out.reshape(tau.shape)
    return float(out[0]) if scalar else out


def _check_frequencies(omega: np.ndarray, **scalars) -> None:
    # a non-finite frequency or scale turns every value of a transform into NaN
    if not np.all(np.isfinite(omega)):
        raise ValueError("omega grid must be finite")
    for name, value in scalars.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _trapezoid_transform(f, tau, x):
    """Trapezoid quadrature of Re(f(tau) e^{-i x tau}) over tau, for every x.

    f has tau along its last axis and may be complex; the result has x in
    place of tau. Each x takes one row of a cos (and, for complex f, sin)
    matrix, built in row chunks of about _KERNEL_CHUNK elements so the
    temporaries stay bounded whatever the grid sizes.

    The products are einsum's own loops, not a BLAS gemm: for the 16 x 1201
    by 1201 x 218 products of a WK estimate, threaded OpenBLAS on two cores
    took about 30 ms a chunk, at times, against 2 ms here.
    """
    d = np.diff(tau)
    w = np.zeros_like(tau)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    wc = f.real * w
    ws = f.imag * w if np.iscomplexobj(f) else None
    out = np.empty(f.shape[:-1] + x.shape)
    rows = max(1, _KERNEL_CHUNK // len(tau))
    for lo in range(0, len(x), rows):
        arg = np.multiply.outer(x[lo:lo + rows], tau)
        part = np.einsum("...t,xt->...x", wc, np.cos(arg))
        if ws is not None:
            part += np.einsum("...t,xt->...x", ws, np.sin(arg))
        out[..., lo:lo + rows] = part
    return out


def spectrum_from_kernel(kernel, tau, omega):
    """Inverse transform: W(omega) = Int_0^inf I(tau) cos(omega tau) dtau.

    Trapezoid quadrature over the supplied tau grid, which must start at 0 and
    extend far enough that the kernel has decayed. omega must be finite.
    """
    kernel = np.asarray(kernel, dtype=float)
    tau = np.asarray(tau, dtype=float)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    _check_lags(tau)
    _check_frequencies(omega)
    if tau[0] != 0.0:
        raise ValueError("tau grid must start at 0")
    if kernel.shape != tau.shape:
        raise ValueError("kernel and tau must have matching shapes")
    return _trapezoid_transform(kernel, tau, omega)


# ----------------------------------------------------------------------
# Wiener-Khintchine estimation from phase trajectories

@dataclass
class WkEstimate:
    """B*W(omega) recovered from simulated phases.

    ``values`` and ``stderr`` are batch means and batch standard errors over
    ``n_batches`` trajectory groups. ``truncation_estimate`` is the measured
    |autocorrelation| near the window end, a relative scale for the bias a
    too-short window introduces; ``bias_warning`` flags when it exceeds 1%.
    """

    omega: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    window: float
    n_batches: int
    truncation_estimate: float
    bias_warning: bool


def spectrum_from_autocorrelation(g, tau, omega_grid, omega0: float) -> np.ndarray:
    """Transform a (possibly complex) field autocorrelation into B*W.

    g(tau) is the normalized autocorrelation <e^{i[phi(t+tau)-phi(t)]}> on a
    non-negative, increasing tau grid; negative lags enter through the
    Hermitian symmetry g(-tau) = conj(g(tau)). omega_grid holds offsets from
    the transition. g may stack several autocorrelations along leading axes
    (tau along the last); the result then has omega in place of tau.
    omega_grid and omega0 must be finite.
    """
    g = np.asarray(g)
    tau = np.asarray(tau, dtype=float)
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    _check_lags(tau)
    _check_frequencies(omega_grid, omega0=omega0)
    if g.shape[-1:] != tau.shape:
        raise ValueError("g must have tau's length along its last axis")
    pref = omega0 ** 2 / 4.0
    return 2.0 * pref * _trapezoid_transform(g, tau, omega_grid)


def _next_fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n, a length pocketfft's radices cover."""
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def _phasor(t, cos, sin=None):
    """cos and sin of x from one tan of x/2, by the half-angle (Cayley) identity.

    ``t`` holds the half angle x/2 and is overwritten with tan(x/2); each
    caller folds the 1/2 into a multiply it already makes. With
    t = tan(x/2), e^{ix} = (1 + it)/(1 - it), so w = 2/(1 + t**2) gives
    cos x = w - 1 and sin x = t*w: one tan, which numpy vectorises, and four
    or five elementwise passes, written into ``cos`` and, when given,
    ``sin``. ``sin`` may be ``t`` itself, and so may ``cos`` when no
    ``sin`` is asked for. In wk_estimate's passes on the 2-core x86 host
    that is about 6.7 ns a value, against about 19 ns for numpy's cos and
    sin together, which run libm one value at a time (tan alone: about
    2 ns). Over the whole double range the values are within 3.5e-16 of a
    long-double cos and sin (libm's within 5.6e-17), tan stays finite, a
    zero half angle keeps its sign in sin, and a t whose square overflows
    gives (-1, +-0), within 1e-154 of the true value.
    """
    np.tan(t, out=t)
    np.square(t, out=cos)
    np.add(cos, _ONE, out=cos)
    np.divide(_TWO, cos, out=cos)
    if sin is not None:
        np.multiply(t, cos, out=sin)
    np.subtract(cos, _ONE, out=cos)


def _batch_autocorrelation(rows: np.ndarray, k_max: int) -> np.ndarray:
    """Mean lagged product g[k] = <s(t+k) conj(s(t))> of s = e^{i rows}, k <= k_max.

    Zero padding to any length >= n_t + k_max keeps lags 0..k_max free of
    wrap-around, so they are the exact linear correlations. The rows' power
    spectra are summed before a single inverse FFT.

    s comes from _phasor, the half-angle form of e^{i rows}, written
    straight into the FFT buffer's real and imaginary parts; its tan goes
    through one contiguous scratch sized to a pass, at most _KERNEL_CHUNK
    doubles (2 MB) unless one row is longer. Against libm's cos and sin the
    lagged means move by at most 3.4e-16 over lags averaged over half a row
    or more, and by up to 6.3e-14 at a lag averaged over a single sample,
    where the FFT's rounding of the whole power spectrum is not averaged
    down.

    Rows pass through one reused buffer of about _KERNEL_CHUNK complex
    elements, max(1, _KERNEL_CHUNK // L) rows at a time for FFT length L,
    so memory stays fixed for any number of rows. Row 0 of the buffer
    carries the running sums of re^2 (real part) and im^2 (imaginary part)
    into each pass's axis-0 sum, which therefore adds the rows in the order
    one axis-0 sum over all of them does: the result is bit for bit that of
    transforming every row at once.
    """
    n_rows, n_t = rows.shape
    size = _next_fast_len(n_t + k_max)
    per_pass = max(1, _KERNEL_CHUNK // size)
    buf = np.zeros((min(per_pass, n_rows) + 1, size), dtype=complex)
    half = np.empty((len(buf) - 1, n_t))     # tan(phi/2) of one pass
    for lo in range(0, n_rows, per_pass):
        chunk = rows[lo:lo + per_pass]
        s = buf[1:len(chunk) + 1]
        s[:, n_t:] = 0.0
        t = np.multiply(chunk, 0.5, out=half[:len(chunk)])
        _phasor(t, s.real[:, :n_t], s.imag[:, :n_t])
        fft(s, axis=1, out=s)
        np.square(s.real, out=s.real)
        np.square(s.imag, out=s.imag)
        done = buf[:len(chunk) + 1]
        buf.real[0] = done.real.sum(axis=0)
        buf.imag[0] = done.imag.sum(axis=0)
    power = buf.real[0] + buf.imag[0]
    counts = n_t - np.arange(k_max + 1)
    # the inverse FFT of a real sequence, as its forward real FFT conjugated
    inverse = np.conj(rfft(power, norm="forward")[:k_max + 1])
    return inverse / (n_rows * counts)


def wk_estimate(phi: np.ndarray, dt: float, omega0: float, omega_grid,
                max_lag: float | None = None) -> WkEstimate:
    """Estimate B*W(omega) from an array of phase trajectories.

    phi has shape (n_traj, n_steps+1), sampled every dt. The autocorrelation
    of e^{i phi} is time-averaged over each trajectory (FFT, rectangular lag
    window of ``max_lag``, default the full trajectory) and transformed lag-
    to-frequency by trapezoid quadrature. Trajectories are split into
    min(16, n_traj) groups whose independent estimates give the standard
    error. omega_grid and omega0 must be finite; every input is checked
    before any transform runs.

    Each batch forms e^{i phi} only for its own rows, zero-padded to the
    next 11-smooth length >= n_steps+1 + lags, which is enough for the lags
    the window keeps to be exact linear (not circular) correlations; its
    power spectra are summed before one inverse FFT (numpy.fft: the package
    depends on numpy alone). Rows go through one reused buffer a
    few at a time, so beyond phi itself memory is fixed whatever n_traj:
    that buffer, about _KERNEL_CHUNK complex elements (4 MB) or two padded
    rows if one row is longer, the tan scratch of one pass (at most 2 MB,
    or a row), and the batches' autocorrelations. e^{i phi} is formed from
    tan(phi/2) (_phasor), within 3.5e-16 of libm's cos and sin and about
    a third of their cost; at criterion 6's size the estimate moves by at
    most 4.4e-16 on a peak of 2.

    The window must cover many coherence times or the transform is biased;
    ``truncation_estimate`` reports the batch-pooled autocorrelation
    magnitude near the window end as a relative scale for that bias.
    Pooling the complex values before taking the modulus keeps the noise
    floor of the diagnostic well below the 1% warning threshold for any
    adequately decayed window.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2 or phi.shape[0] < 2 or phi.shape[1] < 2:
        raise ValueError("phi must be (n_traj >= 2, n_steps+1 >= 2)")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    # min and max propagate NaN and expose +-inf without a full-size mask
    if not (math.isfinite(phi.min()) and math.isfinite(phi.max())):
        raise ValueError("phi must be finite")
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    _check_frequencies(omega_grid, omega0=omega0)
    n_traj, n_t = phi.shape
    n_batches = min(16, n_traj)
    if max_lag is None:
        k_max = n_t - 1
    else:
        if not math.isfinite(max_lag):
            raise ValueError(f"max_lag must be finite, got {max_lag!r}")
        k_max = min(n_t - 1, int(round(max_lag / dt)))
        if k_max < 1:
            raise ValueError("max_lag shorter than one sample")
    tau = np.arange(k_max + 1) * dt

    g = np.empty((n_batches, k_max + 1), dtype=complex)
    for j, rows in enumerate(np.array_split(phi, n_batches, axis=0)):
        g[j] = _batch_autocorrelation(rows, k_max)

    batch_vals = spectrum_from_autocorrelation(g, tau, omega_grid, omega0)
    values = batch_vals.mean(axis=0)
    stderr = batch_vals.std(axis=0, ddof=1) / math.sqrt(n_batches)
    tail = g[:, -max(1, (k_max + 1) // 20):].mean(axis=1)
    trunc = float(abs(np.mean(tail)))
    return WkEstimate(omega=omega_grid, values=values, stderr=stderr,
                      window=tau[-1], n_batches=n_batches,
                      truncation_estimate=trunc,
                      bias_warning=trunc > 0.01)
