"""Spectral density models of the driving light and their transforms.

Atomic rates feel the light only through the product B*W(omega) (Einstein B
coefficient times spectral energy density), which has units of 1/time. All
functions here therefore work with that product: a model's ``peak`` value is
B*W at the line center when the ``b`` arguments are left at 1.0, and callers
holding a physical B in SI units can pass it to convert.

Simulation units put the atomic transition at omega21 = 0, so frequency
arguments are offsets from the transition unless stated otherwise.

Two model families are supported: an analytic Lorentzian (the spectrum of
phase-diffused light) and a tabulated spectrum read from two-column text.
The module also provides both directions of the autocorrelation transform
pair

    I(tau)  = (1/pi) * Int W(omega) cos((omega - omega21) tau) domega
    W(omega) = Int_0^inf I(tau) cos((omega - omega21) tau) dtau

and a Wiener-Khintchine estimator that recovers B*W from simulated field
phase trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.integrate import trapezoid

__all__ = [
    "LorentzianSpectrum", "TabulatedSpectrum", "SpectrumModel",
    "SpectrumSupportError", "from_phase_diffusion", "load_tabulated",
    "spectral_density", "width_hint",
    "autocorrelation_kernel", "spectrum_from_kernel",
    "spectrum_from_autocorrelation", "wk_estimate", "WkEstimate", "fwhm_of",
]


# element budget of one tau chunk in autocorrelation_kernel (2 MB per float array)
_KERNEL_CHUNK = 1 << 18


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
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")


@dataclass(frozen=True)
class TabulatedSpectrum:
    """Sampled spectrum, linearly interpolated, zero outside the table.

    ``center`` marks the nominal line position; it defaults to the grid point
    of maximum density.
    """

    omega: np.ndarray
    values: np.ndarray
    center: float = field(default=math.nan)

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
        if math.isnan(self.center):
            object.__setattr__(self, "center", float(omega[np.argmax(values)]))


SpectrumModel = LorentzianSpectrum | TabulatedSpectrum


def from_phase_diffusion(omega0: float, delta: float, b: float = 1.0,
                         center: float = 0.0) -> LorentzianSpectrum:
    """Spectrum of a phase-diffusing field of Rabi frequency omega0.

    Phase diffusion at rate delta gives a Lorentzian of FWHM delta whose peak
    satisfies b * W(center) = omega0**2 / delta.
    """
    if delta <= 0:
        raise ValueError("phase diffusion spectrum requires delta > 0")
    if omega0 <= 0:
        raise ValueError("omega0 must be positive")
    return LorentzianSpectrum(peak=omega0 ** 2 / (delta * b), fwhm=delta,
                              center=center)


def load_tabulated(path) -> TabulatedSpectrum:
    """Read a two-column (omega, W) text table; '#' starts a comment."""
    data = np.loadtxt(path, comments="#", ndmin=2)
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


def width_hint(s: SpectrumModel) -> float:
    """Characteristic half-width, used to place quadrature break points."""
    if isinstance(s, LorentzianSpectrum):
        return 0.5 * s.fwhm
    half = fwhm_of(s.omega, s.values)
    if math.isfinite(half) and half > 0:
        return 0.5 * half
    return 0.25 * (s.omega[-1] - s.omega[0])


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

def autocorrelation_kernel(s: SpectrumModel, tau, omega21: float = 0.0):
    """Field autocorrelation kernel I(tau) = (1/pi) Int W cos((w-omega21) tau) dw.

    Lorentzians use the closed form
    (fwhm*peak/2) * exp(-fwhm*|tau|/2) * cos((center-omega21) tau); tabulated
    spectra integrate the linear interpolant exactly on each table interval,
    which keeps the result accurate for tau out to many coherence times. The
    table must decay at its edges, otherwise the truncated tail mass would
    poison the kernel and a SpectrumSupportError is raised. Tabulated tau
    values are evaluated in chunks sized to the table, so the temporaries stay
    a few MB whatever the length of tau (and so of a solver's t_end).
    """
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    tau = np.atleast_1d(tau)

    if isinstance(s, LorentzianSpectrum):
        out = (0.5 * s.fwhm * s.peak
               * np.exp(-0.5 * s.fwhm * np.abs(tau))
               * np.cos((s.center - omega21) * tau))
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

    sgrid = s.omega - omega21
    w = s.values
    sa, sb = sgrid[:-1], sgrid[1:]
    wa = w[:-1]
    slope = (w[1:] - wa) / (sb - sa)
    flat = tau.reshape(-1)
    out = np.empty_like(flat)

    # Exact integral of the interpolant per interval; below tau*|s| ~ 1e-4 the
    # closed form loses digits to cancellation and plain trapezoid quadrature
    # of W*cos is already exact to ~1e-9, so switch over there.
    smax = float(np.max(np.abs(sgrid))) or 1.0
    small = np.abs(flat) * smax < 1e-4
    # tau rows go in chunks of about _KERNEL_CHUNK elements, so the
    # temporaries stay bounded for any tau length; each row is reduced on
    # its own, so chunking does not change a bit of the result
    rows = max(1, _KERNEL_CHUNK // len(sgrid))
    for lo in range(0, len(flat), rows):
        part = slice(lo, lo + rows)
        chunk, sm, dest = flat[part], small[part], out[part]
        if np.any(sm):
            ts = chunk[sm][:, None]
            dest[sm] = trapezoid(w * np.cos(sgrid * ts), sgrid, axis=1) / math.pi
        if not np.all(sm):
            tb = chunk[~sm][:, None]
            # neighbouring intervals share a node: one sin/cos per node
            arg = sgrid * tb
            sin, cos = np.sin(arg), np.cos(arg)
            sin_a, sin_b = sin[:, :-1], sin[:, 1:]
            # Int (wa + slope*(s-sa)) cos(s tau) ds over [sa, sb]
            term = ((wa - slope * sa) * (sin_b - sin_a) / tb
                    + slope * ((cos[:, 1:] - cos[:, :-1]) / tb ** 2
                               + (sb * sin_b - sa * sin_a) / tb))
            dest[~sm] = term.sum(axis=1) / math.pi
    out = out.reshape(tau.shape)
    return float(out[0]) if scalar else out


def _check_lags(tau: np.ndarray) -> None:
    # an unordered or non-finite grid would give trapezoid weights of any sign
    if tau.ndim != 1 or len(tau) == 0:
        raise ValueError("tau grid must be a non-empty 1-d array")
    if not (np.all(np.isfinite(tau)) and tau[0] >= 0.0 and np.all(np.diff(tau) > 0)):
        raise ValueError("tau grid must be finite, non-negative and increasing")


def _trapezoid_transform(f, tau, x):
    """Trapezoid quadrature of Re(f(tau) e^{-i x tau}) over tau, for every x.

    f has tau along its last axis and may be complex; the result has x in
    place of tau. Each x takes one row of a cos (and, for complex f, sin)
    matrix, built in row chunks of about _KERNEL_CHUNK elements so the
    temporaries stay bounded whatever the grid sizes.
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
        part = wc @ np.cos(arg).T
        if ws is not None:
            part += ws @ np.sin(arg).T
        out[..., lo:lo + rows] = part
    return out


def spectrum_from_kernel(kernel, tau, omega, omega21: float = 0.0):
    """Inverse transform: W(omega) = Int_0^inf I(tau) cos((omega-omega21) tau) dtau.

    Trapezoid quadrature over the supplied tau grid, which must start at 0 and
    extend far enough that the kernel has decayed.
    """
    kernel = np.asarray(kernel, dtype=float)
    tau = np.asarray(tau, dtype=float)
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    _check_lags(tau)
    if tau[0] != 0.0:
        raise ValueError("tau grid must start at 0")
    if kernel.shape != tau.shape:
        raise ValueError("kernel and tau must have matching shapes")
    return _trapezoid_transform(kernel, tau, omega - omega21)


# ----------------------------------------------------------------------
# Wiener-Khintchine estimation from phase trajectories

@dataclass
class WkEstimate:
    """B*W(omega) recovered from simulated phases (scaled by 1/b if b given).

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


def spectrum_from_autocorrelation(g, tau, omega_grid, omega0: float,
                                  b: float = 1.0) -> np.ndarray:
    """Transform a (possibly complex) field autocorrelation into B*W/b.

    g(tau) is the normalized autocorrelation <e^{i[phi(t+tau)-phi(t)]}> on a
    non-negative, increasing tau grid; negative lags enter through the
    Hermitian symmetry g(-tau) = conj(g(tau)). omega_grid holds offsets from
    the transition. g may stack several autocorrelations along leading axes
    (tau along the last); the result then has omega in place of tau.
    """
    g = np.asarray(g)
    tau = np.asarray(tau, dtype=float)
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    _check_lags(tau)
    if g.shape[-1:] != tau.shape:
        raise ValueError("g must have tau's length along its last axis")
    pref = omega0 ** 2 / (4.0 * b)
    return 2.0 * pref * _trapezoid_transform(g, tau, omega_grid)


def _batch_autocorrelation(rows: np.ndarray, k_max: int) -> np.ndarray:
    """Mean lagged product g[k] = <s(t+k) conj(s(t))> of s = e^{i rows}, k <= k_max.

    Zero padding to any length >= n_t + k_max keeps lags 0..k_max free of
    wrap-around, so they are the exact linear correlations. The rows' power
    spectra are summed before a single inverse FFT.
    """
    n_t = rows.shape[1]
    s = np.zeros((len(rows), next_fast_len(n_t + k_max)), dtype=complex)
    np.cos(rows, out=s.real[:, :n_t])
    np.sin(rows, out=s.imag[:, :n_t])
    spec = fft(s, axis=1, overwrite_x=True)      # transforms s in place
    power = np.square(spec.real).sum(axis=0)
    power += np.square(spec.imag).sum(axis=0)
    counts = n_t - np.arange(k_max + 1)
    return ifft(power)[:k_max + 1] / (len(rows) * counts)


def wk_estimate(phi: np.ndarray, dt: float, omega0: float, omega_grid,
                b: float = 1.0, n_batches: int = 16,
                max_lag: float | None = None) -> WkEstimate:
    """Estimate B*W(omega)/b from an array of phase trajectories.

    phi has shape (n_traj, n_steps+1), sampled every dt. The autocorrelation
    of e^{i phi} is time-averaged over each trajectory (FFT, rectangular lag
    window of ``max_lag``, default the full trajectory) and transformed lag-
    to-frequency by trapezoid quadrature. Trajectories are split into
    ``n_batches`` groups whose independent estimates give the standard error.

    Each batch forms e^{i phi} only for its own rows, zero-padded to
    next_fast_len(n_steps+1 + lags), which is enough for the lags the window
    keeps to be exact linear (not circular) correlations; its power spectra
    are summed before one inverse FFT. Beyond phi itself, memory is one
    batch.

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
    n_traj, n_t = phi.shape
    n_batches = max(2, min(n_batches, n_traj))
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

    batch_vals = spectrum_from_autocorrelation(g, tau, omega_grid, omega0, b=b)
    values = batch_vals.mean(axis=0)
    stderr = batch_vals.std(axis=0, ddof=1) / math.sqrt(n_batches)
    tail = g[:, -max(1, (k_max + 1) // 20):].mean(axis=1)
    trunc = float(abs(np.mean(tail)))
    return WkEstimate(omega=omega_grid, values=values, stderr=stderr,
                      window=tau[-1], n_batches=n_batches,
                      truncation_estimate=trunc,
                      bias_warning=trunc > 0.01)
