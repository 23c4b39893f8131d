"""Closed-form evaluation of derived quantities.

Covers the spectral overlap factor zeta in closed form for either spectrum
model (the resonant Lorentzian's value is also SystemParams.zeta), the
pumped steady state, the eigenvalues of the linearized two-variable
dynamics with their oscillation threshold, and a peak-spacing frequency
estimator for measured traces. Everything is a pure function of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .params import CoherentLimitError, SystemParams
from .spectrum import LorentzianSpectrum, SpectrumModel, spectral_density

__all__ = [
    "ModeSpectrum", "RegimeFlags", "AnalysisReport",
    "zeta_numeric", "steady_state", "eigenvalues", "thresholds",
    "measured_oscillation_frequency", "build_report",
]


# largest |w|/gamma_perp of a table node: with |x| <= 1e150 the products
# x0*x1, (x1-x0)*(x1+x0) and xi**2 stay below 4e300, so none overflows
_MAX_TABLE_X = 1e150


def zeta_numeric(s: SpectrumModel, gamma_perp: float) -> float:
    """Spectral overlap factor of any spectrum model, in closed form.

    zeta = Int dw W(w)/W(0) * (gamma_perp/pi)/(w^2+gamma_perp^2), with the
    atomic line at w = 0; a detuned light spectrum carries its own center.
    Both models integrate exactly against the atomic Lorentzian:

    - Lorentzian, half-width b = fwhm/2 and center c: the two lines
      convolve to zeta = (b+g)(c^2+b^2) / (b (c^2+(b+g)^2)), g = gamma_perp.
    - Table, linear between nodes and zero outside: with x = w/g and
      W = alpha + beta*x on a segment, the segment gives
      [alpha*D(arctan x) + beta*D(log(1+x^2))/2]/pi, summed over the
      segments and divided by W(0). D(arctan x) is arctan2(x1-x0, 1+x0*x1)
      and D(log(1+x^2)) is log1p(|(x1-x0)(x1+x0)|/(1+xi^2)), xi the
      endpoint nearer 0, signed as (x1-x0)(x1+x0). Neither difference
      cancels, and log1p's argument is never negative: dividing by 1+x0^2
      instead rounds it to -1 on a chord from far out to the atomic line.

    On a 1201-node table the sum is within 2e-15 of per-segment
    Gauss-Legendre at gamma_perp from 0.01 to 300. gamma_perp must be
    finite and positive, W(0) must be positive, and a table's nodes must
    keep max|w|/gamma_perp <= 1e150 (_MAX_TABLE_X).
    """
    if not (math.isfinite(gamma_perp) and gamma_perp > 0):
        raise ValueError("gamma_perp must be positive and finite")
    w21 = spectral_density(s, 0.0)
    if not w21 > 0:
        raise ValueError("W(0) = 0 at the atomic line: overlap normalization undefined")
    if isinstance(s, LorentzianSpectrum):
        b, c2 = 0.5 * s.fwhm, s.center ** 2
        return (b + gamma_perp) * (c2 + b * b) / (b * (c2 + (b + gamma_perp) ** 2))
    # the grid is increasing, so its largest |w| is at an end
    ratio = float(max(-s.omega[0], s.omega[-1])) / gamma_perp
    if not ratio <= _MAX_TABLE_X:
        raise ValueError(f"max|w|/gamma_perp = {ratio:.3g} exceeds {_MAX_TABLE_X:g}: "
                         f"the table's overlap terms would overflow")
    x = s.omega / gamma_perp
    x0, x1 = x[:-1], x[1:]
    dx = x1 - x0
    beta = np.diff(s.values) / dx
    alpha = s.values[:-1] - beta * x0
    d_arctan = np.arctan2(dx, 1.0 + x0 * x1)
    squares = dx * (x1 + x0)
    inner = np.minimum(np.abs(x0), np.abs(x1))
    d_log = np.copysign(np.log1p(np.abs(squares) / (1.0 + inner * inner)), squares)
    return float(np.sum(alpha * d_arctan + 0.5 * beta * d_log)) / (math.pi * w21)


def steady_state(params: SystemParams) -> float:
    """Long-time inversion -a/(a + 2*zeta*bw21); in [-1, 0)."""
    return -params.a / (params.a + 2.0 * params.zeta_bw21)


@dataclass(frozen=True)
class ModeSpectrum:
    """Eigenvalues of the linearized (n, q) dynamics.

    discriminant < 0 means the pair is complex: the approach to steady state
    rings at ``frequency`` (angular) while damping at -Re(lam_plus).
    """

    lam_plus: complex
    lam_minus: complex
    discriminant: float
    frequency: float
    oscillatory: bool


def eigenvalues(params: SystemParams) -> ModeSpectrum:
    """Mode pair lam+- = (-(gamma_eff + a) +- sqrt(R))/2.

    R = (delta + 2*gamma_dc - a)^2/4 - 4*omega0^2, written without dividing
    by delta so the coherent limit is included.
    """
    r = 0.25 * (params.delta + 2.0 * params.gamma_dc - params.a) ** 2 \
        - 4.0 * params.omega0 ** 2
    s = -0.5 * (params.gamma_eff + params.a)
    if r >= 0:
        root = 0.5 * math.sqrt(r)
        return ModeSpectrum(lam_plus=complex(s + root), lam_minus=complex(s - root),
                            discriminant=r, frequency=0.0, oscillatory=False)
    root = 0.5 * math.sqrt(-r)
    return ModeSpectrum(lam_plus=complex(s, root), lam_minus=complex(s, -root),
                        discriminant=r, frequency=root, oscillatory=True)


@dataclass(frozen=True)
class RegimeFlags:
    """Which reduced description applies at the given parameters.

    oscillation_bound is the pump strength bw21 above which the transient
    rings (nan in the coherent limit, where the criterion degenerates).
    """

    oscillation: bool
    rate_eq_valid: bool
    ere_regime: bool
    coherent_limit: bool
    oscillation_bound: float


def thresholds(params: SystemParams) -> RegimeFlags:
    """Regime classification.

    oscillation:   bw21 above (delta + 2*gamma_dc - a)^2/(16*delta), i.e. the
                   mode pair is complex (decided from the discriminant so the
                   two computations can never disagree);
    rate_eq_valid: below that bound and coherence decay dominates decay of
                   the inversion, delta + 2*gamma_dc >= 10*a;
    ere_regime:    additionally the light is broader than every atomic rate,
                   delta >= 10*max(a, 2*gamma_dc), so zeta ~ 1.
    """
    modes = eigenvalues(params)
    if params.delta == 0:
        # monochromatic drive: the pump-threshold comparison is undefined
        # but the mode pair still decides oscillation (plain Rabi flopping)
        return RegimeFlags(oscillation=modes.oscillatory, rate_eq_valid=False,
                           ere_regime=False, coherent_limit=True,
                           oscillation_bound=math.nan)
    bound = (params.delta + 2.0 * params.gamma_dc - params.a) ** 2 \
        / (16.0 * params.delta)
    broad = params.delta + 2.0 * params.gamma_dc >= 10.0 * params.a
    rate_ok = modes.discriminant > 0 and broad
    return RegimeFlags(
        oscillation=modes.oscillatory,
        rate_eq_valid=rate_ok,
        ere_regime=rate_ok and params.delta >= 10.0 * max(params.a, 2.0 * params.gamma_dc),
        coherent_limit=False,
        oscillation_bound=bound,
    )


def measured_oscillation_frequency(t, x) -> float:
    """Angular frequency from the spacing of interior maxima of x(t).

    Peak locations are refined by a local parabola. For an exponentially
    damped cosine consecutive maxima are spaced by exactly one period, so the
    mean spacing inverts to the frequency directly. Returns nan when fewer
    than two interior maxima exist (no measurable oscillation).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    peaks = []
    for i in range(1, len(x) - 1):
        if x[i] > x[i - 1] and x[i] >= x[i + 1]:
            denom = x[i - 1] - 2.0 * x[i] + x[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (x[i - 1] - x[i + 1]) / denom
            peaks.append(t[i] + shift * (t[i] - t[i - 1]))
    if len(peaks) < 2:
        return math.nan
    return 2.0 * math.pi / float(np.mean(np.diff(peaks)))


# ----------------------------------------------------------------------
# combined report

@dataclass
class AnalysisReport:
    """Everything derivable from one parameter set, flattened for printing."""

    a: float
    delta: float
    omega0: float
    gamma_dc: float
    gamma_perp: float
    gamma_eff: float
    zeta: float
    bw21: float            # nan in the coherent limit
    zeta_bw21: float
    n_infinity: float
    lam_plus: complex
    lam_minus: complex
    discriminant: float
    frequency: float
    oscillation: bool
    rate_eq_valid: bool
    ere_regime: bool
    coherent_limit: bool
    oscillation_bound: float

    def to_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                out = "true" if v else "false"
            elif isinstance(v, complex):
                out = f"{v.real:.12g}{v.imag:+.12g}j"
            else:
                out = f"{v:.12g}"
            lines.append(f"{f.name} = {out}")
        return "\n".join(lines) + "\n"

    def csv_header(self) -> str:
        cols = []
        for f in fields(self):
            if isinstance(getattr(self, f.name), complex):
                cols += [f"{f.name}_re", f"{f.name}_im"]
            else:
                cols.append(f.name)
        return ",".join(cols)

    def csv_row(self) -> str:
        cells = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                cells.append("1" if v else "0")
            elif isinstance(v, complex):
                cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
            else:
                cells.append(f"{v:.17g}")
        return ",".join(cells)


def build_report(params: SystemParams) -> AnalysisReport:
    modes = eigenvalues(params)
    flags = thresholds(params)
    try:
        bw21 = params.bw21
    except CoherentLimitError:
        bw21 = math.nan
    return AnalysisReport(
        a=params.a, delta=params.delta, omega0=params.omega0,
        gamma_dc=params.gamma_dc, gamma_perp=params.gamma_perp,
        gamma_eff=params.gamma_eff, zeta=params.zeta, bw21=bw21,
        zeta_bw21=params.zeta_bw21, n_infinity=steady_state(params),
        lam_plus=modes.lam_plus, lam_minus=modes.lam_minus,
        discriminant=modes.discriminant, frequency=modes.frequency,
        oscillation=flags.oscillation, rate_eq_valid=flags.rate_eq_valid,
        ere_regime=flags.ere_regime, coherent_limit=flags.coherent_limit,
        oscillation_bound=flags.oscillation_bound,
    )
