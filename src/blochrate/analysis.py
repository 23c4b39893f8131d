"""Closed-form and quadrature evaluation of derived quantities.

Covers the spectral overlap factor zeta by quadrature for any spectrum (the
resonant Lorentzian's closed form is SystemParams.zeta), the pumped steady
state, the eigenvalues of the linearized two-variable dynamics with their
oscillation threshold, and a peak-spacing frequency estimator for measured
traces. Everything is a pure function of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .params import CoherentLimitError, SystemParams
from .spectrum import SpectrumModel, TabulatedSpectrum, spectral_density, width_hint

__all__ = [
    "QuadratureError", "ModeSpectrum", "RegimeFlags", "AnalysisReport",
    "zeta_numeric", "steady_state", "eigenvalues", "thresholds",
    "measured_oscillation_frequency", "build_report",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


def _theta_breaks(s: SpectrumModel, gamma_perp: float, omega21: float):
    """Quadrature break points in the tangent-substituted variable."""
    w = width_hint(s)
    feats = [s.center + k * w for k in (-2.0, -1.0, 0.0, 1.0, 2.0)]
    if isinstance(s, TabulatedSpectrum):
        feats += [s.omega[0], s.omega[-1]]
    feats.append(omega21)
    thetas = np.arctan((np.array(feats) - omega21) / gamma_perp)
    thetas = np.unique(np.clip(thetas, -math.pi / 2 + 1e-9, math.pi / 2 - 1e-9))
    return thetas


def zeta_numeric(s: SpectrumModel, gamma_perp: float, omega21: float = 0.0,
                 rel_tol: float = 1e-8) -> float:
    """Spectral overlap factor by adaptive quadrature.

    zeta = Int dw W(w)/W(omega21) * (gamma_perp/pi)/((w-omega21)^2+gamma_perp^2).
    The substitution w = omega21 + gamma_perp*tan(theta) folds the infinite
    tails onto (-pi/2, pi/2) and makes the atomic line a flat weight, so the
    integrand stays O(1) for any linewidth ratio.
    """
    from scipy.integrate import quad    # here, not at the top: the CLI need not import it

    if gamma_perp <= 0:
        raise ValueError("gamma_perp must be positive")
    w21 = spectral_density(s, omega21)
    if not w21 > 0:
        raise ValueError("W(omega21) = 0: overlap normalization undefined")

    def integrand(theta: float) -> float:
        w = omega21 + gamma_perp * math.tan(theta)
        return spectral_density(s, w) / (w21 * math.pi)

    result = quad(integrand, -math.pi / 2, math.pi / 2,
                  points=_theta_breaks(s, gamma_perp, omega21),
                  limit=400, epsabs=0.0, epsrel=rel_tol, full_output=1)
    if len(result) > 3:
        raise QuadratureError(f"zeta quadrature: {result[3]}")
    value, abserr = result[0], result[1]
    if abserr > 10.0 * rel_tol * max(abs(value), 1e-300):
        raise QuadratureError(
            f"zeta quadrature reached only {abserr:.3e} absolute "
            f"(value {value:.6e}), worse than requested"
        )
    return value


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
